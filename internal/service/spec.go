// Package service implements tssd, a long-running simulation-as-a-service
// daemon for the task superscalar reproduction.
//
// Clients submit jobs — a single simulation (one workload on one simulated
// machine) or a whole experiment sweep — as JSON over HTTP. Jobs run on a
// bounded worker pool and publish progress that clients observe either by
// polling the job resource or by subscribing to its Server-Sent-Events
// stream. Because every run is deterministic (see docs/ARCHITECTURE.md,
// "Determinism rules"), results are content-addressable: each normalized
// spec hashes to a key over (workload, machine config, seed, tss.SimVersion),
// identical submissions are answered byte-identically from the daemon's one
// result store (a bounded in-memory LRU, or a persistent directory with
// Config.CacheDir) without re-simulating, and concurrent identical
// submissions coalesce onto a single execution.
//
// Jobs are cancelled cooperatively (DELETE /v1/jobs/{id}): queued jobs flip
// to cancelled immediately, running jobs stop within one engine
// cancellation-poll interval, and terminal jobs are untouched — the call is
// idempotent. In fleet mode (Config.Fleet) the same Server becomes a
// dispatcher: jobs fan out to remote worker daemons registered via
// POST /v1/workers, identical jobs coalesce across nodes, the dispatcher's
// result store answers repeats without touching a worker, and a job whose
// worker dies mid-run is retried elsewhere with byte-identical results.
//
// The HTTP API is documented in docs/SERVICE.md; cmd/tssd is the daemon
// binary and Client is the Go client used by the CLIs' -remote mode.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// SpecVersion versions the job-spec schema itself. It participates in every
// job key next to tss.SimVersion, so a spec-interpretation change can never
// alias a cached result produced under the old interpretation.
const SpecVersion = "tssd-spec/1"

// Job kinds.
const (
	KindSim   = "sim"   // one workload on one machine configuration
	KindSweep = "sweep" // one experiment from the internal/experiments registry
)

// JobSpec is the body of POST /v1/jobs: exactly one of Sim or Sweep is set,
// selected by Kind.
type JobSpec struct {
	// Kind is "sim" or "sweep".
	Kind string `json:"kind"`
	// Sim describes a single-simulation job (Kind "sim").
	Sim *SimSpec `json:"sim,omitempty"`
	// Sweep describes an experiment-sweep job (Kind "sweep").
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Priority is the scheduling class: "interactive" (default for sim
	// jobs) or "bulk" (default for sweep jobs). Within a tenant,
	// interactive jobs are picked before queued bulk jobs. Scheduling
	// metadata only — excluded from Key, so either priority addresses the
	// same cached result.
	Priority string `json:"priority,omitempty"`
}

// SimSpec is one deterministic simulation: a generated workload executed on
// one simulated machine. Omitted fields mean "server default" and are
// filled in by Normalize before hashing, so a defaulted field and its
// explicit default produce the same job key. Tasks and Seed are pointers so
// the wire format can distinguish "omitted" from an explicit zero — seed 0
// is a legitimate seed and must not silently become the default.
type SimSpec struct {
	// Workload is a Table I benchmark name (case-insensitive; see
	// internal/workloads). Normalized to its canonical capitalization.
	Workload string `json:"workload"`
	// Tasks is the approximate task budget (omitted: 3000; if given it
	// must be positive).
	Tasks *int `json:"tasks,omitempty"`
	// Seed drives deterministic workload generation (omitted: 42).
	Seed *int64 `json:"seed,omitempty"`
	// Machine shapes the simulated machine.
	Machine MachineSpec `json:"machine,omitempty"`
}

// MachineSpec is the wire form of tss.Config: the machine-shape knobs the
// service exposes. Unset fields take the paper's Table II defaults.
type MachineSpec struct {
	// Runtime is "hardware" (default), "software", or "sequential".
	Runtime string `json:"runtime,omitempty"`
	// Cores is the worker-core count (default 256).
	Cores int `json:"cores,omitempty"`
	// TRS is the number of task reservation stations (default 8).
	TRS int `json:"trs,omitempty"`
	// ORT is the number of ORT/OVT pairs (default 2).
	ORT int `json:"ort,omitempty"`
	// TRSKB is the eDRAM per TRS in KB (default 768).
	TRSKB int `json:"trs_kb,omitempty"`
	// ORTKB is the eDRAM per ORT in KB (default 256).
	ORTKB int `json:"ort_kb,omitempty"`
	// OVTKB is the eDRAM per OVT in KB (default: ORTKB, the paper's
	// symmetric sizing). Decoupling the two is what lets an ORT-capacity
	// sweep point (Figure 14 holds OVTs fixed while ORTs scale) be
	// expressed as a standalone sim spec.
	OVTKB int `json:"ovt_kb,omitempty"`
	// Memory enables the coherent memory hierarchy.
	Memory bool `json:"memory,omitempty"`
	// Policy is the backend dispatch policy (default "fifo"; see
	// tss.PolicyNames). Machine state, so it participates in the job key
	// through the config's canonical string.
	Policy string `json:"policy,omitempty"`
	// Classes partitions the worker cores into heterogeneous speed classes
	// (empty: homogeneous machine).
	Classes []tss.WorkerClass `json:"classes,omitempty"`
}

// SweepSpec is one experiment from the internal/experiments registry, run
// with the same options cmd/tsbench exposes.
type SweepSpec struct {
	// Experiment is the registry ID (table1, fig12 … chains).
	Experiment string `json:"experiment"`
	// Full runs at paper scale instead of quick mode.
	Full bool `json:"full,omitempty"`
	// Seed drives workload generation (omitted: 42; explicit 0 honored,
	// like SimSpec.Seed).
	Seed *int64 `json:"seed,omitempty"`
	// Cores is the largest machine size (default 256).
	Cores int `json:"cores,omitempty"`
	// Workers bounds the sweep's internal worker pool (default 1: inside
	// the daemon, cross-job parallelism comes from the job pool, so a
	// single sweep does not fan out unless asked to).
	Workers int `json:"workers,omitempty"`
	// Policy overrides the dispatch policy for every simulation in the
	// sweep that does not pin its own (default "fifo"). Part of the job
	// key: different policies produce different results.
	Policy string `json:"policy,omitempty"`
}

// Normalize fills defaults and canonicalizes names in place, then validates.
// A normalized spec is what Key hashes, so two specs that differ only in
// defaulted-vs-explicit fields or workload capitalization address the same
// cached result.
func (s *JobSpec) Normalize() error {
	switch s.Kind {
	case KindSim:
		if s.Sim == nil {
			return fmt.Errorf("kind %q requires a sim spec", s.Kind)
		}
		if s.Sweep != nil {
			return fmt.Errorf("kind %q must not carry a sweep spec", s.Kind)
		}
		if err := s.normalizePriority(PriorityInteractive); err != nil {
			return err
		}
		return s.Sim.normalize()
	case KindSweep:
		if s.Sweep == nil {
			return fmt.Errorf("kind %q requires a sweep spec", s.Kind)
		}
		if s.Sim != nil {
			return fmt.Errorf("kind %q must not carry a sim spec", s.Kind)
		}
		if err := s.normalizePriority(PriorityBulk); err != nil {
			return err
		}
		return s.Sweep.normalize()
	case "":
		return fmt.Errorf("missing job kind (want %q or %q)", KindSim, KindSweep)
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", s.Kind, KindSim, KindSweep)
	}
}

// normalizePriority fills the kind's default scheduling class and rejects
// unknown classes. Priority never reaches Key.
func (s *JobSpec) normalizePriority(def string) error {
	switch s.Priority {
	case "":
		s.Priority = def
	case PriorityInteractive, PriorityBulk:
	default:
		return fmt.Errorf("unknown priority %q (want %q or %q)",
			s.Priority, PriorityInteractive, PriorityBulk)
	}
	return nil
}

func (s *SimSpec) normalize() error {
	wl, ok := workloads.ByName(s.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", s.Workload)
	}
	s.Workload = wl.Name
	if s.Tasks == nil {
		def := 3000
		s.Tasks = &def
	}
	if *s.Tasks < 1 {
		return fmt.Errorf("tasks must be positive, got %d", *s.Tasks)
	}
	if s.Seed == nil {
		def := int64(42)
		s.Seed = &def
	}
	m := &s.Machine
	if m.Runtime == "" {
		m.Runtime = "hardware"
	}
	switch m.Runtime {
	case "hardware", "software", "sequential":
	default:
		return fmt.Errorf("unknown runtime %q (want hardware, software, or sequential)", m.Runtime)
	}
	if m.Cores == 0 {
		m.Cores = 256
	}
	if m.TRS == 0 {
		m.TRS = 8
	}
	if m.ORT == 0 {
		m.ORT = 2
	}
	if m.TRSKB == 0 {
		m.TRSKB = 768
	}
	if m.ORTKB == 0 {
		m.ORTKB = 256
	}
	if m.OVTKB == 0 {
		m.OVTKB = m.ORTKB
	}
	if m.Policy == "" {
		m.Policy = tss.PolicyFIFO
	}
	return s.Config().Validate()
}

func (s *SweepSpec) normalize() error {
	if _, ok := experiments.Get(s.Experiment); !ok {
		return fmt.Errorf("unknown experiment %q", s.Experiment)
	}
	if s.Seed == nil {
		def := int64(42)
		s.Seed = &def
	}
	if s.Cores == 0 {
		s.Cores = 256
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.Policy == "" {
		s.Policy = tss.PolicyFIFO
	}
	if !validPolicyName(s.Policy) {
		return fmt.Errorf("unknown policy %q (have %v)", s.Policy, tss.PolicyNames())
	}
	return nil
}

// validPolicyName reports whether name is one of the built-in dispatch
// policies.
func validPolicyName(name string) bool {
	for _, p := range tss.PolicyNames() {
		if name == p {
			return true
		}
	}
	return false
}

// Config builds the tss machine configuration a normalized sim spec
// describes. The daemon never records per-task schedules (they are O(tasks)
// and not part of the result payload), so RecordSchedule is always off —
// clients verifying byte-identity against a direct run must build their
// config through this same method.
func (s *SimSpec) Config() tss.Config {
	cfg := tss.DefaultConfig().WithCores(s.Machine.Cores)
	switch s.Machine.Runtime {
	case "software":
		cfg.Runtime = tss.SoftwareRuntime
	case "sequential":
		cfg.Runtime = tss.Sequential
	default:
		cfg.Runtime = tss.HardwarePipeline
	}
	cfg.Frontend.NumTRS = s.Machine.TRS
	cfg.Frontend.NumORT = s.Machine.ORT
	cfg.Frontend.TRSBytesEach = uint64(s.Machine.TRSKB) << 10
	cfg.Frontend.ORTBytesEach = uint64(s.Machine.ORTKB) << 10
	cfg.Frontend.OVTBytesEach = uint64(s.Machine.OVTKB) << 10
	cfg.Memory = s.Machine.Memory
	cfg.Backend.Policy = s.Machine.Policy
	cfg.Backend.WorkerClasses = s.Machine.Classes
	cfg.Backend.RecordSchedule = false
	return cfg
}

// Options builds the experiment options a normalized sweep spec describes;
// ctx cancels the sweep between its constituent simulations.
func (s *SweepSpec) Options(ctx context.Context, sink *experiments.Sink) experiments.Options {
	o := experiments.Options{
		Quick:   !s.Full,
		Seed:    *s.Seed,
		Cores:   s.Cores,
		Workers: s.Workers,
		Sink:    sink,
		Context: ctx,
	}
	if s.Policy != tss.PolicyFIFO {
		o.Policy = s.Policy
	}
	return o
}

// Key returns the job's content address: the hex SHA-256 of a canonical
// encoding of the normalized spec, the spec-schema version, and the
// simulator-semantics version (via tss.Config.CanonicalString, which embeds
// tss.SimVersion). Two jobs with equal keys are guaranteed to produce
// byte-identical results, which is what makes the result cache sound.
func (s *JobSpec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nkind=%s\n", SpecVersion, s.Kind)
	switch s.Kind {
	case KindSim:
		fmt.Fprintf(&b, "workload=%s\ntasks=%d\nseed=%d\n--config--\n%s",
			s.Sim.Workload, *s.Sim.Tasks, *s.Sim.Seed, s.Sim.Config().CanonicalString())
	case KindSweep:
		// Workers is deliberately excluded: the sweep engine's contract is
		// byte-identical output at every pool width, so submissions that
		// differ only in Workers address the same result.
		fmt.Fprintf(&b, "experiment=%s\nfull=%v\nseed=%d\ncores=%d\nsim=%s\n",
			s.Sweep.Experiment, s.Sweep.Full, *s.Sweep.Seed, s.Sweep.Cores, tss.SimVersion)
		// The default policy is omitted so pre-policy sweep keys stay
		// stable; a non-default policy changes every constituent run, so
		// it must (and does) change the key.
		if s.Sweep.Policy != tss.PolicyFIFO {
			fmt.Fprintf(&b, "policy=%s\n", s.Sweep.Policy)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
