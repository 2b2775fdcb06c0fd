package tss

import (
	"fmt"
	"strconv"
	"strings"

	"tasksuperscalar/internal/backend"
	"tasksuperscalar/internal/core"
)

// RuntimeKind selects how tasks are decoded and scheduled.
type RuntimeKind int

const (
	// HardwarePipeline runs the task superscalar frontend (the paper's
	// contribution).
	HardwarePipeline RuntimeKind = iota
	// SoftwareRuntime runs the StarSs software-decoder baseline.
	SoftwareRuntime
	// Sequential executes tasks back-to-back on one core (the speedup
	// denominator).
	Sequential
)

// String names the runtime kind.
func (k RuntimeKind) String() string {
	switch k {
	case HardwarePipeline:
		return "task-superscalar"
	case SoftwareRuntime:
		return "software-runtime"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("RuntimeKind(%d)", int(k))
}

// MaxOperands is the pipeline's per-task operand limit (19: one main TRS
// block plus three indirect blocks).
const MaxOperands = core.MaxOperands

// WorkerClass re-exports the backend's worker-class descriptor so callers
// configuring heterogeneous machines need not import internal packages.
type WorkerClass = backend.WorkerClass

// DispatchStats re-exports the backend's per-run dispatch accounting.
type DispatchStats = backend.DispatchStats

// DispatchRecord re-exports one observed dispatch decision.
type DispatchRecord = backend.DispatchRecord

// PolicyNames lists the built-in dispatch policies in a stable order.
func PolicyNames() []string { return backend.PolicyNames() }

// Built-in dispatch policy names (see internal/backend for semantics).
const (
	PolicyFIFO         = backend.PolicyFIFO
	PolicyCriticalPath = backend.PolicyCriticalPath
	PolicyHetero       = backend.PolicyHetero
	PolicySpec         = backend.PolicySpec
)

// Config describes the simulated machine.
type Config struct {
	// Runtime selects the decode/schedule engine.
	Runtime RuntimeKind

	// Cores is the number of worker processors (Table II: 32-256).
	Cores int

	// Frontend sizes the hardware pipeline (ignored for other runtimes).
	Frontend core.Config

	// Backend sizes the Carbon-like queuing system and carries the
	// dispatch policy (Backend.Policy, "" = "fifo"; see PolicyNames) and
	// the worker classes (Backend.WorkerClasses). Its Cores is overridden
	// by the Cores field above.
	Backend backend.Config

	// Memory enables the coherent memory hierarchy (L1/L2/directory/
	// DRAM); without it operand staging is free and only decode and
	// dependency timing are modeled.
	Memory bool

	// OnComplete, when set, observes every task retirement (sequence
	// number and completion cycle) as it happens. It is the bounded-memory
	// alternative to Result.Start/Finish for streamed runs.
	OnComplete func(seq, cycle uint64)
}

// DefaultConfig returns the paper's operating point: 256 cores, 8 TRS,
// 2 ORT/OVT (7 MB eDRAM), memory system enabled.
func DefaultConfig() Config {
	return Config{
		Runtime:  HardwarePipeline,
		Cores:    256,
		Frontend: core.DefaultConfig(),
		Backend:  backend.DefaultConfig(256),
		Memory:   true,
	}
}

// WithCores returns the config resized to n worker cores.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// validClassName matches class names that survive canonical encoding
// unambiguously (no separators used by the encoding).
func validClassName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("tss: need at least one core, got %d", c.Cores)
	}
	if c.Runtime == HardwarePipeline {
		if c.Frontend.NumTRS < 1 || c.Frontend.NumORT < 1 {
			return fmt.Errorf("tss: hardware pipeline needs >=1 TRS and >=1 ORT")
		}
	}
	if p := c.Backend.Policy; !backend.ValidPolicy(p) {
		return fmt.Errorf("tss: unknown dispatch policy %q (have %v)", p, backend.PolicyNames())
	}
	classes := c.Backend.WorkerClasses
	if len(classes) > 64 {
		return fmt.Errorf("tss: at most 64 worker classes, got %d", len(classes))
	}
	total := 0
	for i, wc := range classes {
		if !validClassName(wc.Name) {
			return fmt.Errorf("tss: worker class %d has invalid name %q (want [a-z0-9_-]+)", i, wc.Name)
		}
		if wc.Count < 1 {
			return fmt.Errorf("tss: worker class %q needs a positive count, got %d", wc.Name, wc.Count)
		}
		if wc.Speed < 0 {
			return fmt.Errorf("tss: worker class %q has negative speed %g", wc.Name, wc.Speed)
		}
		for k, s := range wc.KernelSpeed {
			if s < 0 {
				return fmt.Errorf("tss: worker class %q kernel %d has negative speed %g", wc.Name, k, s)
			}
		}
		total += wc.Count
	}
	if total > c.Cores {
		return fmt.Errorf("tss: worker classes cover %d cores but the machine has %d", total, c.Cores)
	}
	return nil
}

// ParseWorkerClasses parses the CLI worker-class syntax: comma-separated
// `name:count@speed` entries, each optionally followed by a parenthesized
// per-kernel speed list, e.g. "fast:8@2,slow:24@0.5" or
// "gpu:4@1(4,0.25)". The speed suffix may be omitted (`name:count` = speed
// 1). Validation beyond syntax (name charset, counts vs cores) happens in
// Config.Validate.
func ParseWorkerClasses(s string) ([]WorkerClass, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []WorkerClass
	for _, entry := range splitTopLevel(s) {
		entry = strings.TrimSpace(entry)
		var kernels []float64
		if i := strings.IndexByte(entry, '('); i >= 0 {
			if !strings.HasSuffix(entry, ")") {
				return nil, fmt.Errorf("tss: worker class %q: unclosed kernel-speed list", entry)
			}
			for _, ks := range strings.Split(entry[i+1:len(entry)-1], ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(ks), 64)
				if err != nil {
					return nil, fmt.Errorf("tss: worker class %q: bad kernel speed %q", entry, ks)
				}
				kernels = append(kernels, v)
			}
			entry = entry[:i]
		}
		speed := 0.0
		if i := strings.IndexByte(entry, '@'); i >= 0 {
			v, err := strconv.ParseFloat(entry[i+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("tss: worker class %q: bad speed %q", entry, entry[i+1:])
			}
			speed = v
			entry = entry[:i]
		}
		name, count, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("tss: worker class %q: want name:count[@speed]", entry)
		}
		n, err := strconv.Atoi(count)
		if err != nil {
			return nil, fmt.Errorf("tss: worker class %q: bad count %q", entry, count)
		}
		out = append(out, WorkerClass{Name: name, Count: n, Speed: speed, KernelSpeed: kernels})
	}
	return out, nil
}

// splitTopLevel splits on commas outside parentheses.
func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
