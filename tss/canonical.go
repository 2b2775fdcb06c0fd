package tss

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"tasksuperscalar/internal/backend"
)

// SimVersion identifies the generation of the simulator's cycle-exact
// semantics. It participates in every config fingerprint, so any cached or
// recorded result is implicitly keyed by the code that produced it. Bump it
// whenever a change alters simulated cycle counts (the same changes that
// require regenerating docs/goldens/ with scripts/check_determinism.sh
// -update); pure refactors, new statistics, and API changes leave it alone.
const SimVersion = "tss-sim/2"

// CanonicalString renders every semantically relevant field of the config —
// everything that can influence a run's result, including the observation
// switches that change which statistics are collected — as a stable,
// human-readable key/value listing. Two configs produce the same string if
// and only if they describe the same simulated machine under the same
// SimVersion, which is what makes results content-addressable: the string
// (and the Fingerprint derived from it) is the cache key used by the tssd
// daemon's result cache.
//
// Function-valued fields (OnComplete/OnDispatch hooks), the SpecValidate
// replay trace, and the derived per-workload Backend.TaskDepth table are
// observers or derived inputs, not machine state, and are excluded, as is
// Backend.Cores, which every run overrides with Cores. The dispatch policy
// and worker classes ARE machine state and are always included.
func (c Config) CanonicalString() string {
	var b strings.Builder
	w := func(key string, v any) { fmt.Fprintf(&b, "%s=%v\n", key, v) }
	w("sim", SimVersion)
	w("runtime", c.Runtime.String())
	w("cores", c.Cores)

	fe := c.Frontend
	w("fe.num_trs", fe.NumTRS)
	w("fe.num_ort", fe.NumORT)
	w("fe.trs_bytes_each", fe.TRSBytesEach)
	w("fe.ort_bytes_each", fe.ORTBytesEach)
	w("fe.ovt_bytes_each", fe.OVTBytesEach)
	w("fe.gateway_buf_bytes", fe.GatewayBufBytes)
	w("fe.renaming", fe.Renaming)
	w("fe.chaining", fe.Chaining)
	w("fe.record_chains", fe.RecordChains)

	be := c.Backend
	w("be.local_queue_depth", be.LocalQueueDepth)
	w("be.stealing", be.Stealing)
	w("be.record_schedule", be.RecordSchedule)
	// The dispatch policy and worker-class mix are machine state (they
	// change which worker runs which task and when), so they always
	// canonicalize; "" is the fifo default and encodes as such. The
	// class encoding is injective given the validated name charset.
	policy := be.Policy
	if policy == "" {
		policy = backend.PolicyFIFO
	}
	w("be.policy", policy)
	if classes := be.WorkerClasses; len(classes) > 0 {
		var sb strings.Builder
		for i := range classes {
			wc := &classes[i]
			if i > 0 {
				sb.WriteByte(';')
			}
			fmt.Fprintf(&sb, "%s:%dx%g", wc.Name, wc.Count, wc.Speed)
			if len(wc.KernelSpeed) > 0 {
				sb.WriteByte('[')
				for k, s := range wc.KernelSpeed {
					if k > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "%g", s)
				}
				sb.WriteByte(']')
			}
		}
		w("be.worker_classes", sb.String())
	}

	w("memory", c.Memory)
	return b.String()
}

// Fingerprint returns the hex SHA-256 of the canonical config encoding.
// Identical fingerprints guarantee identical simulated machines (under the
// embedded SimVersion), so a deterministic workload run against two configs
// with equal fingerprints yields cycle-exact identical results.
func (c Config) Fingerprint() string {
	sum := sha256.Sum256([]byte(c.CanonicalString()))
	return hex.EncodeToString(sum[:])
}
