package tss

import (
	"strings"
	"testing"
)

// fuzzConfig builds a validating Config from raw fuzz inputs.
func fuzzConfig(rt uint8, cores, trs, ort int, trsb, ortb uint64, memory bool) Config {
	pos := func(v, m, min int) int {
		v %= m
		if v < 0 {
			v = -v
		}
		return v + min
	}
	cfg := DefaultConfig().WithCores(pos(cores, 1024, 1))
	cfg.Runtime = []RuntimeKind{HardwarePipeline, SoftwareRuntime, Sequential}[int(rt)%3]
	cfg.Frontend.NumTRS = pos(trs, 64, 1)
	cfg.Frontend.NumORT = pos(ort, 16, 1)
	cfg.Frontend.TRSBytesEach = trsb%(64<<20) + 1
	cfg.Frontend.ORTBytesEach = ortb%(16<<20) + 1
	cfg.Frontend.OVTBytesEach = cfg.Frontend.ORTBytesEach
	cfg.Memory = memory
	return cfg
}

// FuzzConfigCanonicalString drives the fingerprint contract behind every
// cached result: two configs built from the same semantic fields encode (and
// hash) identically whatever observers are attached, any semantic change
// changes the fingerprint, and the encoding itself stays a well-formed
// unique-keyed listing.
func FuzzConfigCanonicalString(f *testing.F) {
	f.Add(uint8(0), 256, 8, 2, uint64(768<<10), uint64(256<<10), true)
	f.Add(uint8(1), 32, 4, 1, uint64(1<<20), uint64(128<<10), false)
	f.Add(uint8(2), 1, 1, 1, uint64(1), uint64(1), true)
	f.Add(uint8(77), -300, 1000, -5, uint64(1<<60), uint64(0), false)

	f.Fuzz(func(t *testing.T, rt uint8, cores, trs, ort int, trsb, ortb uint64, memory bool) {
		a := fuzzConfig(rt, cores, trs, ort, trsb, ortb, memory)
		b := fuzzConfig(rt, cores, trs, ort, trsb, ortb, memory)

		canon := a.CanonicalString()
		if canon != b.CanonicalString() {
			t.Fatal("identical configs encode differently")
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatal("identical configs fingerprint differently")
		}

		// Observers are not machine state: attaching them must not move
		// the content address.
		b.OnComplete = func(seq, cycle uint64) {}
		if b.CanonicalString() != canon {
			t.Fatal("observer fields leaked into CanonicalString")
		}
		// Backend.Cores is overridden by Cores on every run, so it is not
		// machine state either.
		b.Backend.Cores++
		if b.CanonicalString() != canon {
			t.Fatal("Backend.Cores leaked into CanonicalString")
		}

		// Every semantic mutation moves the fingerprint.
		mutations := map[string]func(*Config){
			"cores":     func(c *Config) { c.Cores++ },
			"num_trs":   func(c *Config) { c.Frontend.NumTRS++ },
			"num_ort":   func(c *Config) { c.Frontend.NumORT++ },
			"trs_bytes": func(c *Config) { c.Frontend.TRSBytesEach++ },
			"ort_bytes": func(c *Config) { c.Frontend.ORTBytesEach++ },
			"memory":    func(c *Config) { c.Memory = !c.Memory },
			"runtime": func(c *Config) {
				if c.Runtime == HardwarePipeline {
					c.Runtime = SoftwareRuntime
				} else {
					c.Runtime = HardwarePipeline
				}
			},
			// The dispatch-policy axes are machine state and must move
			// the fingerprint.
			"backend_policy": func(c *Config) { c.Backend.Policy = "spec" },
			"worker_classes": func(c *Config) {
				c.Backend.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, Speed: 2}}
			},
			"worker_class_speed": func(c *Config) {
				c.Backend.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, Speed: 4}}
			},
			"worker_class_kernels": func(c *Config) {
				c.Backend.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, Speed: 2, KernelSpeed: []float64{3}}}
			},
		}
		for name, mutate := range mutations {
			m := a
			mutate(&m)
			if m.Fingerprint() == a.Fingerprint() {
				t.Fatalf("mutating %s did not change the fingerprint", name)
			}
		}

		// The encoding is a newline-terminated k=v listing with unique
		// keys — the property that makes it safe to extend.
		seen := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(canon, "\n"), "\n") {
			k, _, ok := strings.Cut(line, "=")
			if !ok || k == "" {
				t.Fatalf("malformed canonical line %q", line)
			}
			if seen[k] {
				t.Fatalf("duplicate canonical key %q", k)
			}
			seen[k] = true
		}
	})
}
