package tss

import (
	"strings"
	"testing"
)

// The fingerprint must be stable for equal configs and sensitive to every
// class of semantic field: machine shape, frontend sizing, runtime choice,
// cost model, ablation switches, and the observation flags that change what
// a result contains.
func TestFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig()
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	other := DefaultConfig()
	if base.Fingerprint() != other.Fingerprint() {
		t.Fatal("identical configs produced different fingerprints")
	}

	mutations := map[string]func(*Config){
		"runtime":   func(c *Config) { c.Runtime = SoftwareRuntime },
		"cores":     func(c *Config) { *c = c.WithCores(128) },
		"ring":      func(c *Config) { c.CoresPerRing = 4 },
		"trs":       func(c *Config) { c.Frontend.NumTRS = 4 },
		"trs bytes": func(c *Config) { c.Frontend.TRSBytesEach = 512 << 10 },
		"renaming":  func(c *Config) { c.Frontend.Renaming = false },
		"sw decode": func(c *Config) { c.Software.DecodeBase = 999 },
		"stealing":  func(c *Config) { c.Backend.Stealing = true },
		"memory":    func(c *Config) { c.Memory = false },
		"chains":    func(c *Config) { c.Frontend.RecordChains = false },
		"schedule":  func(c *Config) { c.Backend.RecordSchedule = false },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// OnComplete is an observer, not machine state: wiring a hook must not
// change the fingerprint, or a daemon could never share cached results with
// hook-free direct runs.
func TestFingerprintIgnoresHooks(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.OnComplete = func(seq, cycle uint64) {}
	b.Backend.OnComplete = nil
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("OnComplete hook changed the fingerprint")
	}
}

func TestCanonicalStringCarriesSimVersion(t *testing.T) {
	if !strings.Contains(DefaultConfig().CanonicalString(), SimVersion) {
		t.Fatalf("canonical string missing SimVersion %q", SimVersion)
	}
}
