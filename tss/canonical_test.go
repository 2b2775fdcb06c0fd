package tss

import (
	"reflect"
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
		"trs":       func(c *Config) { c.Frontend.NumTRS = 4 },
		"trs bytes": func(c *Config) { c.Frontend.TRSBytesEach = 512 << 10 },
		"renaming":  func(c *Config) { c.Frontend.Renaming = false },
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

// TestFingerprintCoversEveryField walks Config and the structs nested in it
// by reflection and mutates each field on a default config. Every integer
// and bool field, the dispatch policy and the worker classes are machine
// state and must move the fingerprint; the observers, the derived inputs
// and Backend.Cores must not. A field of any other kind fails the test until
// it is canonicalized or listed, so a new Config field cannot silently
// share one cache key between two machines.
func TestFingerprintCoversEveryField(t *testing.T) {
	excluded := map[string]bool{
		"OnComplete":           true,
		"Backend.Cores":        true,
		"Backend.TaskDepth":    true,
		"Backend.OnDispatch":   true,
		"Backend.SpecValidate": true,
		"Backend.OnComplete":   true,
	}
	special := map[string]func(reflect.Value){
		"Backend.Policy": func(v reflect.Value) { v.SetString(PolicySpec) },
		"Backend.WorkerClasses": func(v reflect.Value) {
			v.Set(reflect.ValueOf([]WorkerClass{{Name: "fast", Count: 1, Speed: 2}}))
		},
	}
	base := DefaultConfig().Fingerprint()
	var walk func(prefix string, typ reflect.Type, index []int)
	walk = func(prefix string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := prefix + f.Name
			idx := append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type, idx)
				continue
			}
			cfg := DefaultConfig()
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			wantMove := true
			if mutate, ok := special[name]; ok {
				mutate(v)
			} else {
				switch k := v.Kind(); {
				case k >= reflect.Int && k <= reflect.Int64:
					v.SetInt(v.Int() + 1)
				case k >= reflect.Uint && k <= reflect.Uint64:
					v.SetUint(v.Uint() + 1)
				case k == reflect.Bool:
					v.SetBool(!v.Bool())
				case k == reflect.Func && excluded[name]:
					v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
				case k == reflect.Slice && excluded[name]:
					v.Set(reflect.MakeSlice(v.Type(), 1, 1))
				default:
					t.Errorf("%s (%s) is neither canonicalized nor listed as excluded", name, k)
					continue
				}
				wantMove = !excluded[name]
			}
			if moved := cfg.Fingerprint() != base; moved != wantMove {
				t.Errorf("mutating %s: fingerprint moved = %v, want %v", name, moved, wantMove)
			}
		}
	}
	walk("", reflect.TypeOf(Config{}), nil)
}
