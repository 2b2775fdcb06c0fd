package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload end to end in well under a second each: the
// same code paths as fullScale, on small inputs and a cheaper experiment
// (Figure 16 has fixed core counts, Figure 12 honours Options.Cores).
var tinyScale = scale{
	cholTasks: 600, h264Tasks: 400, simCores: 32,
	experiment: "fig12", sweepCores: 8,
	fleetMinTasks: 100, fleetMaxTasks: 300, fleetCores: 8,
	fleetSweep: "fig12", sweepEvery: 3, sampleEvery: 1, sampleMax: 4,
	setupReps: 1, fleetSetupReps: 1, minOps: 3,
	probeSims: 2, bodyTime: 2 * time.Millisecond, setupProbeReps: 1, storeOps: 4,
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload untraced and traced at tiny scale and checks
// the contract with BENCHMARK.json: each run prints every metric of its
// table by name with its unit, passes its correctness gates, and simulates
// exactly what the other run simulated; a traced run's span self times fit
// in its wall time.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			var prints [2]string
			for i, traced := range []bool{false, true} {
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				r, err := runWorkload(w, 7, 0, traced, tinyScale)
				if err != nil {
					t.Fatal(err)
				}
				res := r.rep.result()
				if !res.Correct {
					t.Fatalf("traced=%v: %d of %d checks failed: %v", traced, res.Failed, res.Attempted, r.rep.failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics in the JSON line, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				var text bytes.Buffer
				r.rep.writeText(&text)
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: JSON line has %s = %+v, want unit %q", traced, m.Name, got, m.Unit)
					}
					if !traced && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", m.Name, got.Value)
					}
					if !printedWithUnit(text.String(), m.Name, m.Unit) {
						t.Errorf("traced=%v: text report lacks %s in %s", traced, m.Name, m.Unit)
					}
				}
				prints[i] = r.rep.fingerprint
				if traced {
					rows, wall := r.tr.selfTimes()
					self := 0.0
					for _, row := range rows {
						self += row.Self
					}
					if self > wall*float64(w.width) {
						t.Errorf("span self times sum to %.1f ms, more than %d x %.1f ms of wall time", self, w.width, wall)
					}
				}
			}
			if prints[0] == "" || prints[0] != prints[1] {
				t.Errorf("simulated results differ between two runs of seed 7: %q vs %q", prints[0], prints[1])
			}
		})
	}
}

// printedWithUnit reports whether a report line names the metric and its
// unit.
func printedWithUnit(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}
