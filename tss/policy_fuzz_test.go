package tss

import (
	"encoding/json"
	"testing"

	"tasksuperscalar/internal/backend"
	"tasksuperscalar/internal/taskmodel"
)

// fuzzGraph builds a seeded random task graph. The shape knobs map to the
// dependency patterns that stress the pipeline differently:
//
//   - chainDepth: how many tasks alternately write and read the same
//     objects, forming serial dependency chains (tight cross-module
//     timing);
//   - fanout: how many readers each producer feeds (one retirement waking
//     many consumers at once);
//   - memMix: the blend of In/Out/InOut operands (renaming vs true
//     dependencies vs versioned writes).
//
// The generator is a pure function of its arguments, so repeated runs
// receive bit-identical streams.
func fuzzGraph(seed uint64, n int, chainDepth, fanout, memMix uint8) []*taskmodel.Task {
	rng := seed | 1
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	var reg taskmodel.Registry
	kid := reg.Register("fuzz_kernel")

	// A fixed object set, each with a fixed size — as in the real workload
	// generators, where an object is one matrix block or frame buffer.
	nobj := 2 + int(chainDepth)%16 + int(fanout)%16
	objs := make([]taskmodel.Addr, nobj)
	sizes := make([]uint32, nobj)
	alloc := taskmodel.NewAllocator(0x2000_0000)
	for i := range objs {
		sizes[i] = uint32(256 + next()%4096)
		objs[i] = alloc.Alloc(sizes[i])
	}

	tasks := make([]*taskmodel.Task, 0, n)
	for i := 0; i < n; i++ {
		nops := 1 + int(next()%4)
		if nops > nobj {
			nops = nobj
		}
		ops := make([]taskmodel.Operand, 0, nops)
		used := make(map[int]bool, nops)
		for k := 0; k < nops; k++ {
			var dir taskmodel.Dir
			switch (next() + uint64(memMix)) % 5 {
			case 0, 1:
				dir = taskmodel.In
			case 2:
				dir = taskmodel.Out
			case 3:
				dir = taskmodel.InOut
			default:
				dir = taskmodel.Scalar
			}
			if dir == taskmodel.Scalar {
				ops = append(ops, taskmodel.Operand{Size: 8, Dir: taskmodel.Scalar})
				continue
			}
			// Chain tasks onto a small object set so writers and readers
			// collide; fanout widens the reader side by biasing reads onto
			// object 0. Operand objects are distinct within a task, as the
			// programming model requires.
			oi := int(next()) % nobj
			if dir == taskmodel.In && fanout > 0 && next()%4 == 0 {
				oi = 0
			}
			for used[oi] {
				oi = (oi + 1) % nobj
			}
			used[oi] = true
			ops = append(ops, taskmodel.Operand{
				Base: objs[oi],
				Size: sizes[oi],
				Dir:  dir,
			})
		}
		tasks = append(tasks, &taskmodel.Task{
			Kernel:   kid,
			Operands: ops,
			Runtime:  100 + next()%5000,
			Seq:      uint64(i),
		})
	}
	return tasks
}

// fuzzPolicyClasses are the worker-class mixes the conservation fuzzer
// cycles through (selector-indexed so the corpus stays a flat tuple).
func fuzzPolicyClasses(classSel uint8, cores int) []WorkerClass {
	switch classSel % 4 {
	case 1:
		return []WorkerClass{{Name: "fast", Count: cores / 4, Speed: 2}}
	case 2:
		return []WorkerClass{
			{Name: "fast", Count: cores / 4, Speed: 2, KernelSpeed: []float64{4}},
			{Name: "slow", Count: cores / 2, Speed: 0.5},
		}
	case 3:
		return []WorkerClass{{Name: "one", Count: 1, Speed: 3}}
	default:
		return nil
	}
}

// FuzzPolicyConservation is the randomized harness over random LCG task
// graphs × a fuzzer-chosen policy, worker-class mix and memory setting:
// every run must conserve tasks (every seq retires exactly once), keep
// speculation fully validated, and reproduce byte for byte when run again.
func FuzzPolicyConservation(f *testing.F) {
	f.Add(uint64(1), uint16(120), uint8(8), uint8(4), uint8(2), uint8(0), uint8(0), false)
	f.Add(uint64(42), uint16(200), uint8(1), uint8(12), uint8(0), uint8(1), uint8(1), false)
	f.Add(uint64(7), uint16(90), uint8(15), uint8(2), uint8(4), uint8(2), uint8(2), false)
	f.Add(uint64(0xfeed), uint16(150), uint8(3), uint8(8), uint8(1), uint8(3), uint8(3), false)
	f.Add(uint64(42), uint16(200), uint8(1), uint8(12), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint64(0xfeed), uint16(80), uint8(15), uint8(0), uint8(4), uint8(0), uint8(0), true)

	policies := backend.PolicyNames()

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, chainDepth, fanout, memMix, policySel, classSel uint8, memory bool) {
		tasks := fuzzGraph(seed, int(n)%256+8, chainDepth, fanout, memMix)
		ntasks := uint64(len(tasks))

		cfg := DefaultConfig().WithCores(16)
		cfg.Memory = memory
		cfg.Backend.Policy = policies[int(policySel)%len(policies)]
		cfg.Backend.WorkerClasses = fuzzPolicyClasses(classSel, cfg.Cores)

		seen := make([]int, ntasks)
		cfg.OnComplete = func(seq, cycle uint64) {
			if seq < ntasks {
				seen[seq]++
			}
		}
		want, err := RunTasks(tasks, cfg)
		if err != nil {
			t.Fatalf("first run (%s): %v", cfg.Backend.Policy, err)
		}
		cfg.OnComplete = nil
		for seq, c := range seen {
			if c != 1 {
				t.Fatalf("policy %s: seq %d retired %d times", cfg.Backend.Policy, seq, c)
			}
		}
		if want.Tasks != ntasks {
			t.Fatalf("policy %s executed %d of %d tasks", cfg.Backend.Policy, want.Tasks, ntasks)
		}
		if want.Dispatch.SpecDispatches != want.Dispatch.SpecValidated {
			t.Fatalf("policy %s: %d speculative dispatches but %d validated",
				cfg.Backend.Policy, want.Dispatch.SpecDispatches, want.Dispatch.SpecValidated)
		}

		got, err := RunTasks(tasks, cfg)
		if err != nil {
			t.Fatalf("second run (%s): %v", cfg.Backend.Policy, err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Fatalf("policy %s (memory %v) diverged between two runs\nfirst:  %s\nsecond: %s",
				cfg.Backend.Policy, memory, wb, gb)
		}
	})
}
