package sim

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives Table and a Go map with the same random Put,
// Get and Delete sequence, for both key widths, through several doublings.
// A quarter of the keys are picked to share the last two home slots of the
// table's current size, so probe runs wrap past the end of the slot array
// and deletions shift entries back across the wrap. Key 0 and the type's
// maximum are always in play.
func TestTableMatchesMap(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { checkTableMatchesMap[uint32](t, ^uint32(0)) })
	t.Run("uint64", func(t *testing.T) { checkTableMatchesMap[uint64](t, ^uint64(0)) })
}

func checkTableMatchesMap[K ~uint32 | ~uint64](t *testing.T, maxKey K) {
	// tailKeys[size] holds keys whose home slot, at that table size, is
	// one of the last two.
	tailKeys := map[int][]K{}
	keysAtTail := func(size int, rng *rand.Rand) []K {
		if ks, ok := tailKeys[size]; ok {
			return ks
		}
		var probe Table[K, int]
		probe.resize(size / 2)
		var ks []K
		for len(ks) < 8 {
			k := K(rng.Uint64())
			if probe.home(k) >= size-2 {
				ks = append(ks, k)
			}
		}
		tailKeys[size] = ks
		return ks
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[K, int]
		if seed%2 == 0 {
			tab.resize(rng.Intn(20))
		}
		ref := map[K]int{}
		pool := []K{0, maxKey}
		for i := 0; i < 4+rng.Intn(400); i++ {
			pool = append(pool, K(rng.Uint64()))
		}
		sizes := map[int]bool{}
		for op := 0; op < 4000; op++ {
			k := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 && len(tab.keys) > 0 {
				tail := keysAtTail(len(tab.keys), rng)
				k = tail[rng.Intn(len(tail))]
			}
			switch r := rng.Intn(10); {
			case r < 5:
				v := rng.Int()
				tab.Put(k, v)
				ref[k] = v
			case r < 8:
				tab.Delete(k)
				delete(ref, k)
			}
			got := tab.Get(k)
			want, ok := ref[k]
			if (got != nil) != ok || ok && *got != want {
				t.Fatalf("seed %d op %d: Get(%#x) = %v, map has %d (%v)", seed, op, k, got, want, ok)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, map has %d", seed, op, tab.Len(), len(ref))
			}
			seen := 0
			for k, v := range tab.All() {
				seen++
				if w, ok := ref[k]; !ok || w != *v {
					t.Fatalf("seed %d op %d: All yields %#x=%d, map has %d (%v)", seed, op, k, *v, w, ok)
				}
			}
			if seen != len(ref) {
				t.Fatalf("seed %d op %d: All yields %d entries, map has %d", seed, op, seen, len(ref))
			}
			sizes[len(tab.keys)] = true
		}
		if len(pool) > 200 && len(sizes) < 4 {
			t.Fatalf("seed %d: the table took %d sizes, want several doublings", seed, len(sizes))
		}
	}
}

// TestArenaKeepsAddresses checks that a record's address survives the
// arena's growth, that fresh slots are dense from 0, and that freed slots
// come back last in first out with their contents.
func TestArenaKeepsAddresses(t *testing.T) {
	var a Arena[[3]uint64]
	var held []*[3]uint64
	for i := 0; i < 4*arenaChunk+7; i++ {
		slot, r := a.Alloc()
		if slot != uint32(i) {
			t.Fatalf("fresh Alloc %d returned slot %d", i, slot)
		}
		*r = [3]uint64{uint64(i), 2 * uint64(i), 3 * uint64(i)}
		if i%100 == 0 {
			held = append(held, r)
		}
	}
	if a.Len() != 4*arenaChunk+7 {
		t.Fatalf("Len %d, want %d", a.Len(), 4*arenaChunk+7)
	}
	for j, r := range held {
		i := uint32(100 * j)
		if a.At(i) != r || r[0] != uint64(i) || r[2] != 3*uint64(i) {
			t.Fatalf("slot %d moved or changed while the arena grew: %v", i, *r)
		}
	}
	// Three slots in three different chunks, freed out of slot order.
	freed := []uint32{5, 2*arenaChunk + 60, arenaChunk + 2}
	for _, s := range freed {
		a.Free(s)
	}
	for _, want := range []uint32{freed[2], freed[1], freed[0]} {
		slot, r := a.Alloc()
		if slot != want || r != a.At(want) || r[0] != uint64(want) {
			t.Fatalf("Alloc after frees returned slot %d (%v), want %d with its old contents", slot, *r, want)
		}
	}
	if slot, _ := a.Alloc(); slot != 4*arenaChunk+7 {
		t.Fatalf("Alloc with no free slot returned %d, want the next dense index %d", slot, 4*arenaChunk+7)
	}
}

// TestStorageZeroAllocSteadyState pins that warm storage allocates
// nothing: Table churn at a fixed size (an All scan included), Arena
// Alloc/Free and Pool Get/Put.
func TestStorageZeroAllocSteadyState(t *testing.T) {
	var tab Table[uint64, l1Like]
	tab.resize(256)
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i) << 6
		tab.Put(keys[i], l1Like{used: uint64(i)})
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, k := range keys[:100] {
			tab.Delete(k)
		}
		for i, k := range keys[:100] {
			tab.Put(k, l1Like{used: uint64(i)})
		}
		best := ^uint64(0)
		for _, v := range tab.All() {
			best = min(best, v.used)
		}
		if tab.Get(keys[7]) == nil || best != 0 {
			t.Fatal("table lost an entry")
		}
	}); avg != 0 {
		t.Fatalf("warm Table churn allocated %.1f times per run, want 0", avg)
	}

	var a Arena[[4]uint64]
	slots := make([]uint32, 1000)
	churn := func() {
		for i := range slots {
			slots[i], _ = a.Alloc()
		}
		for _, s := range slots {
			a.Free(s)
		}
	}
	churn()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("warm Arena Alloc/Free allocated %.1f times per run, want 0", avg)
	}

	var p Pool[[4]uint64]
	recs := make([]*[4]uint64, 100)
	cycle := func() {
		for i := range recs {
			recs[i] = p.Get()
		}
		for _, r := range recs {
			p.Put(r)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm Pool Get/Put allocated %.1f times per run, want 0", avg)
	}
}

// l1Like mirrors an L1 object record: a value with padding.
type l1Like struct {
	size  uint32
	dirty bool
	used  uint64
}
