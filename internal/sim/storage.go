package sim

import (
	"iter"
	"math/bits"
)

// The simulator's storage. Every frontend structure of the paper is a
// fixed-capacity table (§IV.B); the modules enforce each capacity with a
// counter, and keep their records in storage that starts empty, grows with
// what the run holds and stops allocating once warm. Three types cover
// every module: Table indexes records by an integer key, Arena holds
// records at stable addresses in recycled slots, and Pool recycles
// pointer-passed records (events and dispatch records). None is safe for
// concurrent use; like every simulation structure each is owned by one
// engine goroutine.

// Table is an open-addressed hash table from integer keys to values.
//
// Linear probing starts at a Fibonacci-hashed home slot, the top bits of
// k·0x9E3779B97F4A7C15 (2^64/φ), so aligned addresses and sequential
// numbers spread evenly. Deletion shifts the rest of the probe run back
// instead of leaving tombstones, and the slot array doubles when an insert
// finds it half full. Keys, values and occupancy are three separate
// arrays: one struct per slot would pad every entry.
//
// The zero value is an empty table; the first Put gives it tableMinSlots
// slots.
type Table[K ~uint32 | ~uint64, V any] struct {
	keys  []K
	vals  []V
	used  []bool
	shift uint8 // 64 - log2(len(keys))
	n     int
}

const tableMinSlots = 8

// resize empties t and sizes it for n entries at half load.
func (t *Table[K, V]) resize(n int) {
	size := tableMinSlots
	for size < 2*n {
		size <<= 1
	}
	t.keys = make([]K, size)
	t.vals = make([]V, size)
	t.used = make([]bool, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

func (t *Table[K, V]) home(k K) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
}

// Len returns the number of entries.
func (t *Table[K, V]) Len() int { return t.n }

// Get returns k's value, or nil when k is absent. The pointer is valid
// until the next Put or Delete.
func (t *Table[K, V]) Get(k K) *V {
	if t.n == 0 {
		return nil
	}
	mask := len(t.keys) - 1
	for i := t.home(k); t.used[i]; i = (i + 1) & mask {
		if t.keys[i] == k {
			return &t.vals[i]
		}
	}
	return nil
}

// Put sets k's value to v, inserting k when it is absent.
func (t *Table[K, V]) Put(k K, v V) {
	if 2*t.n >= len(t.keys) {
		keys, vals, used := t.keys, t.vals, t.used
		t.resize(len(keys))
		for i, u := range used {
			if u {
				t.Put(keys[i], vals[i])
			}
		}
	}
	mask := len(t.keys) - 1
	i := t.home(k)
	for ; t.used[i]; i = (i + 1) & mask {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
	t.keys[i], t.vals[i], t.used[i] = k, v, true
	t.n++
}

// Delete removes k, if present.
func (t *Table[K, V]) Delete(k K) {
	if t.n == 0 {
		return
	}
	mask := len(t.keys) - 1
	i := t.home(k)
	for t.used[i] && t.keys[i] != k {
		i = (i + 1) & mask
	}
	if !t.used[i] {
		return
	}
	// i is a gap now. Each later entry of the run moves back into it
	// unless that would put the entry before its home slot; the gap then
	// moves to where the entry was.
	for j := (i + 1) & mask; t.used[j]; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	var zero V
	t.used[i], t.vals[i] = false, zero
	t.n--
}

// All yields every entry with a pointer to its value, in slot order. The
// loop body must not Put or Delete.
func (t *Table[K, V]) All() iter.Seq2[K, *V] {
	return func(yield func(K, *V) bool) {
		for i, u := range t.used {
			if u && !yield(t.keys[i], &t.vals[i]) {
				return
			}
		}
	}
}

// Arena holds records at stable addresses, indexed by dense slot numbers.
// Records live in chunks of arenaChunk, so a pointer from At or Alloc
// stays valid while the arena grows (handlers hold records across nested
// replays and multi-hop protocol chains). Chunks are small, so an arena's
// storage follows the records it holds: a station with a few dozen tasks
// allocates one chunk. The zero value is empty.
type Arena[T any] struct {
	chunks [][]T
	n      int      // slots handed out so far: [0, n)
	free   []uint32 // freed slots, reused last in first out
}

// arenaChunk is a power of 2, so At is a shift and a mask.
const arenaChunk = 64

// Alloc returns a slot and its record: the most recently freed slot, else
// the next dense index from 0. A recycled record keeps its old contents,
// so that a slot can carry state (a generation, a slice's capacity) from
// one use to the next.
func (a *Arena[T]) Alloc() (uint32, *T) {
	var i uint32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if a.n == len(a.chunks)*arenaChunk {
			a.chunks = append(a.chunks, make([]T, arenaChunk))
		}
		i = uint32(a.n)
		a.n++
	}
	return i, a.At(i)
}

// At returns slot i's record; i must be below Len.
func (a *Arena[T]) At(i uint32) *T { return &a.chunks[i/arenaChunk][i%arenaChunk] }

// Free returns slot i for reuse; its record keeps its contents.
func (a *Arena[T]) Free(i uint32) { a.free = append(a.free, i) }

// Len returns the number of slots ever handed out, free ones included.
func (a *Arena[T]) Len() int { return a.n }

// Pool is a last-in first-out free list of records passed by pointer:
// self-recycling events (a server's deliveries, the NoC's hops, the
// modules' lifecycle events) and dispatch records. It is deliberately not a
// sync.Pool: that pool's per-P caches and GC interaction would make reuse,
// and so heap layout, depend on timing, and each engine is single-threaded
// anyway. The zero value is empty.
type Pool[T any] struct{ free []*T }

// Get returns the most recently put record, with its old contents, or a
// new zero record when the pool is empty.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	x := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return x
}

// Put takes x back. The caller must not use x afterwards.
func (p *Pool[T]) Put(x *T) {
	if p.free == nil {
		p.free = make([]*T, 0, poolSeedCap)
	}
	p.free = append(p.free, x)
}

// poolSeedCap is a pool's first capacity: a pool that grew from one
// pointer would reallocate its slice at every doubling on the way to its
// high-water mark.
const poolSeedCap = 16
