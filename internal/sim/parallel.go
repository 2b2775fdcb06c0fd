package sim

import "context"

// Sharded execution.
//
// The engine can partition its pending-event set across N goroutine-owned
// shards (SetShards), each running a private calendar queue. Execution
// proceeds in commit windows: at a window barrier every shard drains its
// events below the new horizon into a sorted batch (in parallel with its
// peers), and the committer — the goroutine that called Run — k-way merges
// the batches with its own overlay queue and fires events in the exact
// global (cycle, seq) order the serial engine would use. Events scheduled
// by firing handlers route by shard affinity: below the horizon they join
// the committer's overlay (they may belong to the window being committed),
// at or beyond it they are staged to their shard's queue through batched
// mailboxes that the shard absorbs concurrently with the commit loop.
//
// Determinism is structural, not incidental: handlers only ever run on the
// committer goroutine, in a total order that is a pure function of
// (cycle, seq) — never of goroutine arrival — and sequence numbers are
// assigned by the committer in fire order, exactly as the serial loop
// assigns them. A sharded run is therefore bit-for-bit identical to the
// serial run at every shard count; the parallelism lives in the queue
// bookkeeping (calendar inserts, occupancy scans, far-heap sifts, window
// drains), which shards perform off the commit path. This is the
// "speculate-then-commit-in-order" fallback of conservative PDES: with
// zero-delay intra-module events the model's true lookahead is zero, so
// rather than relaxing the event order the engine stages speculatively and
// commits conservatively.

const (
	// DefaultShardWindow is the commit-window length in simulated cycles
	// when SetShards is given zero: long enough that barrier round-trips
	// amortize over hundreds of events, short enough that staged events
	// reach their shards well before they are needed back.
	DefaultShardWindow Cycle = 1024

	// MaxShards bounds the shard count; beyond this the per-barrier fan-out
	// costs more than any queue-work parallelism can return.
	MaxShards = 64
)

// SetShards configures sharded execution for subsequent Run/RunContext
// calls: n worker shards (n <= 1 restores the serial loop) and the commit
// window in cycles (0 selects DefaultShardWindow). Shard workers are
// spawned when a run starts and joined before it returns — an idle engine
// owns no goroutines. Sharding is an observer: it never changes simulated
// results, only which goroutine performs queue bookkeeping. SetShards must
// not be called while a run is in progress.
func (e *Engine) SetShards(n int, window Cycle) {
	if e.par != nil {
		panic("sim: SetShards during an active run")
	}
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	if window == 0 {
		window = DefaultShardWindow
	}
	if n != e.nshards {
		e.shards = nil // rebuilt (empty) on the next sharded run
	}
	e.nshards = n
	e.window = window
}

// Shards reports the configured shard count (1 means serial).
func (e *Engine) Shards() int {
	if e.nshards < 1 {
		return 1
	}
	return e.nshards
}

// parRun is the committer's per-run view of the sharded machinery. It is
// embedded in the engine and reused across runs so a warm engine starts a
// sharded run without allocating.
type parRun struct {
	e       *Engine
	horizon Cycle // end (exclusive) of the window being committed

	// routedMin tracks the earliest timestamp routed to any outbox since
	// the last barrier; it joins the shard minima and the overlay head in
	// the next horizon computation, so no staged event can be skipped.
	routedMin Cycle

	out []outbox // per-shard staging buffers (committer-owned)

	// Per-shard merge state for the current window.
	cur    [][]cell // drained batches, consumed front to back
	curIdx []int
	pendAt []Cycle // earliest event left in each shard's queue…
	pendOK []bool  // …and whether there is one

	// Cached overlay head, kept exact so the merge loop pays one compare
	// per event instead of a calendar-queue probe.
	ovAt  Cycle
	ovSeq uint64
	ovOK  bool
}

const noCycle = ^Cycle(0)

// startShards lazily builds the shard set and spawns one goroutine per
// shard for this run.
func (e *Engine) startShards() {
	n := e.nshards
	if e.shards == nil {
		e.shards = make([]*shard, n)
		for i := range e.shards {
			e.shards[i] = newShard(i)
		}
		e.parState = parRun{
			e:      e,
			out:    make([]outbox, n),
			cur:    make([][]cell, n),
			curIdx: make([]int, n),
			pendAt: make([]Cycle, n),
			pendOK: make([]bool, n),
		}
	}
	e.parWG.Add(n)
	for _, s := range e.shards {
		go s.loop(&e.parWG)
	}
}

// stopShards asks every shard goroutine to exit and joins them. Pending
// staged events (only present when a run was cancelled) stay in the shard
// queues; the caller abandons the engine in that case.
func (e *Engine) stopShards() {
	for _, s := range e.shards {
		s.cmd <- shardCmd{exit: true}
	}
	e.parWG.Wait()
}

// refreshOverlayHead re-probes the overlay queue after a pop or a barrier.
func (p *parRun) refreshOverlayHead() {
	p.ovAt, p.ovSeq, p.ovOK = p.e.q.peek()
}

// runSharded is the sharded counterpart of Run/RunContext. ctx may be nil
// (plain Run); checkEvery follows RunContext's contract. It always joins
// its shard goroutines before returning, whether the run completes, is
// cancelled, or panics.
func (e *Engine) runSharded(ctx context.Context, checkEvery Cycle) (Cycle, error) {
	if e.par != nil {
		panic("sim: nested Run on a sharded engine")
	}
	cancellable := ctx != nil && ctx.Done() != nil
	if cancellable {
		if checkEvery == 0 {
			checkEvery = DefaultCancelCheckCycles
		}
		if err := ctx.Err(); err != nil {
			return e.now, err
		}
	}

	e.startShards()
	p := &e.parState
	for s := range p.pendOK {
		p.pendOK[s] = false
	}
	p.routedMin = noCycle
	e.par = p
	defer func() {
		e.par = nil
		e.stopShards()
	}()

	nextCheck := e.now + checkEvery
	shards := e.shards
	for {
		// Plan the next window: the earliest pending event anywhere —
		// overlay, shard queues (as last reported), or cells routed since
		// the last barrier — opens it; nothing pending ends the run.
		gmin, any := noCycle, false
		if at, ok := e.q.peekAt(); ok {
			gmin, any = at, true
		}
		for s := range p.pendOK {
			if p.pendOK[s] && p.pendAt[s] < gmin {
				gmin, any = p.pendAt[s], true
			}
		}
		if p.routedMin != noCycle && p.routedMin < gmin {
			gmin, any = p.routedMin, true
		}
		if !any {
			return e.now, nil
		}
		p.horizon = gmin + e.window
		p.routedMin = noCycle

		// Barrier: final-flush each outbox with the drain command, then
		// collect the sorted batches. Shards drain concurrently.
		for s, sh := range shards {
			sh.cmd <- shardCmd{horizon: p.horizon, cells: p.out[s].cells}
		}
		for s, sh := range shards {
			r := <-sh.reply
			p.cur[s], p.curIdx[s] = r.batch, 0
			p.pendAt[s], p.pendOK[s] = r.nextAt, r.ok
			p.out[s].cells = r.cells
		}
		p.refreshOverlayHead()

		// Commit: merge the shard batches and the overlay and fire in
		// global (cycle, seq) order until the window is exhausted.
		for {
			best, bc := -1, (*cell)(nil)
			for s := range p.cur {
				if p.curIdx[s] < len(p.cur[s]) {
					c := &p.cur[s][p.curIdx[s]]
					if bc == nil || cellBefore(c, bc) {
						best, bc = s, c
					}
				}
			}
			fromOverlay := p.ovOK && p.ovAt < p.horizon &&
				(bc == nil || p.ovAt < bc.at || (p.ovAt == bc.at && p.ovSeq < bc.seq))
			if fromOverlay {
				c, _ := e.q.pop()
				e.now = c.at
				e.fire++
				p.refreshOverlayHead()
				c.ev.Fire()
			} else if bc != nil {
				c := *bc
				*bc = cell{}
				p.curIdx[best]++
				e.extPending--
				e.now = c.at
				e.fire++
				c.ev.Fire()
			} else {
				break // window committed
			}
			if cancellable && e.now >= nextCheck {
				if err := ctx.Err(); err != nil {
					return e.now, err
				}
				nextCheck = e.now + checkEvery
			}
		}
	}
}
