package sim

import "sync"

// shard is one goroutine-owned slice of the pending-event set. Each shard
// runs its own calendar queue: modules (or, for unhinted events, a
// deterministic seq stripe) are mapped onto shards, and every event bound
// for a shard's modules at or beyond the commit horizon is staged in that
// shard's queue instead of the committer's.
//
// The shard goroutine does the queue bookkeeping the serial engine pays on
// its critical path — calendar-bucket inserts, occupancy scans, far-heap
// sifts — concurrently with the committer's merge-and-fire loop:
//
//   - absorb: cross-shard event batches arrive in the inbox (mutex-guarded
//     double buffer) and are folded into the calendar queue while the
//     committer is still firing the current window;
//   - drain: at each window barrier the shard pops everything below the new
//     horizon into a reusable batch, already in (cycle, seq) order because
//     the calendar queue pops in exactly that order, and reports the
//     timestamp of its earliest remaining event for horizon planning.
//
// Shard state is touched by the shard goroutine only; the committer
// communicates exclusively through the inbox mutex and the cmd/reply
// channels, whose sends/receives provide the happens-before edges that make
// the batch and buffer hand-offs race-free.
type shard struct {
	id int
	q  calQueue

	// inbox receives cross-shard cells from the committer mid-window;
	// spare is the second half of the double buffer so absorption swaps
	// slices instead of copying under the lock.
	mu    sync.Mutex
	inbox []cell
	spare []cell

	// notify wakes the shard for an asynchronous absorb (capacity 1:
	// coalescing repeated pokes is fine, absorption is idempotent).
	notify chan struct{}
	// cmd carries window barriers and shutdown; reply returns the drained
	// batch. Both are capacity 1 so a barrier round-trip never blocks the
	// peer on an unbuffered rendezvous.
	cmd   chan shardCmd
	reply chan shardReply

	// batch holds the events drained for the current window, in (at, seq)
	// order. Owned by the shard during drain, read by the committer
	// between reply and the next cmd, then reused.
	batch []cell
}

// shardCmd is a window barrier (drain everything below horizon) or, when
// exit is set, a shutdown request. cells carries the committer's final
// outbox flush for this shard; the buffer is handed back through the reply
// for reuse.
type shardCmd struct {
	horizon Cycle
	cells   []cell
	exit    bool
}

// shardReply reports one drained window: the batch of cells below the
// horizon, the earliest timestamp still pending in the shard's queue (ok
// reports whether any), and the returned flush buffer.
type shardReply struct {
	batch  []cell
	nextAt Cycle
	ok     bool
	cells  []cell
}

func newShard(id int) *shard {
	return &shard{
		id:     id,
		notify: make(chan struct{}, 1),
		cmd:    make(chan shardCmd, 1),
		reply:  make(chan shardReply, 1),
	}
}

// loop is the shard goroutine body. It exits on an exit command; the
// engine's run WaitGroup observes the departure, so a sharded run never
// returns with its workers still alive.
func (s *shard) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-s.notify:
			s.absorb()
		case c := <-s.cmd:
			if c.exit {
				return
			}
			for i := range c.cells {
				s.q.schedule(c.cells[i])
				c.cells[i] = cell{}
			}
			s.absorb()
			s.drain(c.horizon)
			nextAt, ok := s.q.peekAt()
			s.reply <- shardReply{batch: s.batch, nextAt: nextAt, ok: ok, cells: c.cells[:0]}
		}
	}
}

// absorb folds the inbox into the calendar queue. A stale notify after a
// barrier already absorbed is harmless: the swapped-in buffer is empty.
func (s *shard) absorb() {
	s.mu.Lock()
	cells := s.inbox
	s.inbox = s.spare[:0]
	s.mu.Unlock()
	for i := range cells {
		s.q.schedule(cells[i])
		cells[i] = cell{} // drop the event reference from the buffer
	}
	s.spare = cells[:0]
}

// drain pops every event below horizon into the batch. The calendar queue
// yields exact (at, seq) order, so the batch is born sorted and the
// committer's merge needs only head comparisons.
func (s *shard) drain(horizon Cycle) {
	s.batch = s.batch[:0]
	for {
		at, ok := s.q.peekAt()
		if !ok || at >= horizon {
			return
		}
		c, _ := s.q.pop()
		s.batch = append(s.batch, c)
	}
}
