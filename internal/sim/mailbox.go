package sim

// ShardHinted is implemented by typed events (and by Sinks reached through
// ScheduleDeliver) that carry a stable shard-affinity key: a small integer
// naming the simulated unit the event belongs to — a frontend module, a
// worker core, a memory bank, a ring segment. The sharded engine maps the
// key onto a shard (key mod shard count), so all of a module's staged
// events live in one shard's calendar queue, mirroring the conservative-
// PDES partition of the machine. Events without a hint are striped
// deterministically by their schedule sequence number.
//
// The hint is pure placement: it decides which shard does the queue
// bookkeeping for the event, never when or in what order the event fires,
// so an affinity change can never alter simulation results.
type ShardHinted interface {
	ShardKey() uint32
}

// outbox buffers cells routed to one shard between flushes. The committer
// owns it; flushing appends into the shard's inbox under its mutex and
// pokes the shard to absorb concurrently with the commit loop.
type outbox struct {
	cells []cell
}

// outboxFlushLen is the batch size at which a shard's outbox is pushed to
// its inbox mid-window. Large enough that the mutex and wakeup amortize,
// small enough that shards see staging work well before the barrier.
const outboxFlushLen = 128

// shardFor places a cell: events and delivery sinks that carry a ShardKey
// go to their module's shard; everything else (closures included) stripes
// by seq. Placement is a pure function of the cell — never of goroutine
// timing — which keeps every queue state on the sharded path deterministic.
func (p *parRun) shardFor(c *cell) int {
	key := uint32(c.seq)
	switch h := c.ev.(type) {
	case *deliverEvent:
		// Pooled deliveries inherit the affinity of the module they
		// deliver to, when it has one.
		if sh, ok := h.sink.(ShardHinted); ok {
			key = sh.ShardKey()
		}
	case ShardHinted:
		key = h.ShardKey()
	}
	return int(key % uint32(len(p.out)))
}

// route is the sharded engine's schedule path: cells below the commit
// horizon go to the committer's overlay queue (they may have to fire in the
// window being committed right now); cells at or beyond it are staged in
// their shard's calendar queue via the outbox.
func (p *parRun) route(c cell) {
	e := p.e
	if c.at < p.horizon {
		e.q.schedule(c)
		// Keep the cached overlay head exact: a new cell can only take
		// the head by strictly earlier (at, seq) — equal cycles lose on
		// seq, which grows monotonically.
		if !p.ovOK || c.at < p.ovAt {
			p.ovAt, p.ovSeq, p.ovOK = c.at, c.seq, true
		}
		return
	}
	if c.at < p.routedMin {
		p.routedMin = c.at
	}
	e.extPending++
	sid := p.shardFor(&c)
	ob := &p.out[sid]
	ob.cells = append(ob.cells, c)
	if len(ob.cells) >= outboxFlushLen {
		ob.cells = p.flush(e.shards[sid], ob.cells)
	}
}

// flush hands an outbox batch to a shard's inbox and wakes the shard. The
// committer keeps (and reuses) its buffer; the copy runs outside any hot
// per-event path.
func (p *parRun) flush(s *shard, cells []cell) []cell {
	s.mu.Lock()
	s.inbox = append(s.inbox, cells...)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default: // a wakeup is already pending; absorption drains everything
	}
	for i := range cells {
		cells[i] = cell{}
	}
	return cells[:0]
}
