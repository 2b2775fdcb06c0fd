package sim

// Server models a hardware unit that processes one message at a time.
//
// Each pipeline module in the paper (gateway, TRS, ORT, OVT) has a single
// controller: messages queue at the module and are serviced serially, each
// charging a processing cost (16 cycles per packet, multiplied by the number
// of operands involved) plus any eDRAM accesses (22 cycles each). Server
// captures exactly that: Submit enqueues work, the handler returns the
// service time, and the server stays busy for that long before dequeuing the
// next message.
//
// Messages are held by value: M is the module's one message type, so the
// input queue stores each message in its own slot and a handler owns the
// copy it is given. The queue is a FIFO, which compacts its consumed prefix
// before it grows, so a server that stays busy for a whole run stops
// allocating once its queue reaches its high-water mark. The server is
// itself the Event that drives its dispatch, and Deliver hands out delivery
// events from the server's own pool, so a warm server receives, enqueues
// and services messages without allocating.
type Server[M any] struct {
	eng *Engine
	h   func(M) Cycle

	busy       bool
	queue      FIFO[M]
	deliveries Pool[delivery[M]]

	// Stats.
	served    uint64
	busyTotal Cycle
	maxQueue  int
}

// NewServer creates a serial server driven by eng. handler processes one
// message and returns the number of cycles the unit is occupied by it.
func NewServer[M any](eng *Engine, handler func(M) Cycle) *Server[M] {
	return &Server[M]{eng: eng, h: handler}
}

// Submit enqueues a message for processing. Messages are processed in FIFO
// order; the handler for a message runs when the unit becomes free.
func (s *Server[M]) Submit(m M) {
	if s.enqueue(m) {
		s.eng.ScheduleEvent(0, s)
	}
}

// Deliver returns an event that submits m when it fires. The event comes
// from the server's pool and returns to it on firing, so a steady-state
// delivery neither allocates nor builds a closure; the caller must schedule
// it (ScheduleEvent, or as a NoC send's completion) exactly once.
func (s *Server[M]) Deliver(m M) Event {
	d := s.deliveries.Get()
	d.srv, d.m = s, m
	return d
}

// delivery carries one message to its server.
type delivery[M any] struct {
	srv *Server[M]
	m   M
}

// Fire recycles the event before submitting, so the server's handler may
// immediately send further deliveries through the same pool.
//
// A delivery that wakes an idle server runs the server's dispatch step in
// place when nothing else is pending at this cycle. Submit would schedule
// that step at delay 0. A delivery fires as an event of its own or as the
// last action of the NoC hop event that carried it, and Submit is the last
// thing it does, so the step would be the very next event to fire: running
// it here moves nothing, and Fired counts it as the event it would have
// been. A Submit from inside a handler keeps scheduling, because the
// handler's code after the call must run before the woken server's.
func (d *delivery[M]) Fire() {
	s, m := d.srv, d.m
	var zero M
	d.m = zero // release references held by the message
	s.deliveries.Put(d)
	e := s.eng
	if e.q.idleAt(e.now) {
		if s.enqueue(m) {
			e.fire++
			s.Fire()
		}
		return
	}
	s.Submit(m)
}

// enqueue queues m and reports whether that woke the server from idle, in
// which case the caller owes it a dispatch step at the current cycle.
func (s *Server[M]) enqueue(m M) bool {
	s.queue.Push(m)
	if n := s.queue.Len(); n > s.maxQueue {
		s.maxQueue = n
	}
	if s.busy {
		return false
	}
	s.busy = true
	return true
}

// Fire implements Event: it is the server's dispatch step, scheduled by
// the server itself when it wakes and after each service time. It starts
// the next queued message, or goes idle when the queue is empty.
func (s *Server[M]) Fire() {
	if s.queue.Len() == 0 {
		s.busy = false
		return
	}
	m := s.queue.Pop()
	cost := s.h(m)
	s.served++
	s.busyTotal += cost
	s.eng.ScheduleEvent(cost, s)
}

// QueueLen returns the number of messages waiting (not including the one in
// service).
func (s *Server[M]) QueueLen() int { return s.queue.Len() }

// Served returns the number of messages fully processed.
func (s *Server[M]) Served() uint64 { return s.served }

// BusyCycles returns the cumulative cycles spent in service.
func (s *Server[M]) BusyCycles() Cycle { return s.busyTotal }

// MaxQueue returns the high-water mark of the input queue.
func (s *Server[M]) MaxQueue() int { return s.maxQueue }
