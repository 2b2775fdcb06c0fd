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
// The input queue is a FIFO, which compacts its consumed prefix before it
// grows, so a server that stays busy for a whole run stops allocating once
// its queue reaches its high-water mark. The server is itself the Event
// that drives its dispatch, so a warm server enqueues and services messages
// without allocating. Server[any] satisfies Sink, which lets the NoC
// deliver straight into the queue.
type Server[M any] struct {
	eng  *Engine
	name string
	h    func(M) Cycle

	busy  bool
	queue FIFO[M]

	// Stats.
	served    uint64
	busyTotal Cycle
	maxQueue  int
}

// NewServer creates a serial server driven by eng. handler processes one
// message and returns the number of cycles the unit is occupied by it.
func NewServer[M any](eng *Engine, name string, handler func(M) Cycle) *Server[M] {
	return &Server[M]{eng: eng, name: name, h: handler}
}

// Name returns the diagnostic name of the server.
func (s *Server[M]) Name() string { return s.name }

// Submit enqueues a message for processing. Messages are processed in FIFO
// order; the handler for a message runs when the unit becomes free.
func (s *Server[M]) Submit(m M) {
	if s.enqueue(m) {
		s.eng.ScheduleEvent(0, s)
	}
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
