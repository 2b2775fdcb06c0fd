package core

import (
	"testing"

	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// lazyStream materializes tasks on demand and counts how many the generator
// has pulled (so tests can observe back-pressure reaching the stream).
type lazyStream struct {
	total  int
	pulled int
	addr   taskmodel.Addr
}

func (s *lazyStream) Next() *taskmodel.Task {
	if s.pulled >= s.total {
		return nil
	}
	s.pulled++
	s.addr += 0x1000
	return &taskmodel.Task{
		Runtime:  1000,
		Seq:      uint64(s.pulled - 1),
		Operands: []taskmodel.Operand{{Base: s.addr, Size: 4096, Dir: taskmodel.InOut}},
	}
}

// stalledBackend accepts ready tasks but never finishes them, freezing the
// pipeline so the task window can only fill.
type stalledBackend struct {
	node  noc.NodeID
	ready int
}

func (b *stalledBackend) Node() noc.NodeID        { return b.node }
func (b *stalledBackend) TaskReady(rt *ReadyTask) { b.ready++ }

// TestGeneratorBackPressureStalledPipeline checks that a stalled pipeline
// propagates back-pressure all the way to the task stream: with a tiny TRS
// and a gateway buffer that holds four tasks, the generator must stop
// pulling after a bounded prefix of an arbitrarily long stream.
func TestGeneratorBackPressureStalledPipeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumTRS = 1
	cfg.NumORT = 1
	cfg.TRSBytesEach = 16 * 128  // 16 blocks -> at most 16 single-operand tasks
	cfg.GatewayBufBytes = 4 * 24 // four single-operand tasks (taskBytes)

	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	genNode := net.AddCore("generator")
	fe := New(eng, net, cfg, NewNullCopyEngine(eng))
	sb := &stalledBackend{node: net.AddGlobalNode("stalled-backend")}
	fe.SetDispatcher(sb)
	net.Build()

	st := &lazyStream{total: 10_000}
	gen := NewGenerator(fe, genNode, st)
	gen.Start()
	eng.Run() // quiesces once the generator blocks on the full window

	if gen.Done() {
		t.Fatal("generator claims the stream is exhausted")
	}
	// Window arithmetic: 16 TRS slots + 4 gateway tasks + 1 held by the
	// blocked generator, plus a little pipelining slack.
	if st.pulled >= 60 {
		t.Fatalf("stalled pipeline let the generator pull %d of %d tasks", st.pulled, st.total)
	}
	if st.pulled < 5 {
		t.Fatalf("generator barely progressed: pulled %d tasks", st.pulled)
	}
	if fe.gw.bufUsed > cfg.GatewayBufBytes {
		t.Fatalf("gateway buffer holds %d bytes, capacity is %d", fe.gw.bufUsed, cfg.GatewayBufBytes)
	}
}
