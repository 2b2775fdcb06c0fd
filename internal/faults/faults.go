// Package faults is a deterministic, seeded fault-injection layer for the
// service's chaos harness.
//
// An Injector is created from a seed and a Plan: per injection Point, the
// probability that a call faults and the mix of fault Kinds it draws from.
// Every decision is a pure function of (seed, point, call index) — no global
// randomness, no time — so a chaos schedule replays identically from its
// seed: the Nth store write under seed 7 is torn on every run, or never.
//
// The package knows nothing about the service; callers thread an Injector
// through the seams they want to shake. Transport wraps an
// http.RoundTripper so every dispatcher→worker request (and the SSE relay
// stream riding on it) can be dropped, delayed, answered with a synthetic
// 5xx, or cut mid-stream; the persistent result store consults StoreWrite to
// tear a write short, modeling a crash between write and fsync. Process-level
// events (killing a worker, crashing the dispatcher) are orchestrated by the
// harness itself from the same seed — an injector cannot kill its host.
//
// A nil *Injector is valid everywhere and injects nothing, so production
// paths pay one nil check.
package faults

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// None: the call proceeds untouched.
	None Kind = iota
	// Drop fails the operation outright, as a severed connection would
	// (surfaces to http.Client callers as a transport error).
	Drop
	// Delay stalls the operation for a seeded duration within the point's
	// MaxDelay, then lets it proceed.
	Delay
	// Err5xx answers the request with a synthetic 500 before it reaches the
	// server — the shape of a dying proxy or an OOM-killed peer.
	Err5xx
	// Cut truncates the response body after a seeded number of bytes —
	// mid-stream for SSE, mid-payload for JSON — and then errors the read.
	Cut
	// Torn truncates a write to a seeded prefix, modeling a crash after the
	// write started but before it (and its fsync) completed.
	Torn
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Err5xx:
		return "5xx"
	case Cut:
		return "cut"
	case Torn:
		return "torn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Point names one injection seam. Decisions are independent per point: each
// keeps its own call counter, so adding traffic at one point never perturbs
// the fault schedule of another.
type Point string

const (
	// RPC is consulted once per dispatcher→worker HTTP request.
	RPC Point = "rpc"
	// Stream is consulted once per dispatcher→worker HTTP response and cuts
	// its body (the SSE relay is the interesting victim).
	Stream Point = "stream"
	// StoreWrite is consulted once per persistent-store envelope write.
	StoreWrite Point = "store.write"
)

// Spec is one point's fault mix.
type Spec struct {
	// P is the probability in [0,1] that a call at this point faults.
	P float64
	// Kinds is the set a faulting call draws from, uniformly. Empty means
	// the point never faults regardless of P.
	Kinds []Kind
	// MaxDelay bounds Delay faults (default 20ms).
	MaxDelay time.Duration
	// CutAfter bounds how many body bytes a Cut lets through (default 1024;
	// the actual count is seeded in [0, CutAfter)).
	CutAfter int
	// TornAfter bounds how many bytes a Torn write keeps (default 64; the
	// actual prefix is seeded in [0, TornAfter)).
	TornAfter int
}

// Plan maps each injection point to its fault mix. Points absent from the
// plan never fault.
type Plan map[Point]Spec

// Fault is one injection decision.
type Fault struct {
	Kind Kind
	// Delay is the stall for Delay faults.
	Delay time.Duration
	// After is the byte prefix for Cut and Torn faults.
	After int
}

// Injector makes deterministic fault decisions. Safe for concurrent use; a
// nil *Injector never faults.
type Injector struct {
	seed uint64
	plan Plan

	mu       sync.Mutex
	calls    map[Point]uint64
	injected map[Point]uint64
}

// New returns an injector whose decisions are a pure function of seed and
// the per-point call index.
func New(seed int64, plan Plan) *Injector {
	return &Injector{
		seed:     uint64(seed),
		plan:     plan,
		calls:    make(map[Point]uint64),
		injected: make(map[Point]uint64),
	}
}

// splitmix64 is the SplitMix64 mixer: a bijective avalanche over uint64,
// here used to hash (seed, point, call index) into decision bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashPoint folds a point name into the seed stream.
func hashPoint(p Point) uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// At makes the decision for the next call at point p. Each call consumes one
// index, whether or not it faults.
func (in *Injector) At(p Point) Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	n := in.calls[p]
	in.calls[p] = n + 1
	in.mu.Unlock()

	spec, ok := in.plan[p]
	if !ok || spec.P <= 0 || len(spec.Kinds) == 0 {
		return Fault{}
	}
	// Three independent streams from one (seed, point, index) state: the
	// fault coin, the kind pick, and the kind's magnitude.
	s := splitmix64(in.seed ^ hashPoint(p) ^ (n * 0x9e3779b97f4a7c15))
	r1 := splitmix64(s)
	r2 := splitmix64(r1)
	r3 := splitmix64(r2)

	if float64(r1>>11)/float64(1<<53) >= spec.P {
		return Fault{}
	}
	f := Fault{Kind: spec.Kinds[r2%uint64(len(spec.Kinds))]}
	switch f.Kind {
	case Delay:
		max := spec.MaxDelay
		if max <= 0 {
			max = 20 * time.Millisecond
		}
		f.Delay = time.Duration(r3 % uint64(max))
	case Cut:
		max := spec.CutAfter
		if max <= 0 {
			max = 1024
		}
		f.After = int(r3 % uint64(max))
	case Torn:
		max := spec.TornAfter
		if max <= 0 {
			max = 64
		}
		f.After = int(r3 % uint64(max))
	}
	in.mu.Lock()
	in.injected[p]++
	in.mu.Unlock()
	return f
}

// Injected reports how many calls at p actually faulted — the harness's
// evidence that a schedule exercised the seam at all.
func (in *Injector) Injected(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected[p]
}

// Transport wraps an http.RoundTripper with fault injection: Point is
// consulted per request (Drop, Delay, Err5xx), StreamPoint — when set — per
// response, to Cut its body. A zero Base uses http.DefaultTransport.
type Transport struct {
	Base        http.RoundTripper
	In          *Injector
	Point       Point
	StreamPoint Point
}

// NewTransport builds a fault-injecting transport over base (nil =
// http.DefaultTransport). stream may be empty to leave response bodies
// untouched.
func NewTransport(base http.RoundTripper, in *Injector, p, stream Point) *Transport {
	return &Transport{Base: base, In: in, Point: p, StreamPoint: stream}
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// droppedError marks an injected connection drop; it satisfies net-style
// temporariness checks only by being a generic transport error.
type droppedError struct{ p Point }

func (e droppedError) Error() string { return fmt.Sprintf("faults: %s connection dropped", e.p) }

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch f := t.In.At(t.Point); f.Kind {
	case Drop:
		return nil, droppedError{t.Point}
	case Err5xx:
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 Internal Server Error (injected)",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain"}},
			Body:    io.NopCloser(strings.NewReader("fault injected\n")),
			Request: req,
		}, nil
	case Delay:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(f.Delay):
		}
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil || t.StreamPoint == "" {
		return resp, err
	}
	if f := t.In.At(t.StreamPoint); f.Kind == Cut {
		resp.Body = &cutBody{rc: resp.Body, left: f.After, p: t.StreamPoint}
	}
	return resp, nil
}

// cutBody lets `left` bytes through, then errors every read — a stream
// severed mid-flight.
type cutBody struct {
	rc   io.ReadCloser
	left int
	p    Point
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, fmt.Errorf("faults: %s stream cut mid-flight", b.p)
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	if err == nil && b.left <= 0 {
		err = fmt.Errorf("faults: %s stream cut mid-flight", b.p)
	}
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }
