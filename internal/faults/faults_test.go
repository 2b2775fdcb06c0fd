package faults

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The determinism contract: two injectors built from the same seed and plan
// make identical decisions call for call, and a different seed diverges.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{
		RPC:        {P: 0.5, Kinds: []Kind{Drop, Delay, Err5xx}, MaxDelay: 10 * time.Millisecond},
		StoreWrite: {P: 0.3, Kinds: []Kind{Torn}, TornAfter: 100},
	}
	a, b := New(7, plan), New(7, plan)
	diverged := false
	var faulted int
	for i := 0; i < 1000; i++ {
		for _, p := range []Point{RPC, StoreWrite} {
			fa, fb := a.At(p), b.At(p)
			if fa != fb {
				t.Fatalf("call %d at %s: seed-7 injectors disagree: %+v vs %+v", i, p, fa, fb)
			}
			if fa.Kind != None {
				faulted++
			}
		}
	}
	if faulted == 0 {
		t.Fatal("1000 calls at P=0.5/0.3 injected nothing")
	}
	// A different seed must produce a different schedule somewhere.
	c := New(8, plan)
	a2 := New(7, plan)
	for i := 0; i < 1000; i++ {
		if c.At(RPC) != a2.At(RPC) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical 1000-call schedules")
	}
	if a.Injected(RPC) == 0 || a.Injected(StoreWrite) == 0 {
		t.Fatalf("injected counters empty: rpc=%d store=%d", a.Injected(RPC), a.Injected(StoreWrite))
	}
}

// Injection rates should land near the plan's P — a sanity check that the
// fault coin is actually uniform over [0,1).
func TestInjectorRate(t *testing.T) {
	in := New(42, Plan{RPC: {P: 0.2, Kinds: []Kind{Drop}}})
	const n = 5000
	for i := 0; i < n; i++ {
		in.At(RPC)
	}
	got := float64(in.Injected(RPC)) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("P=0.2 injected at rate %.3f", got)
	}
}

// A nil injector is the production configuration: every decision is None and
// every counter is zero, with no allocations or panics.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if f := in.At(RPC); f.Kind != None {
		t.Fatalf("nil injector returned %+v", f)
	}
	if n := in.Injected(RPC); n != 0 {
		t.Fatalf("nil injector counted %d injections", n)
	}
	// Points absent from the plan never fault either.
	in2 := New(1, Plan{RPC: {P: 1, Kinds: []Kind{Drop}}})
	for i := 0; i < 100; i++ {
		if f := in2.At(StoreWrite); f.Kind != None {
			t.Fatalf("unplanned point faulted: %+v", f)
		}
	}
}

// Transport behaviour per kind, against a live httptest server.
func TestTransportKinds(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 4096))
	}))
	defer hs.Close()

	get := func(cl *http.Client) (*http.Response, []byte, error) {
		resp, err := cl.Get(hs.URL)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, rerr := io.ReadAll(resp.Body)
		return resp, b, rerr
	}

	t.Run("drop", func(t *testing.T) {
		in := New(1, Plan{RPC: {P: 1, Kinds: []Kind{Drop}}})
		cl := &http.Client{Transport: NewTransport(nil, in, RPC, "")}
		if _, _, err := get(cl); err == nil {
			t.Fatal("dropped request succeeded")
		} else if !strings.Contains(err.Error(), "connection dropped") {
			t.Fatalf("drop surfaced as %v", err)
		}
	})

	t.Run("err5xx", func(t *testing.T) {
		in := New(1, Plan{RPC: {P: 1, Kinds: []Kind{Err5xx}}})
		cl := &http.Client{Transport: NewTransport(nil, in, RPC, "")}
		resp, body, err := get(cl)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("injected 5xx arrived as %d", resp.StatusCode)
		}
		if string(body) != "fault injected\n" {
			t.Fatalf("injected body %q", body)
		}
	})

	t.Run("cut", func(t *testing.T) {
		in := New(1, Plan{Stream: {P: 1, Kinds: []Kind{Cut}, CutAfter: 100}})
		cl := &http.Client{Transport: NewTransport(nil, in, RPC, Stream)}
		_, body, err := get(cl)
		if err == nil {
			t.Fatal("cut stream read to EOF")
		}
		if !strings.Contains(err.Error(), "cut mid-flight") {
			t.Fatalf("cut surfaced as %v", err)
		}
		if len(body) >= 4096 {
			t.Fatalf("cut let all %d bytes through", len(body))
		}
	})

	t.Run("delay", func(t *testing.T) {
		in := New(1, Plan{RPC: {P: 1, Kinds: []Kind{Delay}, MaxDelay: 5 * time.Millisecond}})
		cl := &http.Client{Transport: NewTransport(nil, in, RPC, "")}
		resp, body, err := get(cl)
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != 4096 {
			t.Fatalf("delayed request: %v status=%v len=%d", err, resp, len(body))
		}
	})

	t.Run("delay-cancelled", func(t *testing.T) {
		in := New(1, Plan{RPC: {P: 1, Kinds: []Kind{Delay}, MaxDelay: 10 * time.Second}})
		cl := &http.Client{Transport: NewTransport(nil, in, RPC, "")}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL, nil)
		if _, err := cl.Do(req); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled delay returned %v", err)
		}
	})
}
