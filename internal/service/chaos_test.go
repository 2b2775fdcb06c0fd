package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"tasksuperscalar/internal/faults"
)

// The chaos suite: a 3-worker fleet with a journaled, disk-backed dispatcher
// runs a job load under a seeded fault schedule — dropped and delayed RPCs,
// synthetic 5xx, SSE streams cut mid-relay, torn store writes — plus a full
// dispatcher crash (Kill, not drain) and restart in the middle. The bar is
// absolute: every submitted job settles done, every result is byte-identical
// to the fault-free run, the conservation invariants hold on the surviving
// daemon, and the journal drains to zero live jobs.

// chaosPlan is the fault mix every seed runs under. Heartbeats are not an
// injection point: worker liveness flapping is a load balancer concern, not
// what this suite pins down.
func chaosPlan() faults.Plan {
	return faults.Plan{
		faults.RPC: {
			P:        0.15,
			Kinds:    []faults.Kind{faults.Drop, faults.Delay, faults.Err5xx},
			MaxDelay: 10 * time.Millisecond,
		},
		faults.Stream:     {P: 0.15, Kinds: []faults.Kind{faults.Cut}},
		faults.StoreWrite: {P: 0.2, Kinds: []faults.Kind{faults.Torn}},
	}
}

// chaosFleet keeps the dispatcher behind a stable URL across crash/restart
// generations: the proxy forwards to the current Server, and answers 503
// draining (a retryable envelope) while no generation is alive — exactly
// what a client of a crashed daemon sees before its supervisor restarts it.
type chaosFleet struct {
	t     *testing.T
	dir   string
	seed  int64
	proxy *httptest.Server

	mu  sync.Mutex
	cur *Server
}

func (cf *chaosFleet) dispatcherConfig() Config {
	return Config{
		Fleet:      true,
		JournalDir: filepath.Join(cf.dir, "journal"),
		CacheDir:   filepath.Join(cf.dir, "cache"),
		// chaosPlan fails about half of all worker attempts by design
		// (p ≈ 0.49–0.50 per attempt), so a 9-attempt budget ran out for
		// about one job in 600 (0.49^9 ≈ 1.7e-3); 24 attempts make that
		// 0.49^24 ≈ 4e-8.
		DispatchRetry:     RetryPolicy{Attempts: 24, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		NoWorkerWait:      20 * time.Second,
		BreakerCooldown:   100 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		Faults:            faults.New(cf.seed, chaosPlan()),
	}
}

func (cf *chaosFleet) current() *Server {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.cur
}

// crashRestart kills the current dispatcher generation mid-flight and brings
// up a successor on the same journal and store. The fault injector is fresh
// per generation (its call counters restart), which is what a real restart
// does too.
func (cf *chaosFleet) crashRestart() {
	cf.mu.Lock()
	old := cf.cur
	cf.cur = nil
	cf.mu.Unlock()
	old.Kill()
	next, err := New(cf.dispatcherConfig())
	if err != nil {
		cf.t.Errorf("restarting dispatcher: %v", err)
		return
	}
	cf.mu.Lock()
	cf.cur = next
	cf.mu.Unlock()
}

func startChaosFleet(t *testing.T, seed int64, nWorkers int) *chaosFleet {
	t.Helper()
	cf := &chaosFleet{t: t, dir: t.TempDir(), seed: seed}
	srv, err := New(cf.dispatcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	cf.cur = srv
	cf.proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := cf.current()
		if cur == nil {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, "dispatcher restarting")
			return
		}
		cur.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		cf.proxy.Close()
		if cur := cf.current(); cur != nil {
			cur.Close()
		}
	})

	// Workers register through HeartbeatLoop against the stable proxy URL:
	// heartbeats double as registration, so a restarted dispatcher
	// generation re-learns the whole fleet within one beat.
	hbCtx, hbCancel := context.WithCancel(context.Background())
	t.Cleanup(hbCancel)
	for i := 0; i < nWorkers; i++ {
		wsrv, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		whs := httptest.NewServer(wsrv.Handler())
		t.Cleanup(func() { whs.Close(); wsrv.Close() })
		go HeartbeatLoop(hbCtx, cf.proxy.URL, whs.URL, wsrv.Instance(), 20*time.Millisecond)
	}

	// Don't start the clock on the job load until at least one worker is in
	// the rotation.
	cl := NewClient(cf.proxy.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ws, err := cl.Workers(context.Background()); err == nil && len(ws) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker registered within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cf
}

// chaosClient is what a well-behaved caller of a crash-prone daemon looks
// like: a retry policy rides out transport faults and draining windows, and
// a 404 on a previously issued job ID — the daemon settled and forgot the
// job before crashing — is answered by resubmitting the spec, which content
// addressing makes exactly as safe as polling.
func chaosClient(proxy string) *Client {
	return NewClient(proxy, WithRetry(RetryPolicy{
		Attempts: 12, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond,
	}))
}

// settleJob polls id until it settles done and returns the result bytes,
// resubmitting spec if the ID was forgotten across a crash. Transient errors
// (mid-restart windows that outlast the client's own retry budget) are
// retried until the deadline.
func settleJob(ctx context.Context, cl *Client, spec *JobSpec, id string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s did not settle within 60s", id)
		}
		st, err := cl.Job(ctx, id)
		switch {
		case err != nil:
			var ae *APIError
			if errors.As(err, &ae) && ae.Code == CodeNotFound {
				ns, serr := cl.Submit(ctx, spec)
				if serr != nil {
					var sae *APIError
					if errors.As(serr, &sae) && !sae.Retryable {
						return nil, fmt.Errorf("resubmitting %s: %w", id, serr)
					}
					break // transient: retry the whole step
				}
				id = ns.ID
				continue
			}
			// Transient (restart window, injected fault run): retry.
		case terminalStatus(st.Status):
			if st.Status != StatusDone {
				return nil, fmt.Errorf("job %s settled %s: %s", id, st.Status, st.Error)
			}
			body, rerr := cl.Result(ctx, id)
			if rerr != nil {
				var ae *APIError
				if errors.As(rerr, &ae) && ae.Code == CodeNotFound {
					continue // settled and evicted mid-poll: resubmit path
				}
				break // transient: re-poll
			}
			return body, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runChaos drives one seeded schedule end to end and asserts the settle,
// byte-identity, conservation, and journal-drain bars.
func runChaos(t *testing.T, seed int64) {
	cf := startChaosFleet(t, seed, 3)
	ctx := context.Background()

	// 12 jobs over 8 distinct specs: the duplicates exercise coalescing and
	// cache hits under faults. Expected bytes come from a local fault-free
	// run — determinism makes them exact, not approximate.
	type tracked struct {
		spec *JobSpec
		want []byte
		id   string
		got  []byte
		err  error
	}
	jobs := make([]*tracked, 12)
	for i := range jobs {
		spec := quickSpec(int64(200 + i%8))
		want, err := RunSpec(mustNormalize(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = &tracked{spec: spec, want: want}
	}

	submit := func(j *tracked) {
		cl := chaosClient(cf.proxy.URL)
		st, err := cl.Submit(ctx, j.spec)
		if err != nil {
			j.err = fmt.Errorf("submit: %w", err)
			return
		}
		j.id = st.ID
	}

	// Batch 1 goes in, the dispatcher crashes with that load queued,
	// running, and partially settled, then batch 2 lands on the successor.
	for _, j := range jobs[:8] {
		submit(j)
	}
	time.Sleep(30 * time.Millisecond)
	cf.crashRestart()
	for _, j := range jobs[8:] {
		submit(j)
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		wg.Add(1)
		go func(j *tracked) {
			defer wg.Done()
			cl := chaosClient(cf.proxy.URL)
			j.got, j.err = settleJob(ctx, cl, j.spec, j.id)
		}(j)
	}
	wg.Wait()

	for i, j := range jobs {
		if j.err != nil {
			t.Errorf("job %d (%s): %v", i, j.id, j.err)
			continue
		}
		if !bytes.Equal(j.got, j.want) {
			t.Errorf("job %d (%s): result diverged from fault-free run (%d vs %d bytes)",
				i, j.id, len(j.got), len(j.want))
		}
	}
	if t.Failed() {
		return
	}

	// The surviving generation's books must balance: every accepted
	// submission (journal-replayed ones included) is in exactly one
	// terminal bucket, nothing is left in flight, and the journal holds no
	// live jobs.
	srv := cf.current()
	st := srv.Stats()
	buckets := st.Completed + st.Failed + st.Cancelled + st.Coalesced + st.CacheHits + st.DiskHits
	if buckets != st.Submitted || st.Inflight != 0 {
		t.Errorf("conservation: %d settled of %d submitted, %d inflight (%+v)",
			buckets, st.Submitted, st.Inflight, st)
	}
	if st.Journal == nil || st.Journal.Live != 0 {
		t.Errorf("journal not drained: %+v", st.Journal)
	}
	if st.Fleet != nil {
		var failures uint64
		for _, w := range st.Fleet.Workers {
			failures += w.Failures
		}
		if failures != st.Fleet.Retries+st.Fleet.Exhausted {
			t.Errorf("fleet conservation: worker failures %d != retries %d + exhausted %d",
				failures, st.Fleet.Retries, st.Fleet.Exhausted)
		}
	}
}

// TestChaosEveryJobSettles runs the fixed seed bank CI gates on. Each seed
// is an independent fleet, fault schedule, and crash.
func TestChaosEveryJobSettles(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	for _, seed := range []int64{11, 23, 37, 41, 59} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

// TestChaosRandomSeed is the randomized smoke: CI passes a fresh CHAOS_SEED
// so the fixed bank never fossilizes. A failing seed reproduces exactly by
// exporting the same value locally.
func TestChaosRandomSeed(t *testing.T) {
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		t.Skip("set CHAOS_SEED to run the randomized chaos smoke")
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED %q: %v", v, err)
	}
	runChaos(t, seed)
}
