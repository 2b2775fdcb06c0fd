package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tasksuperscalar/internal/service"
)

// fleetWorkers is the worker daemon count of every in-process fleet; each
// runs one job at a time. fleetClients bounds the closed-loop clients of
// fleet-jobs, each holding one connection; fewer run on a 1-CPU host.
const (
	fleetWorkers = 2
	fleetClients = 2
)

// fleetWorkloads are the Table I generators fleet-jobs draws sim specs from:
// two dependence-heavy kernels, the many-operand H264 and the wide Knn.
var fleetWorkloads = []string{"Cholesky", "FFT", "H264", "Knn"}

// fleet is an in-process tssd deployment over loopback: a dispatcher with a
// journal, a persistent result store and a small memory cache, plus worker
// daemons registered with it.
type fleet struct {
	disp  *service.Server
	dhs   *httptest.Server
	nodes []*service.Server
	nhs   []*httptest.Server
}

// startFleet starts a dispatcher whose journal and store live under dir.
func startFleet(dir string) (*fleet, error) {
	disp, err := service.New(service.Config{
		Fleet:        true,
		JournalDir:   filepath.Join(dir, "journal"),
		CacheDir:     filepath.Join(dir, "store"),
		CacheEntries: 64,
	})
	if err != nil {
		return nil, fmt.Errorf("starting dispatcher: %w", err)
	}
	f := &fleet{disp: disp, dhs: httptest.NewServer(disp.Handler())}
	cl := service.NewClient(f.dhs.URL)
	for i := 0; i < fleetWorkers; i++ {
		node, err := service.New(service.Config{Workers: 1})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting worker: %w", err)
		}
		f.nodes = append(f.nodes, node)
		f.nhs = append(f.nhs, httptest.NewServer(node.Handler()))
		if _, err := cl.JoinWorker(context.Background(), f.nhs[i].URL); err != nil {
			f.close()
			return nil, fmt.Errorf("joining worker: %w", err)
		}
	}
	return f, nil
}

// client returns a client with a connection pool of one, so each client
// goroutine holds at most one connection.
func (f *fleet) client() (*service.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return service.NewClient(f.dhs.URL, service.WithHTTPClient(&http.Client{Transport: tr})), tr
}

// close stops the dispatcher first (it drains its dispatches), then the
// workers.
func (f *fleet) close() {
	f.dhs.Close()
	f.disp.Close()
	for i, node := range f.nodes {
		f.nhs[i].Close()
		node.Close()
	}
}

// conserved reports the /stats conservation invariant: every accepted
// submission settled exactly once and nothing is in flight.
func conserved(st *service.ServerStats) bool {
	return st.Inflight == 0 && st.Submitted ==
		st.Completed+st.Failed+st.Cancelled+st.Coalesced+st.CacheHits+st.DiskHits
}

// settle polls /stats until it is conserved, for at most 2 s, and returns
// the time of the read that found it so. A settled job can be visible to its
// client before /stats counts it, so the gap is measured, never slept away.
// The pause between polls starts at 1 ms and grows to 10 ms, so the poller
// does not take a CPU from the dispatcher goroutines it waits for.
func (f *fleet) settle(ctx context.Context, cl *service.Client) (*service.ServerStats, time.Time, error) {
	limit := time.Now().Add(2 * time.Second)
	pause := time.Millisecond
	for {
		st, err := cl.Stats(ctx)
		read := time.Now()
		if err != nil {
			return nil, read, fmt.Errorf("reading /stats: %w", err)
		}
		if conserved(st) {
			return st, read, nil
		}
		if read.After(limit) {
			return st, read, fmt.Errorf("/stats not conserved after 2s: submitted=%d completed=%d failed=%d cancelled=%d coalesced=%d cache_hits=%d disk_hits=%d inflight=%d",
				st.Submitted, st.Completed, st.Failed, st.Cancelled, st.Coalesced, st.CacheHits, st.DiskHits, st.Inflight)
		}
		time.Sleep(pause)
		pause = min(2*pause, 10*time.Millisecond)
	}
}

// jobTiming is one submission's client-side timeline: Submit called and
// returned, the SSE status:running and result events, and Wait returned.
type jobTiming struct {
	start, submitted, running, resulted, end time.Time
	accepted, final                          *service.SubmitStatus
}

func (t jobTiming) ms() float64 { return ms(t.end.Sub(t.start)) }

// class names how the job was answered.
func (t jobTiming) class() string {
	switch {
	case t.accepted.Cached:
		return "mem-hit"
	case t.accepted.Coalesced:
		return "coalesced"
	case t.final.Cached:
		return "disk-hit"
	}
	return "cold"
}

// submitAndWait submits spec, follows its event stream to the end and
// records the job's phases as spans of op.
func submitAndWait(ctx context.Context, cl *service.Client, tr *tracer, op int, spec *service.JobSpec) (jobTiming, error) {
	t := jobTiming{start: time.Now()}
	st, err := cl.Submit(ctx, spec)
	t.submitted = time.Now()
	if err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	t.accepted = st
	fin, err := cl.Wait(ctx, st.ID, func(ev service.Event) {
		switch ev.Type {
		case "status":
			var s struct{ Status string }
			if t.running.IsZero() && json.Unmarshal(ev.Data, &s) == nil && s.Status == service.StatusRunning {
				t.running = time.Now()
			}
		case "result":
			t.resulted = time.Now()
		}
	})
	t.end = time.Now()
	if err != nil {
		return t, fmt.Errorf("wait %s: %w", st.ID, err)
	}
	t.final = fin
	if fin.Status != service.StatusDone {
		return t, fmt.Errorf("job %s ended %s: %s", fin.ID, fin.Status, fin.Error)
	}
	if tr != nil {
		job := tr.add(op, 0, "service.job", t.start, t.end)
		tr.add(op, job, "service.submit", t.start, t.submitted)
		if t.running.IsZero() || t.resulted.IsZero() {
			tr.add(op, job, "service.relay", t.submitted, t.end)
		} else {
			tr.add(op, job, "service.queue", t.submitted, t.running)
			tr.add(op, job, "service.run", t.running, t.resulted)
			tr.add(op, job, "service.relay", t.resulted, t.end)
		}
	}
	return t, nil
}

// serviceStats splits job latency into its client-visible phases.
type serviceStats struct {
	mu                                   sync.Mutex
	submit, queue, run, relay            []float64 // ms
	runspec, overhead                    []float64 // ms
	repeats, memHits, diskHits, coalesce int
}

// add records a finished job; repeat marks a key submitted before.
func (s *serviceStats) add(t jobTiming, repeat bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submit = append(s.submit, ms(t.submitted.Sub(t.start)))
	if !t.running.IsZero() && !t.resulted.IsZero() && t.class() == "cold" {
		s.queue = append(s.queue, ms(t.running.Sub(t.submitted)))
		s.run = append(s.run, ms(t.resulted.Sub(t.running)))
	}
	if !t.resulted.IsZero() {
		s.relay = append(s.relay, ms(t.end.Sub(t.resulted)))
	}
	if repeat {
		s.repeats++
		switch t.class() {
		case "mem-hit":
			s.memHits++
		case "disk-hit":
			s.diskHits++
		case "coalesced":
			s.coalesce++
		}
	}
}

// direct runs spec through service.RunSpec, checks the bytes against a
// job's result, and records the direct time and, for a cold job, the
// service's overhead over it.
func (s *serviceStats) direct(rep *report, spec *service.JobSpec, t jobTiming) {
	t0 := time.Now()
	want, err := service.RunSpec(spec)
	d := ms(time.Since(t0))
	switch {
	case err != nil:
		rep.op(fmt.Errorf("direct RunSpec: %w", err))
		return
	case !bytes.Equal([]byte(t.final.Result), want):
		rep.op(fmt.Errorf("job %s result differs from a direct RunSpec of its spec", t.final.ID))
	default:
		rep.op(nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runspec = append(s.runspec, d)
	if t.class() == "cold" {
		s.overhead = append(s.overhead, t.ms()-d)
	}
}

// report sets the service per-layer metrics.
func (s *serviceStats) report(rep *report, st *service.ServerStats, gap time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.set("service.submit_ms.p50", median(s.submit), len(s.submit), "p50")
	rep.set("service.queue_ms.p50", median(s.queue), len(s.queue), "p50 of cold jobs")
	rep.set("service.run_ms.p50", median(s.run), len(s.run), "p50 of cold jobs")
	rep.set("service.relay_ms.p50", median(s.relay), len(s.relay), "p50")
	rep.set("service.runspec_ms.p50", median(s.runspec), len(s.runspec), "p50")
	rep.set("service.overhead_ms.p50", median(s.overhead), len(s.overhead), "p50 of cold jobs")
	share := func(n int) float64 {
		if s.repeats == 0 {
			return 0
		}
		return float64(n) / float64(s.repeats)
	}
	rep.set("service.mem_hit_share", share(s.memHits), s.repeats, "of repeats")
	rep.set("service.disk_hit_share", share(s.diskHits), s.repeats, "of repeats")
	rep.set("service.coalesced_share", share(s.coalesce), s.repeats, "of repeats")
	rep.setExtra("service.reexecuted_share", "ratio", share(s.repeats-s.memHits-s.diskHits-s.coalesce), s.repeats, "of repeats")
	rep.setExtra("service.submit_ms.p99", "ms", quantile(s.submit, 0.99), len(s.submit), "p99")
	rep.setExtra("service.queue_ms.p95", "ms", quantile(s.queue, 0.95), len(s.queue), "p95 of cold jobs")
	rep.setExtra("service.run_ms.p95", "ms", quantile(s.run, 0.95), len(s.run), "p95 of cold jobs")
	retries := 0.0
	if st.Fleet != nil {
		retries = float64(st.Fleet.Retries)
	}
	rep.set("service.shard_points", float64(st.Shard.Points), 0, "all sweeps")
	rep.set("service.retries", retries, 0, "dispatch retries")
	rep.set("service.settle_gap_ms", ms(gap), 0, "last Wait to conserved /stats")
}

// fleetLoad is the state the fleet-jobs clients share.
type fleetLoad struct {
	r     *run
	f     *fleet
	hot   []*service.JobSpec
	stats serviceStats

	mu      sync.Mutex
	results map[string][32]byte // job key -> sha256 of its first result
}

// sample is a job kept for the direct-RunSpec check.
type sample struct {
	spec *service.JobSpec
	t    jobTiming
}

// clientLog is one client's own measurements. Each client keeps its own
// seeded samples, so the sampled set does not depend on how the clients
// interleave.
type clientLog struct {
	lat, cold, memHit, diskHit, sweeps []float64
	samples                            []sample
	last                               time.Time
}

// freshSpec draws a sim spec the fleet has almost surely never seen.
func (l *fleetLoad) freshSpec(rng *rand.Rand) *service.JobSpec {
	sc := l.r.sc
	wl := fleetWorkloads[rng.Intn(len(fleetWorkloads))]
	tasks := sc.fleetMinTasks + rng.Intn(sc.fleetMaxTasks-sc.fleetMinTasks+1)
	return simJob(wl, tasks, rng.Int63n(1<<40), sc.fleetCores, false)
}

// client runs one closed-loop client until the deadline: it sends its next
// job only after the previous one's Wait returned, like tssim -remote.
func (l *fleetLoad) client(id int, deadline time.Time, maxSamples int) *clientLog {
	sc := l.r.sc
	cl, tr := l.f.client()
	defer tr.CloseIdleConnections()
	specs := rand.New(rand.NewSource(l.r.seed*7919 + int64(id)))
	picks := rand.New(rand.NewSource(l.r.seed*104729 + int64(id)))
	var recent []*service.JobSpec // the client's last 256 sim specs
	log := &clientLog{}
	for n := 0; n < sc.minOps || time.Now().Before(deadline); n++ {
		var spec *service.JobSpec
		isSweep := id == 0 && (n+1)%sc.sweepEvery == 0
		if isSweep {
			spec = sweepJob(sc.fleetSweep, specs.Int63n(1<<40), sc.fleetCores, 1)
		} else {
			x := specs.Float64()
			switch {
			case x < 0.60 || len(recent) == 0:
				spec = l.freshSpec(specs)
			case x < 0.85:
				spec = recent[specs.Intn(len(recent))]
			default:
				spec = l.hot[specs.Intn(len(l.hot))]
			}
			if recent = append(recent, spec); len(recent) > 256 {
				recent = recent[1:]
			}
		}
		op := l.r.tr.newOp()
		t, err := submitAndWait(context.Background(), cl, l.r.tr, op, spec)
		log.last = t.end
		l.r.sampleRSS()
		if err == nil {
			err = l.record(spec, t, isSweep)
		}
		l.r.rep.op(err)
		if err != nil {
			continue
		}
		if picks.Intn(sc.sampleEvery) == 0 && len(log.samples) < maxSamples {
			log.samples = append(log.samples, sample{spec: spec, t: t})
		}
		if isSweep {
			log.sweeps = append(log.sweeps, t.ms())
			continue
		}
		log.lat = append(log.lat, t.ms())
		switch t.class() {
		case "cold":
			log.cold = append(log.cold, t.ms())
		case "mem-hit":
			log.memHit = append(log.memHit, t.ms())
		case "disk-hit":
			log.diskHit = append(log.diskHit, t.ms())
		}
	}
	return log
}

// record checks a finished job's result against the first result for its
// key and files its phases.
func (l *fleetLoad) record(spec *service.JobSpec, t jobTiming, isSweep bool) error {
	sum := sha256.Sum256(t.final.Result)
	key := t.accepted.Key
	l.mu.Lock()
	prev, repeat := l.results[key]
	if !repeat {
		l.results[key] = sum
	}
	l.mu.Unlock()
	if repeat && prev != sum {
		return fmt.Errorf("job %s: result differs from an earlier result for key %.12s", t.final.ID, key)
	}
	if !isSweep {
		l.stats.add(t, repeat)
	}
	return nil
}

// runFleetWorkload is fleet-jobs: closed-loop clients against an in-process
// tssd fleet, with a seeded mix of fresh, repeated and shared-hot specs and
// a periodic sharded sweep.
func runFleetWorkload(r *run) error {
	sc := r.sc
	warm := simJob("Cholesky", sc.fleetMinTasks, r.seed, sc.fleetCores, false)

	// Set-up is starting the dispatcher and workers, the workers joining,
	// and one warm-up job. Each set-up gets fresh journal and store
	// directories and replaces the previous fleet, so the last one started
	// before the window serves the load.
	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	var payload []byte
	started := 0
	setup := func() (time.Duration, error) {
		dir := filepath.Join(r.tmp, fmt.Sprintf("fleet-%d", started))
		started++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		nf, err := startFleet(dir)
		if err != nil {
			return 0, err
		}
		cl, tr := nf.client()
		t, err := submitAndWait(context.Background(), cl, nil, 0, warm)
		tr.CloseIdleConnections()
		d := time.Since(t0)
		r.rep.op(err)
		if err == nil {
			payload = t.final.Result
		}
		if f != nil {
			f.close()
		}
		f = nf
		return d, nil
	}
	var samples []sample
	window := func() error {
		var err error
		samples, err = runFleetLoad(r, f)
		f = nil // runFleetLoad closed it
		return err
	}
	if err := r.setups(sc.fleetSetupReps, setup, window); err != nil {
		return err
	}

	if r.tr == nil {
		return nil
	}
	in := layerInputs{machine: warm.Sim.Config(), sims: []simInput{specSim(warm)}, payload: payload}
	for _, s := range samples {
		if s.spec.Kind == service.KindSim && len(in.sims) < sc.probeSims {
			in.sims = append(in.sims, specSim(s.spec))
		}
	}
	return r.traceLayers(in)
}

// runFleetLoad runs the clients against f for the window, checks /stats,
// closes f, and checks the sampled results against direct runs, which it
// returns.
func runFleetLoad(r *run, f *fleet) ([]sample, error) {
	sc := r.sc
	hotRng := rand.New(rand.NewSource(r.seed))
	l := &fleetLoad{r: r, f: f, results: map[string][32]byte{}}
	for i := 0; i < 4; i++ {
		l.hot = append(l.hot, l.freshSpec(hotRng))
	}

	clients := min(fleetClients, runtime.NumCPU())
	logs := make([]*clientLog, clients)
	t0 := time.Now()
	deadline := t0.Add(r.window)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = l.client(i, deadline, sc.sampleMax/clients)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)

	var lat, cold, memHit, diskHit, sweeps []float64
	var samples []sample
	var lastWait time.Time
	for _, lg := range logs {
		samples = append(samples, lg.samples...)
		lat = append(lat, lg.lat...)
		cold = append(cold, lg.cold...)
		memHit = append(memHit, lg.memHit...)
		diskHit = append(diskHit, lg.diskHit...)
		sweeps = append(sweeps, lg.sweeps...)
		if lg.last.After(lastWait) {
			lastWait = lg.last
		}
	}
	r.setLatency(lat, wall, 0.95)
	r.rep.setExtra("latency_ms.p99", "ms", quantile(lat, 0.99), len(lat), "p99")
	r.rep.setExtra("cold_job_ms.p50", "ms", quantile(cold, 0.5), len(cold), "p50")
	r.rep.setExtra("cold_job_ms.p95", "ms", quantile(cold, 0.95), len(cold), "p95")
	r.rep.setExtra("hit_job_ms.p50", "ms", quantile(memHit, 0.5), len(memHit), "p50 of memory hits")
	r.rep.setExtra("hit_job_ms.p95", "ms", quantile(memHit, 0.95), len(memHit), "p95 of memory hits")
	r.rep.setExtra("disk_hit_job_ms.p50", "ms", quantile(diskHit, 0.5), len(diskHit), "p50")
	r.rep.setExtra("service.sweep_job_ms.p50", "ms", quantile(sweeps, 0.5), len(sweeps), "p50")

	statCl, statTr := f.client()
	st, settledAt, err := f.settle(context.Background(), statCl)
	statTr.CloseIdleConnections()
	r.rep.op(err)
	if st != nil {
		r.rep.check(st.Failed == 0 && st.Cancelled == 0, "/stats counts %d failed and %d cancelled jobs", st.Failed, st.Cancelled)
	}
	f.close()

	// The sampled results against direct runs, after the fleet is gone so
	// the direct runs have the CPUs to themselves.
	h := sha256.New()
	for _, s := range samples {
		l.stats.direct(r.rep, s.spec, s.t)
		h.Write([]byte(s.t.accepted.Key))
		h.Write(s.t.final.Result)
	}
	r.rep.fingerprint = fmt.Sprintf("sha256:%x (%d sampled results)", h.Sum(nil), len(samples))
	if st == nil {
		return samples, err
	}
	l.stats.report(r.rep, st, settledAt.Sub(lastWait))
	return samples, nil
}
