// tssd is the task superscalar simulation daemon: a long-running HTTP/JSON
// service that runs simulation and experiment-sweep jobs on a bounded worker
// pool and answers repeated identical submissions from a content-addressed
// result store (deterministic runs make stored results exact, not
// approximate).
//
// Usage:
//
//	tssd                                  # listen on :7077
//	tssd -addr :8080 -workers 8           # custom port, 8 concurrent jobs
//	tssd -cache-entries 4096 -cache-mb 256
//	tssd -cache-dir /var/lib/tssd -cache-disk-mb 4096   # persistent results
//
// The result store is an in-memory LRU bounded by -cache-entries and
// -cache-mb. With -cache-dir a persistent store replaces it (the two flags
// then have no effect): finished results are written as self-verifying
// envelope files and every lookup reads the directory, so the
// content-addressed result space survives restarts. Corrupted or
// foreign-version files are treated as misses and removed, never served.
//
// With -journal-dir the daemon additionally keeps a durable job journal:
// every accepted job is fsync'd to an append-only log before it is queued,
// and a daemon restarted on the same journal recovers every job that had
// not settled: one whose result already reached the store settles from it
// without running, the rest re-enqueue, and determinism makes the recovered
// results byte-identical. Pair it with -cache-dir; see docs/SERVICE.md.
//
// Fleet mode (multi-node):
//
//	tssd -fleet -addr :7077                        # dispatcher: no local jobs
//	tssd -addr :7081 -join http://dispatcher:7077  # worker: joins the fleet
//	tssd -addr :7081 -join http://dispatcher:7077 -advertise http://worker1:7081
//
// A dispatcher exposes the same job API as a plain daemon but fans jobs out
// to joined workers, coalesces identical jobs across nodes, shares results
// through its own result store (give it -cache-dir and the whole fleet's
// results persist), and retries on another worker when one dies mid-job. Sweep jobs
// are sharded: the dispatcher decomposes the sweep into per-point sim jobs,
// fans the points across the fleet, and reassembles a byte-identical result.
//
// A worker is just a plain daemon that registers itself; -advertise is the
// URL at which the dispatcher can reach it (default derived from -addr with
// a localhost host).
//
// Submit a job:
//
//	curl -s localhost:7077/v1/jobs -d '{"kind":"sim","sim":{"workload":"cholesky","tasks":3000}}'
//	curl -N localhost:7077/v1/jobs/job-1/events      # live SSE progress
//	curl -s localhost:7077/v1/jobs/job-1/result      # canonical result JSON
//	curl -s -X DELETE localhost:7077/v1/jobs/job-1   # cooperative cancel
//	curl -s localhost:7077/stats                     # store + pool counters
//
// The full API is documented in docs/SERVICE.md. cmd/tssim and cmd/tsbench
// can target a daemon (or a fleet dispatcher) with -remote instead of
// simulating locally.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tasksuperscalar/internal/service"
)

func main() {
	var (
		addr             = flag.String("addr", ":7077", "listen address")
		workers          = flag.Int("workers", 0, "concurrent jobs (0 = one per CPU)")
		queueDepth       = flag.Int("queue", 1024, "max queued jobs before submits get 503")
		cacheEntries     = flag.Int("cache-entries", 1024, "in-memory result store entry bound (unused with -cache-dir)")
		cacheMB          = flag.Int("cache-mb", 64, "in-memory result store size bound (MiB) (unused with -cache-dir)")
		maxJobs          = flag.Int("max-jobs", 4096, "job records retained; oldest finished jobs are evicted beyond this")
		cacheDir         = flag.String("cache-dir", "", "directory for the persistent result store, which replaces the in-memory one (empty = in-memory store)")
		cacheDiskMB      = flag.Int("cache-disk-mb", 1024, "persistent store size bound (MiB); least-recently-used results are evicted beyond it")
		fleetMode        = flag.Bool("fleet", false, "run as a fleet dispatcher: jobs are fanned out to workers that register via -join (or POST /v1/workers)")
		join             = flag.String("join", "", "dispatcher base URL to join as a fleet worker")
		advertise        = flag.String("advertise", "", "base URL at which the dispatcher can reach this worker (default derived from -addr)")
		authFile         = flag.String("auth-file", "", "JSON tenant/token table; when set, every /v1 endpoint requires a bearer token (see docs/SERVICE.md)")
		token            = flag.String("token", "", "bearer token this daemon presents to other daemons (-join registration, heartbeats, and dispatch)")
		heartbeat        = flag.Duration("heartbeat", 5*time.Second, "fleet heartbeat interval I: a -join worker beats this often (0 = join once, never beat); a dispatcher polls workers unheard for I and reads them suspect after 2.5*I, dead after 5*I")
		journalDir       = flag.String("journal-dir", "", "directory for the durable job journal; accepted jobs survive a daemon crash and are recovered on restart (empty = no journal)")
		jobTimeout       = flag.Duration("job-timeout", 0, "per-job execution deadline; a job (or sweep point) running longer fails with a deadline error (0 = no deadline)")
		dispatchRetries  = flag.Int("dispatch-retries", 0, "fleet mode: worker-level failures retried per job before it fails (0 = 4 default)")
		noWorkerWait     = flag.Duration("no-worker-wait", 0, "fleet mode: how long dispatch waits for a dispatchable worker before failing a job, counted from when the job starts waiting (0 = 30s default, negative = fail fast)")
		breakerThreshold = flag.Int("breaker-threshold", 0, "fleet mode: consecutive failures that trip a worker's circuit breaker (0 = 3 default)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 0, "fleet mode: how long a tripped worker sits out before a half-open probe (0 = 5s default)")
	)
	flag.Parse()

	if *fleetMode && *join != "" {
		fmt.Fprintln(os.Stderr, "tssd: -fleet and -join are mutually exclusive (a dispatcher does not work for another dispatcher)")
		os.Exit(2)
	}
	if *advertise != "" && *join == "" {
		fmt.Fprintln(os.Stderr, "tssd: -advertise only makes sense with -join")
		os.Exit(2)
	}

	var auth *service.AuthConfig
	if *authFile != "" {
		var err error
		auth, err = service.LoadAuthFile(*authFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tssd: %v\n", err)
			os.Exit(1)
		}
	}

	// -dispatch-retries counts retries, not tries; 0 keeps the default.
	var dispatchRetry service.RetryPolicy
	if *dispatchRetries > 0 {
		dispatchRetry.Attempts = *dispatchRetries + 1
	}

	srv, err := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheEntries:      *cacheEntries,
		CacheBytes:        int64(*cacheMB) << 20,
		MaxJobs:           *maxJobs,
		Fleet:             *fleetMode,
		CacheDir:          *cacheDir,
		CacheDiskBytes:    int64(*cacheDiskMB) << 20,
		Auth:              auth,
		PeerToken:         *token,
		HeartbeatInterval: *heartbeat,
		JournalDir:        *journalDir,
		JobTimeout:        *jobTimeout,
		DispatchRetry:     dispatchRetry,
		NoWorkerWait:      *noWorkerWait,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tssd: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Root context ends on SIGINT/SIGTERM; it also aborts a pending -join
	// registration loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		self := *advertise
		if self == "" {
			self = advertiseFromAddr(*addr)
		}
		go func() {
			id, err := service.JoinFleet(ctx, *join, self, service.WithToken(*token))
			if err != nil {
				log.Printf("tssd: %v", err)
				return
			}
			log.Printf("tssd: joined fleet at %s as %s (advertised %s)", *join, id, self)
			if *heartbeat > 0 {
				// Heartbeats double as re-registration: a restarted
				// dispatcher re-learns this worker on the next beat.
				service.HeartbeatLoop(ctx, *join, self, srv.Instance(), *heartbeat, service.WithToken(*token))
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Println("tssd: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		srv.Close()
	}()

	log.Printf("tssd: listening on %s (%s)", *addr, modeDesc(*fleetMode, *workers))
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "tssd: %v\n", err)
		os.Exit(1)
	}
	<-done
}

// advertiseFromAddr derives a worker's default advertise URL from its listen
// address: ":7081" → "http://localhost:7081". Cross-host fleets must pass
// -advertise explicitly.
func advertiseFromAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}

func modeDesc(fleet bool, workers int) string {
	if fleet {
		return "fleet dispatcher"
	}
	if workers <= 0 {
		return "one worker per CPU"
	}
	return fmt.Sprintf("%d workers", workers)
}
