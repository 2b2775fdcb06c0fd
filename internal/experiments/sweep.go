package experiments

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sync"
)

// The sweep engine: every experiment is a set of independent simulation
// jobs (one machine configuration x one workload each). Jobs run
// concurrently on a bounded worker pool, each filling a pre-assigned slot,
// and the experiment then formats its tables serially from the ordered
// slots — so the printed output (and any recorded points) are byte-for-byte
// identical whatever the worker count or completion order.

// Pool is a bounded worker pool for independent simulation jobs: the points
// of one experiment sweep, Options.Workers wide. The tssd daemon runs whole
// jobs on its own run slots; only a sweep job's points run on a Pool.
type Pool struct {
	workers int
	ctx     context.Context // optional; cancels between jobs
}

// NewPool returns a pool of the given width; workers <= 0 uses GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// WithContext returns a copy of the pool with cooperative cancellation
// attached: once ctx is cancelled, Do stops starting new jobs (jobs already
// running finish) and the skipped slots fail with ctx.Err(). The receiver is
// left untouched, so one base pool can derive independently cancellable
// pools. Point-granular cancellation is what the tssd daemon relies on to
// abandon a sweep job between its constituent simulations.
func (p Pool) WithContext(ctx context.Context) *Pool {
	p.ctx = ctx
	return &p
}

// Do runs job(0..n-1) across the pool and returns the lowest-index error
// (deterministic regardless of scheduling). Every job is attempted unless
// the pool's context is cancelled, in which case unstarted jobs take the
// context's error instead.
func (p *Pool) Do(n int, job func(i int) error) error {
	if n == 0 {
		return nil
	}
	run := job
	if p.ctx != nil {
		run = func(i int) error {
			if err := p.ctx.Err(); err != nil {
				return err
			}
			return job(i)
		}
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = run(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = run(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Label is one axis coordinate of a sweep point, e.g. {"bench", "Cholesky"}
// or {"trs", "8"}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Point is one aggregated sweep result: an experiment, the coordinates of
// the point, and the metric values the experiment reports there.
type Point struct {
	Experiment string             `json:"experiment"`
	Labels     []Label            `json:"labels"`
	Values     map[string]float64 `json:"values"`
}

// Sink collects sweep points for machine-readable output (cmd/tsbench
// -json). Experiments record points during their serial formatting pass, so
// the order is deterministic. A nil *Sink discards records.
type Sink struct {
	mu     sync.Mutex
	points []Point
}

// Record appends one point.
func (s *Sink) Record(experiment string, labels []Label, values map[string]float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points = append(s.points, Point{Experiment: experiment, Labels: labels, Values: values})
}

// Points returns the recorded points in record order.
func (s *Sink) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}

// WriteJSON emits the recorded points as an indented JSON array.
func (s *Sink) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Points())
}
