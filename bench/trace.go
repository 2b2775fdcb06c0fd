package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextOp int
}

// span is one timed call. Spans of one operation (a simulation, a sweep, a
// job or a probe) share Op; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// start opens a span now and returns its ID.
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(op, parent, name, time.Now(), time.Time{})
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds are already known (a zero end leaves it
// open for end).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes returns per-name totals and self times, largest self time
// first, plus the wall time the tracer has covered. A span's self time is
// its duration minus the part of it that its children cover.
func (t *tracer) selfTimes() ([]selfRow, float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	wall := time.Since(t.t0)
	t.mu.Unlock()

	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		d := s.End - s.Start
		row.Count++
		row.Total += float64(d) / 1e6
		row.Self += float64(d-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out, ms(wall)
}

// covered returns how many nanoseconds of s the union of kids spans.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeTable prints the self-time table.
func (t *tracer) writeTable(w io.Writer) {
	rows, wall := t.selfTimes()
	fmt.Fprintf(w, "  trace self time (wall %.1f ms)\n", wall)
	fmt.Fprintf(w, "    %-28s %8s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "self %")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-28s %8d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count, r.Total, r.Self, 100*r.Self/wall)
	}
}

// writeFile writes every span and the self-time table as JSON.
func (t *tracer) writeFile(path string) error {
	rows, wall := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		WallMs float64   `json:"wall_ms"`
		Self   []selfRow `json:"self"`
		Spans  []span    `json:"spans"`
	}{wall, rows, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
