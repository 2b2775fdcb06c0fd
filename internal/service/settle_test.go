package service

import (
	"context"
	"fmt"
	"net/http"
	"testing"
)

// watchTerminal follows a job's SSE stream and, from inside the callback for
// its terminal event, reads /stats over HTTP. subscribed (may be nil) is
// closed once the stream has delivered its first event, so a caller can act
// on the job while the watcher is attached. It returns the terminal event's
// type and the /stats it read.
func watchTerminal(cl *Client, id string, subscribed chan<- struct{}) (string, *ServerStats, error) {
	ctx := context.Background()
	var terminal string
	var seen *ServerStats
	err := cl.Events(ctx, id, func(ev Event) error {
		if subscribed != nil {
			close(subscribed)
			subscribed = nil
		}
		switch ev.Type {
		case "result", "error", "cancelled":
		default:
			return nil
		}
		terminal = ev.Type
		st, err := cl.Stats(ctx)
		seen = st
		return err
	})
	if err == nil && seen == nil {
		err = fmt.Errorf("stream for %s ended without a terminal event", id)
	}
	return terminal, seen, err
}

// assertCountedAtTerminal checks the conservation invariant on /stats read
// at a job's terminal event: every submission except `open` still-running
// ones is already counted in exactly one settle bucket.
func assertCountedAtTerminal(t *testing.T, id, typ string, st *ServerStats, err error, open uint64) {
	t.Helper()
	if err != nil {
		t.Fatalf("watching %s: %v", id, err)
	}
	settled := st.Completed + st.Failed + st.Cancelled + st.Coalesced + st.CacheHits + st.DiskHits
	if settled+open != st.Submitted {
		t.Fatalf("at %s's %q event /stats shows %d settled + %d open of %d submitted: %+v",
			id, typ, settled, open, st.Submitted, st)
	}
}

// A client that sees a job's terminal SSE event and then reads /stats finds
// the job already counted. The terminal status and its counter are
// published in one critical section, so conservation holds at every instant
// a client can observe, not just after the daemon settles. Each settle path
// is covered: a run that completes (with a disk write between result and
// counter in the old ordering), a cancel while queued, a cancel while
// running, and a disk hit after a restart.
func TestStatsCountJobAtTerminalEvent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	_, cl := startDaemon(t, Config{Workers: 1, CacheDir: dir})

	st, err := cl.Submit(ctx, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	typ, stats, err := watchTerminal(cl, st.ID, nil)
	assertCountedAtTerminal(t, st.ID, typ, stats, err, 0)
	if typ != "result" || stats.Completed != 1 {
		t.Fatalf("fresh run ended %q with completed=%d, want result and 1", typ, stats.Completed)
	}

	// Cancel a queued job while its stream is attached, then the blocker
	// ahead of it while that one runs.
	blocker, err := cl.Submit(ctx, longSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id   string
		open uint64
	}{{queued.ID, 1}, {blocker.ID, 0}} {
		subscribed := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			var err error
			typ, stats, err = watchTerminal(cl, c.id, subscribed)
			done <- err
		}()
		<-subscribed
		if _, err := cl.Cancel(ctx, c.id); err != nil {
			t.Fatal(err)
		}
		err := <-done
		assertCountedAtTerminal(t, c.id, typ, stats, err, c.open)
		if typ != "cancelled" {
			t.Fatalf("cancelled job %s ended %q", c.id, typ)
		}
	}

	// A new daemon over the same store answers the first spec from disk,
	// at submit: the answer is already done, and every view of the job
	// says it was cached.
	_, cl2 := startDaemon(t, Config{Workers: 1, CacheDir: dir})
	st, err = cl2.Submit(ctx, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || !st.Cached {
		t.Fatalf("disk-served submit answered %s with cached=%v, want done and true", st.Status, st.Cached)
	}
	typ, stats, err = watchTerminal(cl2, st.ID, nil)
	assertCountedAtTerminal(t, st.ID, typ, stats, err, 0)
	if typ != "result" || stats.DiskHits != 1 {
		t.Fatalf("disk-served job ended %q with disk_hits=%d, want result and 1", typ, stats.DiskHits)
	}
	resp, err := http.Get(cl2.Base() + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Tssd-Cached"); got != "true" {
		t.Fatalf("disk-served /result has X-Tssd-Cached %q, want true", got)
	}
}
