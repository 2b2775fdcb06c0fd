package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestJournalRecordRoundTrip(t *testing.T) {
	rec := &journalRecord{
		Op: journalOpAccept, ID: "job-7", Key: "abc123", Tenant: "team-a",
		Spec: json.RawMessage(`{"kind":"sim"}`),
	}
	line := encodeJournalRecord(rec)
	got, err := decodeJournalLine(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != rec.Op || got.ID != rec.ID || got.Key != rec.Key || got.Tenant != rec.Tenant {
		t.Fatalf("round trip: %+v != %+v", got, rec)
	}

	// Any single flipped byte must fail verification, never decode wrong.
	for i := 0; i < len(line)-1; i++ {
		mut := append([]byte(nil), line...)
		mut[i] ^= 0x40
		if _, err := decodeJournalLine(bytes.TrimSuffix(mut, []byte("\n"))); err == nil {
			// Flipping inside the CRC field can only produce a mismatch;
			// a decode that still passes means the checksum is not binding.
			t.Fatalf("flipped byte %d still decoded", i)
		}
	}
}

// A torn tail — the one corruption a crash mid-append can produce — drops
// only the torn record and everything after it, never a settled prefix.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	jl, live, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("fresh journal has %d live records", len(live))
	}
	jl.accept("job-1", "key-a", "", json.RawMessage(`{}`))
	jl.accept("job-2", "key-b", "", json.RawMessage(`{}`))
	jl.settleKey("key-a", StatusDone)
	jl.Close()

	// Tear the file mid-record: append half a valid line.
	full := encodeJournalRecord(&journalRecord{Op: journalOpAccept, ID: "job-3", Key: "key-c"})
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(full[:len(full)/2])
	f.Close()

	jl2, live2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(live2) != 1 || live2[0].ID != "job-2" {
		t.Fatalf("live after torn tail: %+v, want just job-2", live2)
	}
	if st := jl2.stats(); st.CorruptDropped != 1 {
		t.Fatalf("corrupt counter %d, want 1", st.CorruptDropped)
	}
	// Open compacted the file: a third open sees a clean journal with the
	// same live set and no corruption.
	jl2.Close()
	jl3, live3, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.Close()
	if len(live3) != 1 || live3[0].ID != "job-2" || jl3.stats().CorruptDropped != 0 {
		t.Fatalf("post-compaction open: live=%+v corrupt=%d", live3, jl3.stats().CorruptDropped)
	}
}

// Compaction keeps the file proportional to the live set, not the history,
// and preserves the ID watermark so settled IDs are never re-issued.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3000; i++ {
		id := "job-" + strconv.Itoa(i)
		key := "key-" + strconv.Itoa(i)
		jl.accept(id, key, "", json.RawMessage(`{}`))
		jl.settleKey(key, StatusDone)
	}
	jl.accept("job-3001", "key-live", "", json.RawMessage(`{}`))
	jl.Close()

	info, err := os.Stat(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	// 6000 records at ~100 bytes each would be ~600 KiB without compaction.
	if info.Size() > 64<<10 {
		t.Fatalf("journal grew to %d bytes despite compaction", info.Size())
	}

	jl2, live, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(live) != 1 || live[0].ID != "job-3001" {
		t.Fatalf("live after compaction: %+v", live)
	}
	if wm := jl2.seqWatermark(); wm != 3001 {
		t.Fatalf("watermark %d survived compaction, want 3001", wm)
	}
}

// journaledServer starts a daemon whose journal and result store live under
// dir, so a successor opened on the same dir recovers its state.
func journaledServer(t *testing.T, dir string, cfg Config) (*Server, *Client, *httptest.Server) {
	t.Helper()
	cfg.JournalDir = filepath.Join(dir, "journal")
	cfg.CacheDir = filepath.Join(dir, "cache")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, NewClient(hs.URL), hs
}

// The replay acceptance bar: kill a daemon with work queued and running,
// restart on the same journal, and every job settles under its original ID
// with bytes identical to a fault-free run — while work that settled into
// the store before the crash is never executed a second time.
func TestJournalReplayRecoversKilledJobs(t *testing.T) {
	dir := t.TempDir()
	srvA, clA, hsA := journaledServer(t, dir, Config{Workers: 2})
	ctx := context.Background()

	// Phase 1: settle one job durably, then load the daemon and kill it.
	settled, err := clA.Submit(ctx, quickSpec(90))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, clA, settled.ID, func(s *SubmitStatus) bool { return s.Status == StatusDone }, "done")

	specs := []*JobSpec{quickSpec(91), quickSpec(92), quickSpec(93), quickSpec(94)}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := clA.Submit(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	srvA.Kill()
	hsA.Close()

	// Phase 2: a successor on the same dirs recovers everything unsettled.
	srvB, clB, hsB := journaledServer(t, dir, Config{Workers: 2})
	t.Cleanup(func() { hsB.Close(); srvB.Close() })

	for i, id := range ids {
		want, err := RunSpec(mustNormalize(t, quickSpec(int64(91+i))))
		if err != nil {
			t.Fatal(err)
		}
		st, err := clB.Job(ctx, id)
		if err != nil {
			// Settled (and journal-cleared) before the kill: its result must
			// still be one disk read away.
			re, serr := clB.Submit(ctx, specs[i])
			if serr != nil {
				t.Fatalf("job %s gone after crash and resubmission failed: %v", id, serr)
			}
			st, err = clB.Job(ctx, re.ID)
			if err != nil {
				t.Fatal(err)
			}
			id = re.ID
		}
		fin := st
		if !terminalStatus(fin.Status) {
			fin = waitFor(t, clB, id, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
		}
		if fin.Status != StatusDone {
			t.Fatalf("recovered job %s ended %s: %s", id, fin.Status, fin.Error)
		}
		got, err := clB.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered job %s result differs from fault-free run", id)
		}
	}

	// The pre-kill settled job was cleared from the journal: resubmitting its
	// spec must be served from the persistent store, not executed again.
	before := srvB.Stats()
	re, err := clB.Submit(ctx, quickSpec(90))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, clB, re.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("store-settled resubmission ended %s", fin.Status)
	}
	after := srvB.Stats()
	if after.Completed != before.Completed {
		t.Fatalf("store-settled job was re-executed (completed %d → %d)", before.Completed, after.Completed)
	}
	if hits := after.DiskHits + after.CacheHits - before.DiskHits - before.CacheHits; hits != 1 {
		t.Fatalf("store-settled resubmission produced %d cache/disk hits, want 1", hits)
	}

	// Replay must never reuse a pre-crash job ID for new work.
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	if seen[re.ID] || re.ID == settled.ID {
		t.Fatalf("successor daemon re-issued pre-crash job ID %s", re.ID)
	}

	// Conservation spans the replay: every submission on B (replayed or new)
	// settled into exactly one terminal bucket, and the journal drained.
	st := srvB.Stats()
	if got := st.Completed + st.Failed + st.Cancelled + st.Coalesced + st.CacheHits + st.DiskHits; got != st.Submitted {
		t.Fatalf("conservation after replay: buckets %d != submitted %d", got, st.Submitted)
	}
	if st.Journal == nil || st.Journal.Live != 0 {
		t.Fatalf("journal not drained after recovery: %+v", st.Journal)
	}
}

// Coalesced submissions recover as a group: two IDs sharing one key before
// the crash still share one execution — and one result — after it.
func TestJournalReplayCoalescing(t *testing.T) {
	dir := t.TempDir()
	// A fleet dispatcher with no workers parks jobs in dispatch wait,
	// guaranteeing both submissions are live (and coalesced) at the kill.
	srvA, clA, hsA := journaledServer(t, dir, Config{Fleet: true, NoWorkerWait: 0})
	ctx := context.Background()

	spec := quickSpec(77)
	st1, err := clA.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := clA.Submit(ctx, quickSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Coalesced {
		t.Fatalf("second identical submission not coalesced")
	}
	srvA.Kill()
	hsA.Close()

	srvB, clB, hsB := journaledServer(t, dir, Config{Workers: 2})
	t.Cleanup(func() { hsB.Close(); srvB.Close() })

	want, err := RunSpec(mustNormalize(t, quickSpec(77)))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		fin := waitFor(t, clB, id, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
		if fin.Status != StatusDone {
			t.Fatalf("replayed job %s ended %s: %s", id, fin.Status, fin.Error)
		}
		got, err := clB.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replayed job %s result differs", id)
		}
	}
	// One execution, two settled IDs: the coalescing structure survived.
	st := srvB.Stats()
	if st.Completed != 1 || st.Coalesced != 1 {
		t.Fatalf("replayed pair: completed=%d coalesced=%d, want 1/1", st.Completed, st.Coalesced)
	}
}

// A clean shutdown settles everything: the successor daemon replays nothing.
func TestJournalCleanShutdownReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	srvA, clA, hsA := journaledServer(t, dir, Config{Workers: 2})
	ctx := context.Background()
	st, err := clA.Submit(ctx, quickSpec(88))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, clA, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	hsA.Close()
	srvA.Close()

	srvB, _, hsB := journaledServer(t, dir, Config{Workers: 2})
	t.Cleanup(func() { hsB.Close(); srvB.Close() })
	js := srvB.Stats().Journal
	if js == nil || js.Replayed != 0 || js.Live != 0 {
		t.Fatalf("clean shutdown left journal state: %+v", js)
	}
}

// A journal holding `start` records and accepts with a `started` field, as
// earlier daemons wrote them, still opens: replay skips the unknown op and
// field, and every unsettled accept replays and runs.
func TestJournalReplaysStartRecords(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := acceptLine(t, "job-1", 71, `,"started":true`) +
		frameLine(`{"op":"start","id":"job-1"}`) +
		acceptLine(t, "job-2", 72, "")
	if err := os.WriteFile(filepath.Join(jdir, journalFileName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, cl, hs := journaledServer(t, dir, Config{Workers: 1})
	t.Cleanup(func() { hs.Close(); srv.Close() })
	if js := srv.Stats().Journal; js.Replayed != 2 || js.CorruptDropped != 0 {
		t.Fatalf("older journal replayed %d jobs (corrupt %d), want 2 (0)", js.Replayed, js.CorruptDropped)
	}
	for _, id := range []string{"job-1", "job-2"} {
		fin := waitFor(t, cl, id, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
		if fin.Status != StatusDone {
			t.Fatalf("replayed job %s ended %s: %s", id, fin.Status, fin.Error)
		}
	}
}

// The crash window between the store write and the journal settle: a job
// whose result reached the store settles from it at replay, under its
// original ID, as a disk hit, without running, and the settle is journaled.
func TestJournalReplayServesStoredResult(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := mustNormalize(t, quickSpec(73))
	want, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenDiskStore(filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(spec.Key(), want)
	if err := os.WriteFile(filepath.Join(jdir, journalFileName), []byte(acceptLine(t, "job-1", 73, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, cl, hs := journaledServer(t, dir, Config{Workers: 1})
	fin := waitFor(t, cl, "job-1", func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("replayed job ended %s: %s", fin.Status, fin.Error)
	}
	got, err := cl.Result(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replayed job's result differs from the stored one")
	}
	st := srv.Stats()
	if st.Sched.Dispatched != 0 || st.DiskHits != 1 || st.Completed != 0 || st.Journal.Live != 0 {
		t.Fatalf("stored job at replay: dispatched=%d disk_hits=%d completed=%d journal.live=%d, want 0/1/0/0",
			st.Sched.Dispatched, st.DiskHits, st.Completed, st.Journal.Live)
	}
	hs.Close()
	srv.Close()

	srv2, _, hs2 := journaledServer(t, dir, Config{Workers: 1})
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	if js := srv2.Stats().Journal; js.Replayed != 0 || js.Live != 0 {
		t.Fatalf("second open replayed %d jobs (%d live), want 0", js.Replayed, js.Live)
	}
}

// A journal written under an older key format re-keys at replay: the stale
// key's entries settle, each job is re-accepted under the current key, the
// two jobs of one spec share one run, and both end done under their
// original IDs.
func TestJournalReplayRekeys(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := mustNormalize(t, quickSpec(74))
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Repeat("0", 64)
	var old string
	for _, id := range []string{"job-1", "job-2"} {
		old += frameLine(fmt.Sprintf(`{"op":"accept","id":%q,"key":%q,"tenant":%q,"spec":%s}`,
			id, stale, DefaultTenant, b))
	}
	if err := os.WriteFile(filepath.Join(jdir, journalFileName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, cl, hs := journaledServer(t, dir, Config{Workers: 1})
	for _, id := range []string{"job-1", "job-2"} {
		fin := waitFor(t, cl, id, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
		if fin.Status != StatusDone || fin.Key != spec.Key() {
			t.Fatalf("replayed job %s ended %s under key %.12s: %s, want done under %.12s",
				id, fin.Status, fin.Key, fin.Error, spec.Key())
		}
	}
	st := srv.Stats()
	if st.Completed != 1 || st.Coalesced != 1 || st.Journal.Live != 0 || st.Journal.Appended != 4 {
		t.Fatalf("re-keyed replay: completed=%d coalesced=%d journal.live=%d journal.appended=%d, want 1/1/0/4",
			st.Completed, st.Coalesced, st.Journal.Live, st.Journal.Appended)
	}
	hs.Close()
	srv.Close()

	srv2, _, hs2 := journaledServer(t, dir, Config{Workers: 1})
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	if js := srv2.Stats().Journal; js.Replayed != 0 || js.Live != 0 {
		t.Fatalf("second open replayed %d jobs (%d live), want 0", js.Replayed, js.Live)
	}
}

// A queue-full 503 records nothing: no journal record is written, and the
// rejected submit takes no job ID.
func TestJournalQueueFullWritesNothing(t *testing.T) {
	srv, cl, hs := journaledServer(t, t.TempDir(), Config{Workers: 1, QueueDepth: 1})
	t.Cleanup(func() { hs.Close(); srv.Close() })
	ctx := context.Background()
	blocker, err := cl.Submit(ctx, longSpec(4200))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, cl, blocker.ID, func(s *SubmitStatus) bool { return s.Status == StatusRunning }, "running")
	queued, err := cl.Submit(ctx, longSpec(4201))
	if err != nil {
		t.Fatal(err)
	}

	before := srv.Stats().Journal.Appended
	_, err = cl.Submit(ctx, longSpec(4202))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeQueueFull {
		t.Fatalf("submit to a full queue: %v, want %s", err, CodeQueueFull)
	}
	if after := srv.Stats().Journal.Appended; after != before {
		t.Fatalf("queue-full 503 took journal.appended %d → %d, want unchanged", before, after)
	}

	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	next, err := cl.Submit(ctx, longSpec(4203))
	if err != nil {
		t.Fatalf("submission after the queued cancel: %v", err)
	}
	if next.ID != "job-3" {
		t.Fatalf("next accepted job is %s, want job-3", next.ID)
	}
	for _, id := range []string{next.ID, blocker.ID} {
		if _, err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// frameLine frames one journal record body as the journal writes it.
func frameLine(body string) string {
	return fmt.Sprintf("%s %08x %s\n", journalMagic, crc32.ChecksumIEEE([]byte(body)), body)
}

// acceptLine is a framed accept record for quickSpec(seed) under id, with
// extra appended to its JSON body.
func acceptLine(t *testing.T, id string, seed int64, extra string) string {
	t.Helper()
	spec := mustNormalize(t, quickSpec(seed))
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return frameLine(fmt.Sprintf(`{"op":"accept","id":%q,"key":%q,"tenant":%q,"spec":%s%s}`,
		id, spec.Key(), DefaultTenant, b, extra))
}

func mustNormalize(t *testing.T, spec *JobSpec) *JobSpec {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}
