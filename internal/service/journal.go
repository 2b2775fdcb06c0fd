package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Crash durability: the journal is an append-only, fsync'd, self-verifying
// record of job lifecycle transitions. Every accepted API job appends an
// `accept` record (id, key, tenant, and the full normalized spec — enough to
// reconstruct the submission from nothing) and terminal settlement appends
// `settle`. On daemon start the journal is replayed: jobs accepted but never
// settled are re-registered under their original IDs. One whose result
// reached the result store before the crash settles from it at replay, as a
// hit; the rest are re-enqueued — queued jobs simply run, in-flight jobs
// re-execute. Determinism makes this sound: a re-executed job produces
// byte-identical results, and stored work is never executed twice.
//
// Format: one record per line,
//
//	TSSDJNL1 <crc32-ieee-of-json, 8 hex digits> <json>\n
//
// fsync'd per append. The reader verifies magic and CRC per line and stops
// at the first bad record: a crash can tear only the tail, and a record that
// fails its checksum poisons trust in everything after it (a skipped settle
// would resurrect finished work; stopping merely re-runs unsettled work,
// which determinism makes free of harm). Settlement is recorded by *key*,
// clearing every live id coalesced onto that key in one record.
//
// The journal compacts itself — rewriting only live accepts, atomically —
// on every open and whenever the file grows well past the live set, so its
// size tracks the working set, not the submission history.

const (
	journalMagic    = "TSSDJNL1"
	journalFileName = "journal.log"
	// journalCompactMin and the 4× live-set factor bound file growth: a
	// compaction rewrites at most the live set, so amortized append cost
	// stays O(1) records.
	journalCompactMin = 1024
)

// Journal record ops.
const (
	journalOpAccept = "accept"
	journalOpSettle = "settle"
	// journalOpMark preserves the highest job-ID sequence ever accepted
	// across compaction (which otherwise rewrites only live accepts): a
	// restarted daemon must never re-issue the ID of a settled job, or a
	// client polling a pre-crash ID could silently observe a different job.
	journalOpMark = "mark"
)

// journalRecord is one line of the journal. Accept records carry the whole
// submission; settle records clear a key. Replay skips ops it does not know
// (older journals also hold `start` records), and decoding ignores unknown
// fields.
type journalRecord struct {
	Op     string          `json:"op"`
	ID     string          `json:"id,omitempty"`
	Key    string          `json:"key,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Status string          `json:"status,omitempty"`
	// Seq is the ID watermark carried by mark records.
	Seq uint64 `json:"seq,omitempty"`
}

// journal is the durable lifecycle log. All methods are safe for concurrent
// use; a nil *journal is valid everywhere and records nothing.
type journal struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	halted bool

	live      map[string]*journalRecord // id → live accept record
	byKey     map[string][]string       // key → live ids, append order
	recs      int                       // records in the file since last compaction
	watermark uint64                    // highest job-ID sequence ever accepted

	appends, settles, errs, corrupt uint64
	replayed                        int
}

func (jl *journal) path() string { return filepath.Join(jl.dir, journalFileName) }

// encodeJournalRecord renders one self-verifying journal line.
func encodeJournalRecord(rec *journalRecord) []byte {
	b, _ := json.Marshal(rec)
	return []byte(fmt.Sprintf("%s %08x %s\n", journalMagic, crc32.ChecksumIEEE(b), b))
}

// decodeJournalLine verifies one journal line and returns its record.
func decodeJournalLine(line []byte) (*journalRecord, error) {
	parts := bytes.SplitN(line, []byte(" "), 3)
	if len(parts) != 3 || string(parts[0]) != journalMagic || len(parts[1]) != 8 {
		return nil, fmt.Errorf("journal: malformed record framing")
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(parts[1]), "%08x", &crc); err != nil {
		return nil, fmt.Errorf("journal: bad checksum field: %w", err)
	}
	if crc32.ChecksumIEEE(parts[2]) != crc {
		return nil, fmt.Errorf("journal: checksum mismatch")
	}
	var rec journalRecord
	if err := json.Unmarshal(parts[2], &rec); err != nil {
		return nil, fmt.Errorf("journal: bad record body: %w", err)
	}
	return &rec, nil
}

// openJournal opens (creating if needed) the journal under dir, replays its
// records into the live set, compacts the file, and returns the journal plus
// the live accept records sorted by job ID sequence.
func openJournal(dir string) (*journal, []*journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal dir: %w", err)
	}
	jl := &journal{
		dir:   dir,
		live:  make(map[string]*journalRecord),
		byKey: make(map[string][]string),
	}
	if b, err := os.ReadFile(jl.path()); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			rec, err := decodeJournalLine(line)
			if err != nil {
				// Torn or corrupt: everything from here on is untrusted.
				jl.corrupt++
				break
			}
			jl.applyLocked(rec)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	live := jl.liveRecordsLocked()
	// Compact on open: the rewritten file is exactly the unsettled set, and
	// the atomic rename doubles as the durability point for the directory.
	if err := jl.compactLocked(); err != nil {
		return nil, nil, err
	}
	return jl, live, nil
}

// applyLocked folds one record into the live set.
func (jl *journal) applyLocked(rec *journalRecord) {
	switch rec.Op {
	case journalOpAccept:
		if rec.ID == "" || rec.Key == "" {
			return
		}
		if seq, ok := jobIDSeq(rec.ID); ok && seq > jl.watermark {
			jl.watermark = seq
		}
		if _, ok := jl.live[rec.ID]; ok {
			return // duplicate accept; first wins
		}
		jl.live[rec.ID] = rec
		jl.byKey[rec.Key] = append(jl.byKey[rec.Key], rec.ID)
	case journalOpMark:
		if rec.Seq > jl.watermark {
			jl.watermark = rec.Seq
		}
	case journalOpSettle:
		for _, id := range jl.byKey[rec.Key] {
			delete(jl.live, id)
		}
		delete(jl.byKey, rec.Key)
	}
	jl.recs++
}

// liveRecordsLocked returns the live accepts sorted by job ID sequence — the
// replay order, which re-registers jobs exactly as they were first accepted.
func (jl *journal) liveRecordsLocked() []*journalRecord {
	live := make([]*journalRecord, 0, len(jl.live))
	for _, rec := range jl.live {
		live = append(live, rec)
	}
	sort.Slice(live, func(i, j int) bool {
		a, _ := jobIDSeq(live[i].ID)
		b, _ := jobIDSeq(live[j].ID)
		return a < b
	})
	return live
}

// compactLocked atomically rewrites the journal to just the live accepts and
// reopens it for appending, fsyncing the file before rename and the
// directory after.
func (jl *journal) compactLocked() error {
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	tmp, err := os.CreateTemp(jl.dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var buf bytes.Buffer
	if jl.watermark > 0 {
		buf.Write(encodeJournalRecord(&journalRecord{Op: journalOpMark, Seq: jl.watermark}))
	}
	for _, rec := range jl.liveRecordsLocked() {
		buf.Write(encodeJournalRecord(rec))
	}
	if _, err := tmp.Write(buf.Bytes()); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), jl.path()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(jl.dir)
	f, err := os.OpenFile(jl.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	jl.f = f
	jl.recs = len(jl.live)
	return nil
}

// append durably writes one record: fold into the live set, write the line,
// fsync. Append errors are counted, not fatal — a daemon with a dying disk
// keeps serving; it just loses crash durability from that point on.
func (jl *journal) append(rec *journalRecord) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.halted || jl.f == nil {
		return
	}
	jl.applyLocked(rec)
	if _, err := jl.f.Write(encodeJournalRecord(rec)); err != nil {
		jl.errs++
		return
	}
	if err := jl.f.Sync(); err != nil {
		jl.errs++
		return
	}
	jl.appends++
	if jl.recs > journalCompactMin && jl.recs > 4*len(jl.live)+64 {
		if err := jl.compactLocked(); err != nil {
			jl.errs++
		}
	}
}

// accept records one accepted API submission.
func (jl *journal) accept(id, key, tenant string, spec json.RawMessage) {
	jl.append(&journalRecord{Op: journalOpAccept, ID: id, Key: key, Tenant: tenant, Spec: spec})
}

// settleKey records terminal settlement of every live job coalesced onto
// key. It writes nothing when no live job matches — internal sweep points
// settle through the same code path but were never journaled.
func (jl *journal) settleKey(key, status string) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	hasLive := len(jl.byKey[key]) > 0
	jl.mu.Unlock()
	if !hasLive {
		return
	}
	jl.append(&journalRecord{Op: journalOpSettle, Key: key, Status: status})
	jl.mu.Lock()
	jl.settles++
	jl.mu.Unlock()
}

// seqWatermark is the highest job-ID sequence the journal has ever seen —
// settled jobs included — so a restarted daemon allocates fresh IDs only.
func (jl *journal) seqWatermark() uint64 {
	if jl == nil {
		return 0
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.watermark
}

// halt freezes the journal, simulating a crash: subsequent appends are
// silently discarded, exactly as writes issued after a power cut would be.
func (jl *journal) halt() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	jl.halted = true
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	jl.mu.Unlock()
}

// Close flushes and closes the journal file.
func (jl *journal) Close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	if jl.f != nil {
		jl.f.Sync()
		jl.f.Close()
		jl.f = nil
	}
	jl.mu.Unlock()
}

// JournalStats is the journal section of GET /stats.
type JournalStats struct {
	// Dir is the journal directory; Live the unsettled job count.
	Dir  string `json:"dir"`
	Live int    `json:"live"`
	// Appended/Settled count durable record writes this process; Replayed is
	// how many jobs the daemon recovered at start; CorruptDropped counts
	// records discarded at open (torn tail); Errors counts append failures.
	Appended       uint64 `json:"appended"`
	Settled        uint64 `json:"settled"`
	Replayed       int    `json:"replayed"`
	CorruptDropped uint64 `json:"corrupt_dropped"`
	Errors         uint64 `json:"errors"`
}

func (jl *journal) stats() JournalStats {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return JournalStats{
		Dir: jl.dir, Live: len(jl.live),
		Appended: jl.appends, Settled: jl.settles,
		Replayed: jl.replayed, CorruptDropped: jl.corrupt, Errors: jl.errs,
	}
}

// syncDir fsyncs a directory, making a just-renamed file durable. Best
// effort: not every filesystem supports it, and the rename itself is already
// atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ---- Server integration -------------------------------------------------

// journalAccept records an accepted API job; caller holds s.mu (the same
// critical section that registered and enqueued it, so a settle racing in
// from a worker serializes after the accept).
func (s *Server) journalAccept(j *job) {
	if s.journal == nil {
		return
	}
	spec, err := json.Marshal(&j.spec)
	if err != nil {
		return
	}
	tenant := ""
	if j.tenant != nil {
		tenant = j.tenant.name
	}
	s.journal.accept(j.id, j.key, tenant, spec)
}

// tenantByName resolves a journaled tenant name to its state for replay; an
// unknown name (auth table changed across the restart) falls back to the
// default tenant rather than dropping the job.
func (s *Server) tenantByName(name string) *tenantState {
	for _, t := range s.tenantOrder {
		if t.name == name {
			return t
		}
	}
	return s.defaultTenant
}

// replayJournal re-registers every unsettled journaled job. Called from New
// before the pump starts, so replayed jobs are queued before the first pick.
// Jobs are replayed in original ID order. A job whose result is in the store
// (the crash fell between the store write and the journal settle) settles
// from it now, as a hit, and journals the settle. Otherwise the first live
// job of each key becomes the primary (new runnable execution, inflight
// slot, scheduler entry) and later ones coalesce onto it, reconstructing the
// exact sharing structure the crash interrupted.
// Replayed jobs bypass tenant quota and rate admission — they were admitted
// once already — but do count as submissions, so the conservation invariant
// (every submission settles into exactly one terminal bucket) spans replay.
func (s *Server) replayJournal(live []*journalRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range live {
		if _, ok := jobIDSeq(rec.ID); !ok {
			s.journal.settleKey(rec.Key, StatusFailed)
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil || spec.Normalize() != nil {
			// Unreplayable (spec schema moved underneath it): settle it out
			// of the journal so it does not replay forever.
			s.journal.settleKey(rec.Key, StatusFailed)
			continue
		}
		key := spec.Key()
		if key != rec.Key {
			// The content address moved (simulator semantics changed across
			// the restart). Re-home the journal entry under the new key so a
			// future settle clears it.
			spec2, _ := json.Marshal(&spec)
			s.journal.settleKey(rec.Key, "rekeyed")
			s.journal.accept(rec.ID, key, rec.Tenant, spec2)
		}
		j := &job{
			id: rec.ID, spec: spec, key: key,
			tenant: s.tenantByName(rec.Tenant),
			class:  classOf(spec.Priority),
		}
		s.submitted++
		if primary, ok := s.inflight[key]; ok {
			j.exec = primary.exec
			j.coalesced = true
			s.coalesced++
		} else if result, ok := s.store.Get(key); ok {
			s.storeHitLocked(j, result)
			s.journal.settleKey(key, StatusDone)
		} else {
			j.exec = newRunnableExecution()
			if !s.sched.enqueue(j) {
				// Queue depth shrank below the journal's live set; leave the
				// job journaled (a later restart with capacity recovers it)
				// but surface it as failed now.
				j.exec.transition(StatusQueued, StatusFailed)
				j.exec.set(func() { j.exec.errMsg = "journal replay: queue full" })
				s.failed++
				s.jobs[j.id] = j
				s.order = append(s.order, j.id)
				s.journal.replayed++
				continue
			}
			s.inflight[key] = j
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.journal.replayed++
	}
	// Resume ID allocation past every ID the journal has ever seen — settled
	// jobs included — so a pre-crash ID is never reassigned to new work.
	if wm := s.journal.seqWatermark(); wm > s.nextID {
		s.nextID = wm
	}
	// Keep s.order sorted by ID sequence for pagination even if the journal
	// interleaved oddly.
	sort.Slice(s.order, func(i, k int) bool {
		a, _ := jobIDSeq(s.order[i])
		b, _ := jobIDSeq(s.order[k])
		return a < b
	})
}
