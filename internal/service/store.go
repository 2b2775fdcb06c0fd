package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tasksuperscalar/internal/faults"
	"tasksuperscalar/tss"
)

// The persistent result store: one file per content-addressed result under a
// directory (cmd/tssd -cache-dir), so the fleet's result space survives
// daemon restarts. Every file is a self-verifying envelope — magic, a JSON
// header binding the job key, tss.SimVersion, and a payload checksum, then
// the payload — written atomically (temp file + rename).
// Anything that fails verification (truncation, bit flips, a result produced
// under different simulator semantics) is treated as a miss and removed;
// the store never serves bytes it cannot prove are the keyed result.

// envelopeMagic brands a result file; envelopeVersion versions the header
// schema itself, so the format can evolve without misreading old files.
const (
	envelopeMagic   = "TSSDRES1"
	envelopeVersion = "tssd-env/1"
)

// maxEnvelopeHeader bounds the header line a decoder will scan for, keeping
// decode cost O(1) on arbitrary junk files.
const maxEnvelopeHeader = 4 << 10

// envelopeHeader is the JSON line between the magic and the payload.
type envelopeHeader struct {
	// V is the envelope schema version (envelopeVersion).
	V string `json:"v"`
	// Key is the job content address the payload belongs to.
	Key string `json:"key"`
	// Sim is tss.SimVersion at write time; a mismatch means the payload
	// was produced by different simulator semantics and must not be served.
	Sim string `json:"sim"`
	// Len and SHA256 are the payload's length and hex checksum.
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
}

// encodeEnvelope renders the canonical on-disk form of one result.
func encodeEnvelope(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	hdr, _ := json.Marshal(envelopeHeader{
		V:      envelopeVersion,
		Key:    key,
		Sim:    tss.SimVersion,
		Len:    int64(len(payload)),
		SHA256: hex.EncodeToString(sum[:]),
	})
	var b bytes.Buffer
	b.Grow(len(envelopeMagic) + 1 + len(hdr) + 1 + len(payload))
	b.WriteString(envelopeMagic)
	b.WriteByte('\n')
	b.Write(hdr)
	b.WriteByte('\n')
	b.Write(payload)
	return b.Bytes()
}

// decodeEnvelope verifies an on-disk envelope against the key it was looked
// up under and returns the payload. Every failure mode — short file, wrong
// magic, unparseable or foreign-version header, key mismatch, foreign
// tss.SimVersion, length or checksum mismatch — is an error, never a wrong
// payload; callers treat any error as a cache miss.
func decodeEnvelope(key string, b []byte) ([]byte, error) {
	if len(b) < len(envelopeMagic)+1 || string(b[:len(envelopeMagic)]) != envelopeMagic || b[len(envelopeMagic)] != '\n' {
		return nil, fmt.Errorf("envelope: bad magic")
	}
	rest := b[len(envelopeMagic)+1:]
	end := bytes.IndexByte(rest, '\n')
	if end < 0 || end > maxEnvelopeHeader {
		return nil, fmt.Errorf("envelope: missing or oversized header")
	}
	var hdr envelopeHeader
	if err := json.Unmarshal(rest[:end], &hdr); err != nil {
		return nil, fmt.Errorf("envelope: bad header: %w", err)
	}
	if hdr.V != envelopeVersion {
		return nil, fmt.Errorf("envelope: version %q, want %q", hdr.V, envelopeVersion)
	}
	if hdr.Key != key {
		return nil, fmt.Errorf("envelope: keyed %.12s…, looked up as %.12s…", hdr.Key, key)
	}
	if hdr.Sim != tss.SimVersion {
		return nil, fmt.Errorf("envelope: simulator version %q, want %q", hdr.Sim, tss.SimVersion)
	}
	payload := rest[end+1:]
	if int64(len(payload)) != hdr.Len {
		return nil, fmt.Errorf("envelope: %d payload bytes, header says %d", len(payload), hdr.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return nil, fmt.Errorf("envelope: payload checksum mismatch")
	}
	return payload, nil
}

// DiskStore is the persistent result store: one envelope file per key under
// dir, bounded by a total-byte budget with least-recently-used eviction.
// Recency is persisted as file mtime (refreshed on every hit), so the LRU
// order survives restarts. All methods are safe for concurrent use.
type DiskStore struct {
	dir      string
	maxBytes int64

	// halted freezes the store (Server.Kill crash simulation): reads miss,
	// writes vanish — the post-crash-instant I/O a real power cut loses.
	halted atomic.Bool
	// injector tears writes deterministically under chaos tests (nil in
	// production).
	injector atomic.Pointer[faults.Injector]

	mu      sync.Mutex
	entries map[string]*diskEntry
	bytes   int64
	tick    int64

	hits, misses, evictions, invalid uint64
}

// SetFaults installs (or, with nil, removes) a deterministic fault injector
// consulted on every write. Test instrumentation.
func (s *DiskStore) SetFaults(in *faults.Injector) { s.injector.Store(in) }

// halt freezes the store for crash simulation.
func (s *DiskStore) halt() { s.halted.Store(true) }

type diskEntry struct {
	size int64
	tick int64 // recency: higher = more recently used
}

// isResultKey reports whether name is a well-formed content address (the hex
// SHA-256 JobSpec.Key produces) — the only filenames the store creates or
// will read, so stray files in the directory are never touched.
func isResultKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// OpenDiskStore opens (creating if needed) the persistent store at dir with
// the given byte budget (non-positive: 1 GiB). Existing envelope files are
// indexed by mtime so the LRU order carries over from the previous process;
// if the directory already exceeds the budget, the oldest entries are
// evicted immediately.
func OpenDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	for _, de := range des {
		if de.IsDir() || !isResultKey(de.Name()) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with removal; skip
		}
		found = append(found, scanned{key: de.Name(), size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	s := &DiskStore{dir: dir, maxBytes: maxBytes, entries: make(map[string]*diskEntry, len(found))}
	for _, f := range found {
		s.tick++
		s.entries[f.key] = &diskEntry{size: f.size, tick: s.tick}
		s.bytes += f.size
	}
	s.evictLocked()
	return s, nil
}

// path returns the envelope file for a key.
func (s *DiskStore) path(key string) string { return filepath.Join(s.dir, key) }

// Get reads, verifies, and returns the payload stored for key. A verification
// failure removes the file and counts as a miss (plus the invalid counter) —
// a corrupted store degrades to re-simulation, never to wrong results. Hits
// refresh both the in-memory recency and the file mtime, so the LRU order
// survives a restart.
func (s *DiskStore) Get(key string) ([]byte, bool) {
	if !isResultKey(key) || s.halted.Load() {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	b, err := os.ReadFile(s.path(key))
	if err == nil {
		var payload []byte
		payload, err = decodeEnvelope(key, b)
		if err == nil {
			s.hits++
			s.tick++
			ent.tick = s.tick
			now := time.Now()
			os.Chtimes(s.path(key), now, now)
			return payload, true
		}
	}
	// Unreadable or failed verification: drop the entry so the key is
	// re-simulated and re-written cleanly.
	os.Remove(s.path(key))
	s.bytes -= ent.size
	delete(s.entries, key)
	s.invalid++
	s.misses++
	return nil, false
}

// Put writes the payload for key atomically and durably: temp file, fsync
// the file, rename into place, fsync the directory. Without the fsyncs the
// atomic-write design is a fair-weather claim — after a crash the kernel may
// surface a truncated envelope (data not yet flushed) or no file at all (the
// rename's directory entry not yet flushed), which is exactly the torn state
// the envelope checksums then catch only by discarding the result. A payload
// whose envelope exceeds the whole budget is not stored; a key already
// present is left untouched (content addressing makes rewrites pointless).
func (s *DiskStore) Put(key string, payload []byte) {
	if !isResultKey(key) || s.halted.Load() {
		return
	}
	env := encodeEnvelope(key, payload)
	// Deterministic crash simulation: a torn write keeps only a prefix and
	// skips every fsync, modeling a power cut mid-write. The truncated
	// envelope fails verification on the next Get and heals (miss + remove).
	torn := false
	if f := s.injector.Load().At(faults.StoreWrite); f.Kind == faults.Torn {
		n := f.After
		if n >= len(env) {
			n = len(env) / 2
		}
		env = env[:n]
		torn = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(len(env)) > s.maxBytes {
		return
	}
	if _, ok := s.entries[key]; ok {
		return
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(env)
	if werr == nil && !torn {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if !torn {
		syncDir(s.dir)
	}
	s.tick++
	s.entries[key] = &diskEntry{size: int64(len(env)), tick: s.tick}
	s.bytes += int64(len(env))
	s.evictLocked()
}

// evictLocked removes lowest-tick entries until the store fits its budget.
// Caller holds s.mu.
func (s *DiskStore) evictLocked() {
	for s.bytes > s.maxBytes && len(s.entries) > 0 {
		var oldestKey string
		var oldest *diskEntry
		for k, e := range s.entries {
			if oldest == nil || e.tick < oldest.tick {
				oldestKey, oldest = k, e
			}
		}
		os.Remove(s.path(oldestKey))
		s.bytes -= oldest.size
		delete(s.entries, oldestKey)
		s.evictions++
	}
}

// DiskStats is the persistent-layer section of /stats (CacheStats.Disk).
type DiskStats struct {
	// Dir is the store directory; Entries/Bytes its occupancy and MaxBytes
	// the configured budget.
	Dir      string `json:"dir"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
	// Hits, Misses, and Evictions count Get outcomes and budget evictions;
	// Invalid counts files dropped because they failed envelope
	// verification (truncation, corruption, foreign simulator version).
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Invalid   uint64 `json:"invalid"`
}

// Stats snapshots the store counters.
func (s *DiskStore) Stats() DiskStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DiskStats{
		Dir:       s.dir,
		Entries:   len(s.entries),
		Bytes:     s.bytes,
		MaxBytes:  s.maxBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Invalid:   s.invalid,
	}
}

func (s *DiskStore) stats() CacheStats {
	d := s.Stats()
	return CacheStats{Disk: &d}
}
