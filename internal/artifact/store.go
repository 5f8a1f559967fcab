package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

// Store layout under one directory:
//
//	MANIFEST                journal of {key, sha, size} entries, append-only
//	blobs/<aa>/<sha256>     content-addressed payloads (aa = first hex byte)
//	quarantine/             blobs evicted after a checksum mismatch
//
// Keys are caller-chosen identity hashes (the harness hashes the trial's
// stream/index/kind/params/fault tuple); blob names are the payload's own
// SHA-256, so identical results dedupe and every load is self-verifying.
const (
	manifestName  = "MANIFEST"
	blobsDir      = "blobs"
	quarantineDir = "quarantine"
	tmpPrefix     = ".tmp-"
)

// Error is the typed artifact fault: a stored trial result that failed
// verification (or could not be read back). It rides the same degradation
// path as harness.TrialError — the caller quarantines, re-executes the
// trial, and only gives up through the insufficient-evidence verdict.
type Error struct {
	Key    string // store key of the damaged entry
	Path   string // file that failed verification ("" if missing)
	Reason string // human-readable cause ("checksum mismatch", "blob missing", ...)
	Err    error  // underlying error, if any
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("artifact %s: %s", short(e.Key), e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// short abbreviates a hex key for messages.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// manifestEntry is one journal record: key → blob identity.
type manifestEntry struct {
	Key  string `json:"key"`
	SHA  string `json:"sha"`
	Size int64  `json:"size"`
}

// Store is a content-addressed, checksummed result store. Put is called
// from the pool's commit scan (one goroutine, trial order); Load may be
// called concurrently from trial dispatch, so the index is read-locked.
type Store struct {
	dir      string
	manifest *Journal
	sink     *obs.Sink

	faults    faultinj.Spec
	faultSeed int64

	mu    sync.RWMutex
	index map[string]manifestEntry

	puts, putBytes, hits, misses, quarantined, putErrors *obs.Counter
}

// Open opens (creating if needed) the store rooted at dir. The manifest is
// scanned and salvaged like any journal: a torn tail is quarantined and the
// log truncated, so a SIGKILL mid-append costs at most the final record.
// Entries later in the manifest win, so a re-executed trial's fresh record
// shadows a quarantined one. sink may be nil; counters land under
// "artifact.*".
func Open(dir string, sink *obs.Sink) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, blobsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("artifact: create store dir: %w", err)
		}
	}
	j, recs, rep, err := OpenJournal(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		manifest: j,
		sink:     sink,
		index:    make(map[string]manifestEntry, len(recs)),

		puts:        sink.Counter("artifact.puts"),
		putBytes:    sink.Counter("artifact.put_bytes"),
		hits:        sink.Counter("artifact.hits"),
		misses:      sink.Counter("artifact.misses"),
		quarantined: sink.Counter("artifact.quarantined"),
		putErrors:   sink.Counter("artifact.put_errors"),
	}
	dropped := 0
	for _, rec := range recs {
		var e manifestEntry
		if err := json.Unmarshal(rec, &e); err != nil || e.Key == "" || !validSHA(e.SHA) {
			dropped++
			continue
		}
		s.index[e.Key] = e
	}
	sink.Counter("artifact.scan_records").Add(uint64(len(recs)))
	if rep.Salvaged() {
		sink.Counter("artifact.salvaged_opens").Inc()
		sink.Counter("artifact.salvage_dropped_bytes").Add(uint64(rep.DroppedBytes))
	}
	if dropped > 0 {
		sink.Counter("artifact.manifest_rejects").Add(uint64(dropped))
	}
	return s, nil
}

// validSHA reports whether sha is a blob name Put could have written: 64
// lowercase hex digits. Anything else in a manifest entry would index a
// path the store never wrote — a short name panics the blobs/<aa>/ split,
// and a "../" name reaches outside the store directory — so Open rejects
// the entry and its key becomes a miss.
func validSHA(sha string) bool {
	if len(sha) != 2*sha256.Size {
		return false
	}
	for _, c := range sha {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// WithFaults arms the store-layer injectors (artifact-torn-write,
// artifact-corrupt, journal-trunc). Plans derive from (spec, seed, stream,
// trial) exactly like the capture layers, so injected store damage is
// byte-reproducible for any worker count.
func (s *Store) WithFaults(spec faultinj.Spec, seed int64) *Store {
	s.faults, s.faultSeed = spec, seed
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of loadable keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Put persists one trial result under key. stream and trial are the trial's
// identity coordinates, used only to derive the deterministic fault plan
// for the store layers. Duplicate keys are no-ops (the result is already
// durable). Put errors are counted, not fatal: losing durability must never
// fail the trial that produced the result.
func (s *Store) Put(stream string, trial int, key string, payload []byte) error {
	s.mu.RLock()
	_, dup := s.index[key]
	s.mu.RUnlock()
	if dup {
		return nil
	}
	plan := faultinj.NewPlan(s.faults, s.faultSeed, stream, trial, 0, s.sink)

	sum := sha256.Sum256(payload)
	sha := hex.EncodeToString(sum[:])
	body := payload
	if plan.Hit(faultinj.ArtifactCorrupt) && len(payload) > 0 {
		// Silent media corruption: the blob lands with a flipped byte but
		// the manifest records the true hash, so a later Load catches it.
		body = append([]byte(nil), payload...)
		body[plan.TruncN(faultinj.ArtifactCorrupt, len(body))] ^= 0xff
	}
	if plan.Hit(faultinj.ArtifactTorn) {
		// Torn write: only a prefix reaches the final name.
		body = body[:plan.TruncN(faultinj.ArtifactTorn, len(body)+1)]
	}
	if err := s.writeBlob(sha, body); err != nil {
		s.putErrors.Inc()
		return &Error{Key: key, Reason: "write blob", Err: err}
	}
	rec, err := json.Marshal(manifestEntry{Key: key, SHA: sha, Size: int64(len(payload))})
	if err != nil {
		s.putErrors.Inc()
		return &Error{Key: key, Reason: "encode manifest entry", Err: err}
	}
	keep := -1
	if plan.Hit(faultinj.JournalTrunc) {
		// Torn journal append: the frame is cut mid-record, exactly what a
		// SIGKILL during the write syscall leaves behind.
		keep = plan.TruncN(faultinj.JournalTrunc, len(rec)+frameHeader)
	}
	if err := s.manifest.appendPrefix(rec, keep); err != nil {
		s.putErrors.Inc()
		return &Error{Key: key, Reason: "append manifest", Err: err}
	}
	s.mu.Lock()
	s.index[key] = manifestEntry{Key: key, SHA: sha, Size: int64(len(payload))}
	s.mu.Unlock()
	s.puts.Inc()
	s.putBytes.Add(uint64(len(payload)))
	return nil
}

// writeBlob stores body under its content address via temp file + rename,
// so a concurrent or crashed writer can never expose a half-written blob
// under the final name (torn injected writes excepted — that is the point).
func (s *Store) writeBlob(sha string, body []byte) error {
	dir := filepath.Join(s.dir, blobsDir, sha[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, sha)
	if _, err := os.Stat(final); err == nil {
		return nil // content-addressed: already present
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), final)
}

// Load fetches the payload stored under key. Returns (payload, true, nil)
// on a verified hit, (nil, false, nil) on a miss, and (nil, false, *Error)
// when the stored artifact failed verification — in which case the damaged
// blob has already been quarantined and the key forgotten, so the caller
// re-executes the trial and the fresh Put repairs the store.
func (s *Store) Load(key string) ([]byte, bool, error) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		s.misses.Inc()
		return nil, false, nil
	}
	path := filepath.Join(s.dir, blobsDir, e.SHA[:2], e.SHA)
	data, err := os.ReadFile(path)
	if err != nil {
		s.evict(key, "", e)
		return nil, false, &Error{Key: key, Path: path, Reason: "blob missing", Err: err}
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != e.SHA || int64(len(data)) != e.Size {
		s.evict(key, path, e)
		return nil, false, &Error{Key: key, Path: path, Reason: "checksum mismatch"}
	}
	s.hits.Inc()
	return data, true, nil
}

// evict quarantines a damaged blob (when path != "") and forgets its key.
// The manifest is not rewritten — the stale entry is shadowed by the fresh
// record the re-executed trial appends, and open-time replay keeps the
// last record per key.
func (s *Store) evict(key, path string, e manifestEntry) {
	if path != "" {
		os.Rename(path, filepath.Join(s.dir, quarantineDir, e.SHA))
	}
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
	s.quarantined.Inc()
}

// Close closes the manifest journal. Blobs need no teardown.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.manifest.Close()
}

// ManifestPath returns the manifest journal's path (tests truncate it to
// simulate kills at exact record boundaries).
func (s *Store) ManifestPath() string { return filepath.Join(s.dir, manifestName) }

// QuarantineDir returns the quarantine directory path.
func (s *Store) QuarantineDir() string { return filepath.Join(s.dir, quarantineDir) }

// BlobPath returns where the payload for key is stored, for tests that
// damage blobs directly. ok is false on a miss.
func (s *Store) BlobPath(key string) (string, bool) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return "", false
	}
	return filepath.Join(s.dir, blobsDir, e.SHA[:2], e.SHA), true
}
