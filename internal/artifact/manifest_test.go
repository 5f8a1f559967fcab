package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// victimBytes is the content of a file planted beside the store directory;
// no manifest may read, move or alter it.
var victimBytes = []byte("outside the store")

// storeBeside lays out root/store (with the given MANIFEST bytes) and
// root/victim, returning the store directory and the victim path.
func storeBeside(t *testing.T, manifest []byte) (dir, victim string) {
	t.Helper()
	root := t.TempDir()
	dir, victim = filepath.Join(root, "store"), filepath.Join(root, "victim")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, victimBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, victim
}

// checkContained loads every indexed key and a few absent ones, then
// verifies that each indexed blob path stays under dir and that the victim
// beside the store is untouched.
func checkContained(t *testing.T, s *Store, dir, victim string) {
	t.Helper()
	s.mu.RLock()
	var keys []string
	for k, e := range s.index {
		keys = append(keys, k)
		p := filepath.Join(s.dir, blobsDir, e.SHA[:2], e.SHA)
		if rel, err := filepath.Rel(dir, p); err != nil || strings.HasPrefix(rel, "..") {
			t.Errorf("key %q indexes %s, outside the store", k, p)
		}
	}
	s.mu.RUnlock()
	for _, k := range append(keys, "", "k", "absent") {
		s.Load(k) //nolint:errcheck // damaged entries are expected; only panics and escapes fail
	}
	if got, err := os.ReadFile(victim); err != nil || !bytes.Equal(got, victimBytes) {
		t.Errorf("file beside the store was moved or altered: %q, %v", got, err)
	}
}

// TestStoreRejectsMalformedSHA: a CRC-valid manifest record whose sha is
// not a 64-hex blob name is rejected at Open (counted, key missing), so
// Load neither panics on a short name nor reads or quarantines a file
// outside the store through a "../" name. The good record still loads.
func TestStoreRejectsMalformedSHA(t *testing.T) {
	dir, victim := storeBeside(t, nil)
	good, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Put("s", 0, "good", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	good.Close()
	j, _, _, err := OpenJournal(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"key":"short","sha":"a","size":1}`,
		`{"key":"escape","sha":"../victim","size":17}`,
		`{"key":"upper","sha":"` + strings.Repeat("A", 64) + `","size":1}`,
	} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	sink := testSink()
	s, err := Open(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := sink.Counter("artifact.manifest_rejects").Value(); got != 3 {
		t.Errorf("artifact.manifest_rejects = %d, want 3", got)
	}
	for _, key := range []string{"short", "escape", "upper"} {
		if data, ok, err := s.Load(key); ok || err != nil || data != nil {
			t.Errorf("Load(%q) = %q, %v, %v; want a plain miss", key, data, ok, err)
		}
	}
	if data, ok, err := s.Load("good"); !ok || err != nil || string(data) != "payload" {
		t.Errorf("Load(good) = %q, %v, %v", data, ok, err)
	}
	checkContained(t, s, dir, victim)
	if entries, _ := os.ReadDir(s.QuarantineDir()); len(entries) != 0 {
		t.Errorf("quarantine holds %d entries, want none", len(entries))
	}
}

// FuzzOpenManifest: arbitrary manifest bytes — used as the MANIFEST file
// itself and framed as a single record — never panic Open or Load of any
// key, and nothing outside the store directory is read or moved.
// The committed corpus (testdata/fuzz/FuzzOpenManifest) holds a clean
// two-record manifest, a torn tail, a short sha and a "../" sha.
func FuzzOpenManifest(f *testing.F) {
	f.Add([]byte(`{"key":"k","sha":"../victim","size":17}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, manifest := range [][]byte{data, frame(data)} {
			dir, victim := storeBeside(t, manifest)
			s, err := Open(dir, testSink())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			checkContained(t, s, dir, victim)
			s.Close()
		}
	})
}
