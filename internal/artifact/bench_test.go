package artifact

import (
	"fmt"
	"testing"
)

// benchPayload is sized like a realistic stored TrialResponse (a JSON value
// plus a small metrics snapshot).
func benchPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"value":%d,"ok":true,"metrics":{"counters":{"harness.pool.trials":1,"vm.cycles":%d}}}`,
		i, i*7919))
}

// BenchmarkArtifactCommit measures the write path a run pays per committed
// trial: manifest append + CAS blob write, reported as trials/sec
// (scripts/benchjson records it as artifact_commit_trials_per_sec).
func BenchmarkArtifactCommit(b *testing.B) {
	s, err := Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("bench", i, fmt.Sprintf("key-%d", i), benchPayload(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
}

// BenchmarkArtifactResume measures the resume-scan overhead: one Open
// replays a populated manifest (1000 committed trials) into the index,
// reported as replayed records/sec (artifact_replay_recs_per_sec).
func BenchmarkArtifactResume(b *testing.B) {
	const recs = 1000
	dir := b.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < recs; i++ {
		if err := s.Put("bench", i, fmt.Sprintf("key-%d", i), benchPayload(i)); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != recs {
			b.Fatalf("replayed %d records, want %d", s.Len(), recs)
		}
		s.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(recs*b.N)/b.Elapsed().Seconds(), "replay-recs/sec")
}
