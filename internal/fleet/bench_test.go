package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"stmdiag/internal/obs"
)

// BenchmarkFleetIngest measures end-to-end ingest throughput: pre-encoded
// gzip batches POSTed over loopback HTTP into the sharded store, parallel
// submitters. Reports profiles/sec (scripts/benchjson holds its median to
// a 10k/s floor) and shard-wait-ns/op, the lock-contention cost per batch.
// TestBenchBatchBytes gates the batch's wire size exactly.
func BenchmarkFleetIngest(b *testing.B) {
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	store := NewStore(StoreOptions{Sink: sink})
	srv := httptest.NewServer(NewService(store, nil, sink).Handler())
	defer srv.Close()

	data, err := EncodeBatchGzip(benchBatch())
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := srv.Client()
		for pb.Next() {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/fleet/ingest", bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Encoding", "gzip")
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("ingest: %s", resp.Status)
			}
		}
	})
	b.StopTimer()

	snap := sink.Metrics.Snapshot()
	var waitNS uint64
	for i := 0; i < store.Shards(); i++ {
		waitNS += snap.Counter(fmt.Sprintf("fleet.store.shard%d.wait_ns", i))
	}
	profiles := float64(snap.Counter("fleet.ingest.profiles"))
	b.ReportMetric(profiles/b.Elapsed().Seconds(), "profiles/sec")
	b.ReportMetric(float64(waitNS)/float64(b.N), "shard-wait-ns/op")
}
