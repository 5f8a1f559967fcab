package fleet

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stmdiag/internal/core"
	"stmdiag/internal/obs"
	"stmdiag/internal/stats"
)

func newTestService(t *testing.T) (*Service, *httptest.Server, *obs.Sink) {
	t.Helper()
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	svc := NewService(NewStore(StoreOptions{Sink: sink}), nil, sink)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv, sink
}

func postBatch(t *testing.T, url string, b *Batch, gzipped bool) *http.Response {
	t.Helper()
	var (
		data []byte
		err  error
	)
	if gzipped {
		data, err = EncodeBatchGzip(b)
	} else {
		data, err = EncodeBatch(b)
	}
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/fleet/ingest", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServiceIngestPlainAndGzip(t *testing.T) {
	_, srv, sink := newTestService(t)
	for i, gzipped := range []bool{false, true} {
		resp := postBatch(t, srv.URL, sampleBatch(), gzipped)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gzip=%v: status %s", gzipped, resp.Status)
		}
		body, _ := io.ReadAll(resp.Body)
		if got := strings.TrimSpace(string(body)); got != `{"accepted": 3}` {
			t.Errorf("gzip=%v: body %q", gzipped, got)
		}
		snap := sink.Metrics.Snapshot()
		if got := snap.Counter("fleet.ingest.batches"); got != uint64(i+1) {
			t.Errorf("batches = %d after %d posts", got, i+1)
		}
		if got := snap.Counter("fleet.ingest.profiles"); got != uint64(3*(i+1)) {
			t.Errorf("profiles = %d after %d posts", got, i+1)
		}
	}
	if got := sink.Metrics.Snapshot().Counter("fleet.ingest.bytes"); got == 0 {
		t.Error("ingest byte counter never advanced")
	}
}

func TestServiceIngestRejects(t *testing.T) {
	_, srv, sink := newTestService(t)

	// Non-POST: 405 with Allow.
	resp, err := http.Get(srv.URL + "/fleet/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET ingest: status %s, Allow %q", resp.Status, resp.Header.Get("Allow"))
	}

	// Bad version: 400 and the rejected counter moves.
	resp, err = http.Post(srv.URL+"/fleet/ingest", "application/json",
		strings.NewReader(`{"v": 99, "subs": []}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad version: status %s", resp.Status)
	}
	if !strings.Contains(string(body), "wire version") {
		t.Errorf("bad version error body %q", body)
	}
	if got := sink.Metrics.Snapshot().Counter("fleet.ingest.rejected"); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	// Declared gzip but plain body: 400, not a hang or 500.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/fleet/ingest",
		strings.NewReader(`{"v": 1, "subs": []}`))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fake gzip: status %s", resp.Status)
	}
}

// TestServiceIngestRejectsGzipBomb: MaxBatchBytes bounds the inflated
// batch, not just the compressed body. A few-KiB gzip body that inflates
// to a well-formed batch past the cap must take the 400 + rejected path
// instead of being decoded into memory.
func TestServiceIngestRejectsGzipBomb(t *testing.T) {
	_, srv, sink := newTestService(t)
	var raw bytes.Buffer
	raw.WriteString(`{"v": 2, "subs": [], "client": "`)
	raw.Write(bytes.Repeat([]byte("a"), MaxBatchBytes+1))
	raw.WriteString(`"}`)
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if body.Len() > 64<<10 {
		t.Fatalf("bomb body is %d bytes; want a small compressed request", body.Len())
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/fleet/ingest", &body)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gzip bomb: status %s, want 400", resp.Status)
	}
	if !strings.Contains(string(msg), "exceeds") {
		t.Errorf("gzip bomb error body %q does not name the cap", msg)
	}
	snap := sink.Metrics.Snapshot()
	if got := snap.Counter("fleet.ingest.rejected"); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := snap.Counter("fleet.ingest.batches"); got != 0 {
		t.Errorf("batches = %d, want 0 (the bomb must not commit)", got)
	}
}

func TestServiceReportMatchesCoreRender(t *testing.T) {
	_, srv, _ := newTestService(t)
	subs := randomSubmissions(5, 40)
	var batchSubs []Submission
	for _, s := range subs {
		if s.App == "alpha" {
			batchSubs = append(batchSubs, s)
		}
	}
	if resp := postBatch(t, srv.URL, &Batch{Client: "t", Subs: batchSubs}, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s", resp.Status)
	}

	// Reference: the monolithic Report over the same runs, same Render.
	var failRuns, succRuns int
	for _, s := range batchSubs {
		if s.Failed {
			failRuns++
		} else {
			succRuns++
		}
	}
	want := (&core.Report{
		Mode:        core.ModeLBR,
		Ranking:     monolithicRank(batchSubs, "alpha"),
		FailureRuns: failRuns,
		SuccessRuns: succRuns,
		Verdict:     verdictOf(batchSubs),
	}).Render(5)

	resp, err := http.Get(srv.URL + "/fleet/report?app=alpha&k=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %s (%s)", resp.Status, body)
	}
	if string(body) != want {
		t.Errorf("/fleet/report differs from core render\ngot:\n%s\nwant:\n%s", body, want)
	}

	// Single known app: ?app= may be omitted.
	resp, err = http.Get(srv.URL + "/fleet/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("default-app report: %s", resp.Status)
	}
}

func TestServiceReportValidation(t *testing.T) {
	_, srv, _ := newTestService(t)
	postBatch(t, srv.URL, sampleBatch(), false) // two apps: sort, fft

	cases := []struct {
		path string
		code int
	}{
		{"/fleet/report", http.StatusBadRequest}, // ambiguous app
		{"/fleet/report?app=sort&k=0", http.StatusBadRequest},
		{"/fleet/report?app=sort&k=x", http.StatusBadRequest},
		{"/fleet/report?app=nope", http.StatusNotFound},
		{"/fleet/report?app=fft", http.StatusNotFound}, // success-only app
		{"/fleet/report?app=sort&k=3", http.StatusOK},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.code)
		}
	}

	resp, err := http.Post(srv.URL+"/fleet/report?app=sort", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("POST report: status %s, Allow %q", resp.Status, resp.Header.Get("Allow"))
	}
}

func TestServiceStats(t *testing.T) {
	_, srv, _ := newTestService(t)
	postBatch(t, srv.URL, sampleBatch(), true)

	resp, err := http.Get(srv.URL + "/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump StatsDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Shards != DefaultShards || dump.Batches != 1 || dump.Profiles != 3 || dump.Rejected != 0 {
		t.Errorf("stats dump %+v", dump)
	}
	if len(dump.Apps) != 2 || dump.Apps[0].App != "fft" || dump.Apps[1].App != "sort" {
		t.Errorf("apps %+v (want sorted fft, sort)", dump.Apps)
	}
	if got := dump.Apps[1]; got.FailRuns != 2 || got.UsableFail != 1 || got.Mode != "LBRA" {
		t.Errorf("sort totals %+v", got)
	}

	resp, err = http.Post(srv.URL+"/fleet/stats", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: %s", resp.Status)
	}
}

// TestServiceBasePassthrough pins that non-/fleet paths fall through to the
// wrapped base handler (obshttp in production) and 404 without one.
func TestServiceBasePassthrough(t *testing.T) {
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "base:"+r.URL.Path)
	})
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	svc := NewService(NewStore(StoreOptions{}), base, sink)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "base:/metrics" {
		t.Errorf("passthrough body %q", body)
	}

	_, srvNoBase, _ := newTestService(t)
	resp, err = http.Get(srvNoBase.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no base: /metrics status %s, want 404", resp.Status)
	}
}

// verdictOf mirrors the monolithic usable-failure verdict for a run set.
func verdictOf(subs []Submission) stats.Verdict {
	var failTotal, usable int
	for _, s := range subs {
		if s.Failed {
			failTotal++
			if len(s.Events) > 0 {
				usable++
			}
		}
	}
	return stats.AssessCounts(failTotal, usable)
}
