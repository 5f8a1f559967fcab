package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"stmdiag/internal/cache"
	"stmdiag/internal/core"
	"stmdiag/internal/isa"
)

func branchEvent(name string, edge isa.BranchEdge) core.Event {
	return core.Event{Kind: core.EventBranch, Branch: name, Edge: edge}
}

func coherenceEvent(file string, line int, kind cache.AccessKind, st cache.State) core.Event {
	return core.Event{Kind: core.EventCoherence, File: file, Line: line, Access: kind, State: st}
}

func sampleBatch() *Batch {
	return &Batch{
		Client: "machine-7",
		Subs: []Submission{
			{
				App:    "sort",
				Mode:   core.ModeLBR,
				Failed: true,
				Events: []core.Event{
					branchEvent("cmp", isa.EdgeTrue),
					branchEvent("swap", isa.EdgeFalse),
					{Kind: core.EventJump, File: "sort.c", Line: 12},
				},
			},
			{
				App:    "fft",
				Mode:   core.ModeLCR,
				Failed: false,
				Events: []core.Event{
					coherenceEvent("fft.c", 33, cache.Load, cache.State(0)),
				},
			},
			{App: "sort", Mode: core.ModeLBR, Failed: true}, // lost capture
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	want := sampleBatch()
	data, err := EncodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Version != WireVersion {
		t.Errorf("decoded version = %d, want %d", got.Version, WireVersion)
	}
}

func TestBatchRoundTripGzip(t *testing.T) {
	want := sampleBatch()
	data, err := EncodeBatchGzip(want)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := EncodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	// The compressed form must actually be gzip, not passthrough.
	if bytes.Equal(data, plain) {
		t.Fatal("EncodeBatchGzip returned the plain encoding")
	}
	got, err := DecodeBatch(bytes.NewReader(data), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gzip round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"bad json", `{`, "decode batch"},
		{"wrong version", `{"v": 99, "subs": []}`, "wire version 99"},
		{"missing version", `{"subs": []}`, "wire version 0"},
		{"unknown field", `{"v": 2, "subs": [], "extra": true}`, "decode batch"},
		{"empty app", `{"v": 2, "subs": [{"app": "", "mode": 0, "failed": true}]}`, "no app"},
		{"bad mode", `{"v": 2, "subs": [{"app": "x", "mode": 9, "failed": true}]}`, "unknown mode"},
	}
	for _, c := range cases {
		if _, err := DecodeBatch(strings.NewReader(c.body), false); err == nil {
			t.Errorf("%s: decode accepted %q", c.name, c.body)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if _, err := DecodeBatch(strings.NewReader("not gzip"), true); err == nil {
		t.Error("decode accepted a non-gzip body marked gzipped")
	}
}

func TestDedupEvents(t *testing.T) {
	a := branchEvent("a", isa.EdgeTrue)
	b := branchEvent("b", isa.EdgeFalse)
	got := DedupEvents([]core.Event{a, b, a, a, b})
	if !reflect.DeepEqual(got, []core.Event{a, b}) {
		t.Errorf("DedupEvents = %v", got)
	}
	if DedupEvents(nil) != nil {
		t.Error("DedupEvents(nil) != nil")
	}
}

// FuzzDecodeBatch hardens the ingest decoder against arbitrary bodies,
// plain or gzip'd: it must never panic, and any batch it accepts must pass
// the version, app and mode checks and survive a re-encode round trip.
// The committed corpus (testdata/fuzz/FuzzDecodeBatch) holds a valid
// batch, a truncated gzip stream, an unknown field and a wrong version.
func FuzzDecodeBatch(f *testing.F) {
	plain, err := EncodeBatch(sampleBatch())
	if err != nil {
		f.Fatal(err)
	}
	gz, err := EncodeBatchGzip(sampleBatch())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain, false)
	f.Add(gz, true)
	f.Add([]byte(`{"v":2,"subs":[{"app":"","mode":0}]}`), false)
	f.Add([]byte(`{"v":2,"subs":[{"app":"sort","mode":7}]}`), false)
	f.Fuzz(func(t *testing.T, body []byte, gzipped bool) {
		b, err := DecodeBatch(bytes.NewReader(body), gzipped)
		if err != nil {
			if b != nil {
				t.Fatalf("rejected batch returned alongside error %v", err)
			}
			return
		}
		if b.Version != WireVersion {
			t.Fatalf("accepted wire version %d", b.Version)
		}
		for i, s := range b.Subs {
			if s.App == "" {
				t.Fatalf("accepted submission %d without an app", i)
			}
			if s.Mode != core.ModeLBR && s.Mode != core.ModeLCR {
				t.Fatalf("accepted submission %d with mode %d", i, s.Mode)
			}
		}
		data, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if _, err := DecodeBatch(bytes.NewReader(data), false); err != nil {
			t.Fatalf("re-encoded batch rejected: %v\n%s", err, data)
		}
	})
}

// benchBatch is BenchmarkFleetIngest's fixed batch: 64 profiles of the
// seed-1 random population.
func benchBatch() *Batch {
	return &Batch{Client: "bench", Subs: randomSubmissions(1, 64)}
}

// TestBenchBatchBytes gates the wire size of benchBatch exactly, plain and
// gzipped: bytes per profile are a deterministic function of the wire
// format, so any change to it shows here.
func TestBenchBatchBytes(t *testing.T) {
	const wantPlain, wantGzip = 14975, 801
	plain, err := EncodeBatch(benchBatch())
	if err != nil {
		t.Fatal(err)
	}
	gz, err := EncodeBatchGzip(benchBatch())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != wantPlain || len(gz) != wantGzip {
		t.Errorf("64-profile batch = %d bytes plain, %d gzipped; golden %d, %d",
			len(plain), len(gz), wantPlain, wantGzip)
	}
}
