package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stmdiag/internal/core"
	"stmdiag/internal/synth"
)

// wireSamples holds one representative request's params for every
// registered trial kind, the test-only test-script kind included.
var wireSamples = map[string]any{
	"profile":        profileParams{App: "sort", Build: core.Options{LBR: true, Toggling: true}, WantFail: true, Seed: 1},
	"cbi-run":        cbiRunParams{App: "sort", Rate: 0.01, Seed: 1},
	"mean-cycles":    ovParams(),
	"corpus-program": corpusParams{PerCell: 1, MaxAttempts: 200, FailRuns: 4, SuccRuns: 4},
	"coverage":       coverageParams{Source: CoverageSource{Seed: 1, Synth: &synth.Config{Seed: 5, Funcs: 6, StmtsPerFunc: 20}}, Periods: []int{100}},
	"report-bundle":  ReportParams{App: "sort", Seed: 3},
	"test-script":    script(),
}

// wireBytes is one kind's trial size on the worker wire: the encoded
// request and response, unarmed and with every telemetry instrument armed.
type wireBytes struct {
	Request       int `json:"request"`
	Response      int `json:"response"`
	ArmedRequest  int `json:"armedRequest"`
	ArmedResponse int `json:"armedResponse"`
}

// encodedSizes executes trial 0 of the kind's sample request and returns
// the byte counts of the request and of the response as a worker sends
// them (a session's first response ships uncompacted).
func encodedSizes(t *testing.T, kind string, armed bool) (req, resp int) {
	t.Helper()
	raw, err := json.Marshal(wireSamples[kind])
	if err != nil {
		t.Fatal(err)
	}
	r := &TrialRequest{Stream: "wire/" + kind, Kind: kind, Params: raw}
	if armed {
		r.Metrics, r.Flight, r.Trace, r.Profiling = true, true, true, true
		r.RunID = RunID(0, "wire-bytes")
	}
	rb, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	res := executeWire(r)
	if err := res.respErr(); err != nil {
		t.Fatalf("%s trial: %v", kind, err)
	}
	sb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return len(rb), len(sb)
}

// TestWireBytesGolden gates the encoded size of one trial of every kind,
// exactly: wire bytes per trial are a deterministic function of the
// request, so any change to the protocol, a kind's result type or the
// telemetry it ships shows here. Regenerate after an intended change with
//
//	go test ./internal/harness -run TestWireBytesGolden -update
func TestWireBytesGolden(t *testing.T) {
	got := map[string]wireBytes{}
	for kind := range trialKinds {
		if _, ok := wireSamples[kind]; !ok {
			t.Fatalf("kind %q has no sample request in wireSamples", kind)
		}
		var w wireBytes
		w.Request, w.Response = encodedSizes(t, kind, false)
		w.ArmedRequest, w.ArmedResponse = encodedSizes(t, kind, true)
		got[kind] = w
	}
	path := filepath.Join("testdata", "golden", "wire_bytes.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want map[string]wireBytes
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire bytes per trial drifted from golden:\n  got    %+v\n  golden %+v\nregenerate with -update if the change is intended", got, want)
	}
}
