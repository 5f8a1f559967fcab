//go:build !race

package harness

// The allocation gate of the trial kinds, beside the root package's plain
// VM trial gate (TestVMTrialAllocs): one unarmed trial through the engine's
// attempt loop (executeWire), at fixed seeds. The race detector instruments
// allocations, so the gate runs without it.

import (
	"encoding/json"
	"testing"

	"stmdiag/internal/allocgate"
	"stmdiag/internal/core"
)

// TestTrialAllocs gates each kind's trial at the highest per-trial figures
// seen over -count=300 runs: allocation counts are a property of the code,
// not of the machine, so any growth is a change to review.
func TestTrialAllocs(t *testing.T) {
	for _, tc := range []struct {
		kind          string
		params        any
		allocs, bytes uint64
	}{
		{"profile", profileParams{App: "sort", Build: core.Options{LBR: true, Toggling: true}, WantFail: true, Seed: 1}, 75, 46352},
		{"cbi-run", cbiRunParams{App: "sort", Rate: 0.01, Seed: 1}, 96, 51279},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			raw, err := json.Marshal(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes := allocgate.PerTrial(20, func(i int) {
				resp := executeWire(&TrialRequest{Stream: "allocs", Index: i, Kind: tc.kind, Params: raw})
				if !resp.OK {
					t.Fatalf("trial %d not accepted: %+v", i, resp)
				}
			})
			t.Logf("per trial: %d allocs, %d bytes", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%s trial makes %d allocations, budget %d", tc.kind, allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("%s trial allocates %d bytes, budget %d", tc.kind, bytes, tc.bytes)
			}
		})
	}
}
