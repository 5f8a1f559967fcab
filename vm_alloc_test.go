//go:build !race

package stmdiag

// The deterministic half of BenchmarkVMTrial, gated exactly: one
// instrumented sort trial, plain and profiled, must stay within a fixed
// allocation budget. The race detector instruments allocations, so the
// gate runs without it.

import (
	"testing"

	"stmdiag/internal/allocgate"
	"stmdiag/internal/obs"
)

// TestVMTrialAllocs gates each trial at the highest per-trial figures seen
// over -count=300 runs: allocation counts are a property of the code, not of
// the machine, so any growth is a change to review.
func TestVMTrialAllocs(t *testing.T) {
	inst := sortBuild(t)
	for _, tc := range []struct {
		name          string
		sink          *obs.Sink
		allocs, bytes uint64
	}{
		{"sort", nil, 50, 43848},
		{"sort-profiled", newProfilingSink(), 144, 46632},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, bytes := allocgate.PerTrial(20, func(i int) { obsBenchRun(t, inst, tc.sink, int64(i)) })
			t.Logf("per trial: %d allocs, %d bytes", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("trial makes %d allocations, budget %d", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("trial allocates %d bytes, budget %d", bytes, tc.bytes)
			}
		})
	}
}
