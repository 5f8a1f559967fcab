//go:build !race

package stmdiag

// The deterministic half of BenchmarkVMTrial, gated exactly: one
// instrumented sort trial must stay within a fixed allocation budget. The
// race detector instruments allocations, so the gate runs without it.

import (
	"runtime"
	"testing"
)

const (
	maxTrialAllocs = 100
	maxTrialBytes  = 64 << 10
)

func TestVMTrialAllocs(t *testing.T) {
	inst := sortBuild(t)
	obsBenchRun(t, inst, nil, 0) // warm up one-time package state
	const n = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		obsBenchRun(t, inst, nil, int64(i))
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / n
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("per trial: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxTrialAllocs {
		t.Errorf("trial makes %d allocations, budget %d", allocs, maxTrialAllocs)
	}
	if bytes > maxTrialBytes {
		t.Errorf("trial allocates %d bytes, budget %d", bytes, maxTrialBytes)
	}
}
