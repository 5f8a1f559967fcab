// Package allocgate measures allocations per trial for the exact allocation
// gates (TestVMTrialAllocs in the root package, TestTrialAllocs in
// internal/harness). Allocation counts are a property of the code, not of
// the machine, so those tests hold them to fixed budgets.
package allocgate

import "runtime"

// PerTrial averages the allocations and allocated bytes of n calls of
// trial(i), i = 0..n-1, after one warm-up call that fills the build and
// program caches. It keeps the smallest of five such windows: a collection
// that empties the runtime's sync.Pools, or a map that draws a hash seed
// needing an overflow bucket, adds bytes to a window only now and then, and
// the minimum leaves them out.
func PerTrial(n int, trial func(i int)) (allocs, bytes uint64) {
	trial(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs, bytes = ^uint64(0), ^uint64(0)
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			trial(i)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/uint64(n))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(n))
	}
	return allocs, bytes
}
