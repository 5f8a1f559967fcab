package stmdiag

// BenchmarkVMTrial is the interpreter throughput benchmark: one full
// instrumented sort trial per iteration (the same workload the harness
// fans out), reporting retired instructions per second alongside the
// allocation figures -benchmem emits. scripts/benchjson records its
// medians in BENCH_vm.json as the baseline the ROADMAP's VM-speed work
// measures against; TestVMTrialAllocs gates the allocation figures
// exactly.

import "testing"

func BenchmarkVMTrial(b *testing.B) {
	inst := sortBuild(b)
	b.ReportAllocs()
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := obsBenchRun(b, inst, nil, int64(i))
		steps += res.Steps
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(steps)/secs, "instrs/sec")
	}
}

// BenchmarkVMTrialProfiled is the same trial with the cost-attribution
// profiler armed, so `make microbench` shows the profiling tax next to the
// plain run (the acceptance bound for the profiler-off path lives in
// TestObsNilSinkFree / BenchmarkObsOverhead).
func BenchmarkVMTrialProfiled(b *testing.B) {
	inst := sortBuild(b)
	sink := newProfilingSink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obsBenchRun(b, inst, sink, int64(i))
	}
}
