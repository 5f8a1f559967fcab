package harness

import (
	"reflect"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/synth"
	"stmdiag/internal/vm"
)

func TestCoverageTHeMEStyle(t *testing.T) {
	// A synthetic program spreads one-shot branches across the whole run,
	// so sampling density genuinely trades coverage against overhead.
	p := synth.MustGenerate("cov", synth.Config{Seed: 5, Funcs: 12, StmtsPerFunc: 40})
	dense, err := RunCoverage(p, vm.Options{Seed: 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := RunCoverage(p, vm.Options{Seed: 1}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dense:  coverage=%.2f samples=%d overhead=%.1f%%", dense.Coverage, dense.Samples, 100*dense.Overhead)
	t.Logf("sparse: coverage=%.2f samples=%d overhead=%.1f%%", sparse.Coverage, sparse.Samples, 100*sparse.Overhead)

	if dense.ExecutedEdges == 0 {
		t.Fatal("no ground-truth edges")
	}
	if dense.Coverage < 0.9 {
		t.Errorf("dense sampling coverage = %.2f, want >= 0.9", dense.Coverage)
	}
	if sparse.Coverage >= dense.Coverage {
		t.Errorf("sparse coverage %.2f not below dense %.2f", sparse.Coverage, dense.Coverage)
	}
	if sparse.Overhead >= dense.Overhead {
		t.Errorf("sparse overhead %.3f not below dense %.3f", sparse.Overhead, dense.Overhead)
	}
	// The paper's §8 point: periodic profiling throughout the run costs
	// far more than LBRLOG's fraction-of-a-percent profile-at-failure.
	if dense.Overhead < 0.05 {
		t.Errorf("dense THeME overhead = %.3f, implausibly low", dense.Overhead)
	}
}

func TestCoverageConcurrentProgram(t *testing.T) {
	// Multi-core runs drain every core's LBR; coverage still works.
	a := apps.ByName("Mozilla-JS3")
	res, err := RunCoverage(a.Program(), a.Fail.VMOptions(2), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedEdges == 0 || res.CoveredEdges == 0 {
		t.Errorf("no edges covered on a concurrent program: %+v", res)
	}
}

// TestCoverageSweepMatchesRunCoverage: the sweep runs each period as a
// coverage trial (params and result crossing JSON) and must return exactly
// what RunCoverage measures directly, in period order, for any worker
// count.
func TestCoverageSweepMatchesRunCoverage(t *testing.T) {
	src := CoverageSource{Seed: 1, Synth: &synth.Config{Seed: 5, Funcs: 6, StmtsPerFunc: 20}}
	periods := []int{5000, 50, 500}
	p, opts, err := src.Program()
	if err != nil {
		t.Fatal(err)
	}
	var want []*CoverageResult
	for _, period := range periods {
		res, err := RunCoverage(p, opts, period)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	for _, jobs := range []int{1, 3} {
		got, err := CoverageSweep(src, periods, NewPool(jobs, nil))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: sweep = %+v, want %+v", jobs, got, want)
		}
	}
}
