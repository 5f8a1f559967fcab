package harness

import (
	"fmt"
	"runtime"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/obs"
)

// jobsValues returns the worker counts the invariance tests sweep: the
// strict sequential path, a fixed parallel width, and whatever this
// machine's NumCPU resolves to.
func jobsValues() []int {
	vals := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		vals = append(vals, n)
	}
	return vals
}

// TestTablesJobsInvariance is the pool's core contract: the run-driving
// tables (3, 6, 7) render byte-identically whatever the worker count, and
// repeated renders at the same seed are byte-identical too. Table 8 joins
// the sweep to extend the property to fault-injected trials: its non-zero
// rates exercise every injector plus the retry/degradation machinery, and
// its output too must not depend on the worker count. Table 9 joins it to
// cover the generated-bug corpus: its per-program seeds derive from cell
// coordinates, never worker identity, so the bake-off is jobs-invariant
// too (a reduced per-cell count keeps the sweep fast). Every render past the
// reference arms a metrics sink, so the output must not depend on telemetry
// either.
func TestTablesJobsInvariance(t *testing.T) {
	base := Config{
		FailRuns:      3,
		SuccRuns:      3,
		CBIRuns:       20,
		OverheadRuns:  1,
		MaxAttempts:   200,
		Seed:          0,
		CorpusPerCell: 2,
	}
	for _, n := range []int{3, 6, 7, 8, 9} {
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			var ref string
			for _, jobs := range jobsValues() {
				cfg := base
				cfg.Jobs = jobs
				if ref != "" {
					cfg.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
				}
				out, err := RenderTable(n, cfg)
				if err != nil {
					t.Fatalf("RenderTable(%d) jobs=%d: %v", n, jobs, err)
				}
				if ref == "" {
					ref = out
					// Same seed, same jobs, fresh pool: must reproduce.
					again, err := RenderTable(n, cfg)
					if err != nil {
						t.Fatalf("re-render: %v", err)
					}
					if again != ref {
						t.Fatalf("table %d not reproducible at jobs=%d", n, jobs)
					}
					continue
				}
				if out != ref {
					t.Errorf("table %d differs between jobs=%d and jobs=%d:\n%s",
						n, jobsValues()[0], jobs, firstDiff(ref, out))
				}
			}
		})
	}
}

// TestDiagnosisLatencyJobsInvariance locks the §7.2 latency measurement to
// the same worker-count independence.
func TestDiagnosisLatencyJobsInvariance(t *testing.T) {
	a := apps.ByName("sort")
	if a == nil {
		t.Fatal("benchmark sort missing")
	}
	type result struct{ lbra, cbi int }
	var ref result
	for i, jobs := range jobsValues() {
		cfg := Config{FailRuns: 3, SuccRuns: 3, OverheadRuns: 1, MaxAttempts: 200, Jobs: jobs}
		lbra, cbi, err := DiagnosisLatency(a, 50, cfg)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		got := result{lbra, cbi}
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("jobs=%d: latency %+v, want %+v (jobs=%d)", jobs, got, ref, jobsValues()[0])
		}
	}
}
