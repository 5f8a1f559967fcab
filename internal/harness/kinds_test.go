package harness

import (
	"reflect"
	"testing"

	"stmdiag/internal/trace"
)

// TestReportBundleSeedSearch: the report-bundle kind keeps the report
// command's seed derivation (trial i runs seed start+i), so the search
// returns the first failing seed at or after the start for any worker
// count, and the bundle audits clean against ReportProgram.
func TestReportBundleSeedSearch(t *testing.T) {
	prog, err := ReportProgram("sort")
	if err != nil {
		t.Fatal(err)
	}
	var want ReportBundle
	for _, jobs := range []int{1, 4} {
		b, idx, err := FirstKind[ReportBundle](NewPool(jobs, nil), 400, "sort/report", "report-bundle",
			ReportParams{App: "sort", Seed: 3})
		if err != nil || idx < 0 {
			t.Fatalf("jobs=%d: idx=%d err=%v", jobs, idx, err)
		}
		if b.Seed != 3+int64(idx) {
			t.Errorf("jobs=%d: bundle seed %d at trial %d, want %d", jobs, b.Seed, idx, 3+idx)
		}
		if v := trace.Audit(prog, b.Data); len(v) > 0 {
			t.Errorf("jobs=%d: audit violations: %v", jobs, v)
		}
		if jobs == 1 {
			want = b
		} else if !reflect.DeepEqual(b, want) {
			t.Errorf("jobs=%d: bundle differs from jobs=1 (seed %d vs %d)", jobs, b.Seed, want.Seed)
		}
	}
}
