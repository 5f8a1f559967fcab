package harness

import (
	"reflect"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
)

// TestDiagnosisProfilesMatchMonolithicCapture pins the fleet capture's
// profiles and diagnosis under the worker count; the comparison with the
// table rows is TestDiagnosisProfilesRankMatchesTables.
func TestDiagnosisProfilesMatchMonolithicCapture(t *testing.T) {
	a := apps.ByName("sort")
	cfg := Config{FailRuns: 3, SuccRuns: 3, Seed: 5, Jobs: 1}
	mode, fail, succ, err := DiagnosisProfiles(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mode != core.ModeLBR {
		t.Errorf("mode = %v, want LBR for a sequential benchmark", mode)
	}
	if len(fail) != 3 || len(succ) != 3 {
		t.Fatalf("profiles: %d fail, %d succ", len(fail), len(succ))
	}
	rep, err := core.Diagnose(mode, fail, succ)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Render(10)

	cfg.Jobs = 4
	mode4, fail4, succ4, err := DiagnosisProfiles(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mode4 != mode || !reflect.DeepEqual(profilesOf(fail4), profilesOf(fail)) ||
		!reflect.DeepEqual(profilesOf(succ4), profilesOf(succ)) {
		t.Error("profiles differ between -jobs 1 and -jobs 4")
	}
	rep4, err := core.Diagnose(mode4, fail4, succ4)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep4.Render(10); got != want {
		t.Errorf("diagnosis differs across -jobs:\n%s\nvs\n%s", got, want)
	}
}

func profilesOf(runs []core.ProfiledRun) (out []interface{}) {
	for _, r := range runs {
		out = append(out, r.Profile)
	}
	return
}

func TestDiagnosisProfilesConcurrentMode(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent capture is attempt-heavy")
	}
	a := apps.Concurrent()[0]
	mode, fail, succ, err := DiagnosisProfiles(a, Config{FailRuns: 2, SuccRuns: 2, Seed: 1, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mode != core.ModeLCR {
		t.Errorf("mode = %v, want LCR for a concurrency benchmark", mode)
	}
	if len(fail) != 2 || len(succ) != 2 {
		t.Errorf("profiles: %d fail, %d succ", len(fail), len(succ))
	}
}

// TestDiagnosisProfilesRankMatchesTables: the fleet client diagnoses what
// the tables diagnose. Ranking DiagnosisProfiles' capture puts the root
// cause exactly where RunSequential's LBRA column and RunConcurrent's LCRA
// column put it, at every worker count. LCRA's column zeroes a rank whose
// score is under 0.75, so the test requires a ranked root cause: equal
// nonzero ranks mean equal ranks before that threshold too. The record
// columns read from the failure profiles (Table 6's LBRLOG rank with
// toggling, Table 7's Conf2 depth) must match as well; they move with the
// deployed build and LCR configuration, which a top-ranked root cause
// alone may not.
func TestDiagnosisProfilesRankMatchesTables(t *testing.T) {
	for _, name := range []string{"sort", "Mozilla-JS3"} {
		a := apps.ByName(name)
		for _, jobs := range []int{1, 4} {
			cfg := Config{FailRuns: 4, SuccRuns: 4, CBIRuns: 20, OverheadRuns: 1, Seed: 3, Jobs: jobs}
			mode, fail, succ, err := DiagnosisProfiles(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.DiagnoseWith(mode, cfg.Ranker, fail, succ)
			if err != nil {
				t.Fatal(err)
			}
			var got, want, gotRec, wantRec int
			if a.Class.Concurrent() {
				got = rep.RankOfCoherence(fpeMatch(a.FPE))
				gotRec = modalRank(coherenceRanks(fail, a.FPE))
				row, err := RunConcurrent(a, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRec = row.LCRARank, row.RankConf2
			} else {
				got = rep.RankOfBranchEdge(a.RootBranch, a.BuggyEdge)
				gotRec, _ = rankWithFallback(a, fail[0])
				row, err := RunSequential(a, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRec = row.LBRARank, row.RankTog
			}
			if got == 0 || got != want {
				t.Errorf("%s jobs=%d: fleet capture ranks the root cause %d, table row %d", name, jobs, got, want)
			}
			if gotRec == 0 || gotRec != wantRec {
				t.Errorf("%s jobs=%d: fleet capture records the root cause at depth %d, table row %d",
					name, jobs, gotRec, wantRec)
			}
		}
	}
}
