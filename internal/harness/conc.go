package harness

import (
	"sort"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
)

// ConcResult is one concurrency benchmark's Table 7 row.
type ConcResult struct {
	// App is the benchmark.
	App *apps.App
	// RankConf1 and RankConf2 are the LCR entry positions (1 = latest) of
	// the failure-predicting event in the failure-run profile under the
	// space-saving and space-consuming configurations; 0 means the event
	// was missed (or does not exist).
	RankConf1, RankConf2 int
	// LCRARank is the FPE's position in LCRA's predictor ranking (Conf2);
	// 0 means missed.
	LCRARank int
	// FailRate is the observed failure probability of the failure
	// workload, a sanity signal for the interleaving engineering.
	FailRate float64
	// Metrics is this row's telemetry delta, nil without a metrics sink.
	Metrics *obs.Snapshot
}

// fpeMatch builds an event predicate from an FPE description.
func fpeMatch(want *apps.FPEWant) func(core.Event) bool {
	return func(e core.Event) bool {
		return e.Kind == core.EventCoherence &&
			e.Access == want.Kind && e.State == want.State &&
			e.File == want.File && e.Line == want.Line
	}
}

// coherenceRanks returns, per run, the 1-based depth of the first event
// matching want in the run's profile, or 0.
func coherenceRanks(runs []core.ProfiledRun, want *apps.FPEWant) []int {
	ranks := make([]int, len(runs))
	if want == nil {
		return ranks
	}
	match := fpeMatch(want)
	for r, run := range runs {
		for i, e := range core.CoherenceEvents(run.Prog, run.Profile) {
			if match(e) {
				ranks[r] = i + 1
				break
			}
		}
	}
	return ranks
}

// modalRank returns the most common non-negative value; ties break low.
func modalRank(ranks []int) int {
	counts := map[int]int{}
	for _, r := range ranks {
		counts[r]++
	}
	best, bestN := 0, -1
	var keys []int
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

// RunConcurrent reproduces one Table 7 row.
func RunConcurrent(a *apps.App, cfg Config) (*ConcResult, error) {
	cfg = cfg.withDefaults()
	pool := cfg.pool()
	res := &ConcResult{App: a}
	rowStart := beginRow(cfg, a.Name, "concurrent")

	// LCRLOG ranks: modal FPE depth across a handful of failing runs.
	endCapture := beginPhase(cfg, a.Name, phaseCapture)
	want1 := a.FPEConf1
	if want1 == nil {
		want1 = a.FPE
	}
	if want1 != nil {
		// For read-too-early order violations the Conf1 signal is the
		// shared load that success runs record and failure runs miss;
		// measure its position where it exists (paper §4.2.2).
		runs1, _, err := collectProfiles(a, profileParams{Build: lcrBuild, Conf: pmu.ConfSpaceSaving,
			WantFail: !a.Conf1InSuccess, Strict: true}, 5, "conf1", false, cfg, pool)
		if err != nil {
			return nil, err
		}
		res.RankConf1 = modalRank(coherenceRanks(runs1, want1))
	}
	// LCRA (Conf2): failing runs on the deployed build, successes on the
	// reactive build paired with the failure site.
	c, err := capture(a, tableCapture(core.ModeLCR), cfg, pool)
	if err != nil {
		return nil, err
	}
	res.FailRate = float64(cfg.FailRuns) / float64(c.attempts)
	res.RankConf2 = modalRank(coherenceRanks(c.fail, a.FPE))
	endCapture()
	endRank := beginPhase(cfg, a.Name, phaseRank)
	report, err := core.DiagnoseWith(core.ModeLCR, cfg.Ranker, c.fail, c.succ)
	if err != nil {
		return nil, err
	}
	// Only a high-confidence predictor counts, mirroring the paper's
	// "best failure predictor" requirement.
	if r := rootCauseRank(a, report); r > 0 && report.Ranking[r-1].Score >= 0.75 {
		res.LCRARank = r
	}
	endRank()
	res.Metrics = endRow(cfg, rowStart)
	return res, nil
}
