package core

import (
	"fmt"
	"strings"

	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
	"stmdiag/internal/spectrum"
	"stmdiag/internal/stats"
	"stmdiag/internal/vm"
)

// Mode selects which record the diagnosis consumes.
type Mode uint8

const (
	// ModeLBR diagnoses from branch records (LBRA, sequential bugs).
	ModeLBR Mode = iota
	// ModeLCR diagnoses from coherence records (LCRA, concurrency bugs).
	ModeLCR
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeLCR {
		return "LCRA"
	}
	return "LBRA"
}

// ProfiledRun pairs one run's selected profile with the program build it
// was collected from (reactive deployments profile success runs on an
// updated binary, so the builds can differ).
type ProfiledRun struct {
	// Prog is the program build that produced the profile.
	Prog *isa.Program
	// Profile is the selected LBR/LCR snapshot.
	Profile vm.Profile
}

// FailureRunProfile selects a failed run's failure-run profile: the last
// failure-site snapshot, i.e. the one taken at the moment the failure
// surfaced (paper §5.2: exactly one record per fail-stop failure).
func FailureRunProfile(res *vm.Result) (vm.Profile, bool) {
	profs := res.FailureProfiles()
	if len(profs) == 0 {
		return vm.Profile{}, false
	}
	return profs[len(profs)-1], true
}

// SuccessRunProfile selects a successful run's success-run profile: the
// last success-site snapshot, the one nearest to where a failure would
// have occurred.
func SuccessRunProfile(res *vm.Result) (vm.Profile, bool) {
	profs := res.SuccessProfiles()
	if len(profs) == 0 {
		return vm.Profile{}, false
	}
	return profs[len(profs)-1], true
}

// RunProfile selects a run's diagnosis profile: a failed run's
// failure-run profile, or a successful run's success-run profile, falling
// back to the same-site failure snapshot for unconditional sites, which
// have no paired success site.
func RunProfile(res *vm.Result, failing bool) (vm.Profile, bool) {
	if !failing {
		if prof, ok := SuccessRunProfile(res); ok {
			return prof, true
		}
	}
	return FailureRunProfile(res)
}

// Report is a completed diagnosis.
type Report struct {
	// Mode is the record type diagnosed.
	Mode Mode
	// Ranking lists every event, best failure predictor first.
	Ranking []stats.Scored[Event]
	// FailureRuns and SuccessRuns count the profiles compared.
	FailureRuns, SuccessRuns int
	// Verdict grades the evidence behind the ranking: when capture faults
	// or pollution emptied most failure profiles it reports insufficient
	// evidence rather than letting a ranking over noise pass as a result.
	Verdict stats.Verdict
	// Flight is the flight-recorder tail of a degraded trial the harness
	// attached: the last events the trial's worker recorded before its
	// final panic, shipped with the report the way the paper ships the
	// LBR snapshot the segfault handler read (§3.2, §5.3). Empty when no
	// trial degraded or the run carried no recorder.
	Flight []obs.FlightEvent
}

// AttachFlight ships a degraded trial's flight-recorder tail with the
// report, so a rejected trial contributes its last-K events instead of
// just an error message.
func (r *Report) AttachFlight(evs []obs.FlightEvent) {
	r.Flight = append([]obs.FlightEvent(nil), evs...)
}

// Ranker selects the scoring arithmetic applied to the per-event spectrum
// counters. Every ranker consumes identical event extractions and counts
// (stats.Counts); they differ only in how a count vector becomes a score.
type Ranker uint8

const (
	// RankerCBI is the paper's model: the harmonic mean of prediction
	// precision and recall (stats.Rank). The zero value, so existing
	// callers and default flags keep the paper's arithmetic.
	RankerCBI Ranker = iota
	// RankerOchiai scores with the Ochiai SBFL formula.
	RankerOchiai
	// RankerTarantula scores with the Tarantula SBFL formula.
	RankerTarantula
)

// String names the ranker the way the -ranker flag spells it.
func (r Ranker) String() string {
	switch r {
	case RankerOchiai:
		return "ochiai"
	case RankerTarantula:
		return "tarantula"
	default:
		return "cbi"
	}
}

// Rankers lists every ranker in flag-name order; Table 9 iterates it.
func Rankers() []Ranker { return []Ranker{RankerCBI, RankerOchiai, RankerTarantula} }

// ParseRanker resolves a -ranker flag value.
func ParseRanker(s string) (Ranker, error) {
	for _, r := range Rankers() {
		if s == r.String() {
			return r, nil
		}
	}
	return RankerCBI, fmt.Errorf("core: unknown ranker %q (want cbi, ochiai, or tarantula)", s)
}

// rank scores the run set under the ranker's arithmetic.
func (r Ranker) rank(runs []stats.Run[Event]) []stats.Scored[Event] {
	switch r {
	case RankerOchiai:
		return spectrum.Rank(runs, spectrum.Ochiai)
	case RankerTarantula:
		return spectrum.Rank(runs, spectrum.Tarantula)
	default:
		return stats.Rank(runs)
	}
}

// Diagnose runs the LBRA/LCRA statistical comparison of paper §5.2 over
// failure-run and success-run profiles, with the paper's harmonic-mean
// (CBI-style) scoring.
func Diagnose(mode Mode, fail, succ []ProfiledRun) (*Report, error) {
	return DiagnoseWith(mode, RankerCBI, fail, succ)
}

// DiagnoseWith is Diagnose with a pluggable scoring formula: the same
// profiles, event extraction, counting, verdict, and tie-break order, with
// the ranker choosing the score arithmetic (the Table 9 bake-off axis).
func DiagnoseWith(mode Mode, ranker Ranker, fail, succ []ProfiledRun) (*Report, error) {
	if len(fail) == 0 {
		return nil, fmt.Errorf("core: diagnosis needs at least one failure-run profile")
	}
	runs := make([]stats.Run[Event], 0, len(fail)+len(succ))
	for _, r := range fail {
		runs = append(runs, stats.Run[Event]{Failed: true, Events: eventsOf(mode, r)})
	}
	for _, r := range succ {
		runs = append(runs, stats.Run[Event]{Failed: false, Events: eventsOf(mode, r)})
	}
	return &Report{
		Mode:        mode,
		Ranking:     ranker.rank(runs),
		FailureRuns: len(fail),
		SuccessRuns: len(succ),
		Verdict:     stats.Assess(runs),
	}, nil
}

// RunEvents extracts the mode's events from a profiled run — the same
// extraction Diagnose feeds the statistical model, exported so cooperative
// (fleet) submitters serialize exactly what the monolithic path would rank.
func RunEvents(mode Mode, r ProfiledRun) []Event { return eventsOf(mode, r) }

// eventsOf extracts the mode's events from a profiled run.
func eventsOf(mode Mode, r ProfiledRun) []Event {
	if mode == ModeLCR {
		return CoherenceEvents(r.Prog, r.Profile)
	}
	return BranchEvents(r.Prog, r.Profile)
}

// Top returns the best failure predictor, or a zero event if none.
func (r *Report) Top() (stats.Scored[Event], bool) {
	if len(r.Ranking) == 0 {
		return stats.Scored[Event]{}, false
	}
	return r.Ranking[0], true
}

// RankOfBranch returns the 1-based rank of the named source branch
// (either edge), or 0 if absent.
func (r *Report) RankOfBranch(name string) int {
	return stats.RankOf(r.Ranking, func(e Event) bool {
		return e.Kind == EventBranch && e.Branch == name
	})
}

// RankOfBranchEdge returns the 1-based rank of a specific branch outcome.
func (r *Report) RankOfBranchEdge(name string, edge isa.BranchEdge) int {
	return stats.RankOf(r.Ranking, func(e Event) bool {
		return e.Kind == EventBranch && e.Branch == name && e.Edge == edge
	})
}

// RankOfCoherence returns the 1-based rank of the first coherence event
// satisfying the predicate.
func (r *Report) RankOfCoherence(match func(Event) bool) int {
	return stats.RankOf(r.Ranking, func(e Event) bool {
		return e.Kind == EventCoherence && match(e)
	})
}

// Render formats the top-k ranking for humans.
func (r *Report) Render(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s diagnosis over %d failure + %d success runs\n",
		r.Mode, r.FailureRuns, r.SuccessRuns)
	if r.Verdict != stats.VerdictConclusive {
		fmt.Fprintf(&b, "verdict: %s — most failure profiles were empty or lost\n", r.Verdict)
	}
	if len(r.Flight) > 0 {
		fmt.Fprintf(&b, "flight recorder of a degraded trial (%d events, oldest first):\n", len(r.Flight))
		for _, ev := range r.Flight {
			fmt.Fprintf(&b, "     %s\n", ev)
		}
	}
	for i, s := range r.Ranking {
		if i >= k {
			break
		}
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s)
	}
	return b.String()
}
