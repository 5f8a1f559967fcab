package harness

import (
	"fmt"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/isa"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// This file is the capture layer: the one procedure behind every diagnosis
// (paper §5.2). Collect failure-run profiles from the deployed build, map
// the failure site back to the original program, redeploy reactively, and
// collect success-run profiles from the paired success sites. Tables 6, 7
// and 8 and the fleet client all run it; what differs between them is data
// (captureSpec). Every profile is a "profile" trial (kinds.go).

// The deployed toggling builds of LBRA (sequential bugs) and LCRA
// (concurrency bugs).
var (
	lbrBuild = core.Options{LBR: true, Toggling: true}
	lcrBuild = core.Options{LCR: true, Toggling: true}
)

// captureSpec is one caller's capture configuration. The stream labels
// fail and succ seed every trial (TrialSeed): renaming one changes the
// tables.
type captureSpec struct {
	build      core.Options
	conf       pmu.LCRConfig
	fail, succ string
	// strictFail makes a failure-run error abort the collection rather
	// than reject the trial.
	strictFail bool
	// tolerant accepts a profile shortfall, a success-run error and an
	// unmappable failure site (which skips the success profiles): lost
	// evidence degrades the diagnosis instead of failing it.
	tolerant bool
}

// tableCapture is the capture of Table 6 (LBR) and Table 7's Conf2
// (LCR), which the fleet client replays.
func tableCapture(mode core.Mode) captureSpec {
	if mode == core.ModeLCR {
		return captureSpec{build: lcrBuild, conf: pmu.ConfSpaceConsuming,
			fail: "conf2-fail", succ: "conf2-succ", strictFail: true}
	}
	return captureSpec{build: lbrBuild, fail: "fail", succ: "succ"}
}

// robustCapture is Table 8's capture: injected faults may swallow any
// run's evidence.
var robustCapture = captureSpec{build: lbrBuild, fail: "robust-fail", succ: "robust-succ", tolerant: true}

// captured is one capture's result: the diagnosis inputs, the failure
// collection's attempt count and the reactive build the success profiles
// ran on.
type captured struct {
	fail, succ []core.ProfiledRun
	attempts   int
	reactive   core.Options
}

// capture runs the diagnosis capture for one benchmark.
func capture(a *apps.App, spec captureSpec, cfg Config, pool *Pool) (*captured, error) {
	inst, err := cachedBuild(a, spec.build)
	if err != nil {
		return nil, err
	}
	c := &captured{}
	c.fail, c.attempts, err = collectProfiles(a, profileParams{Build: spec.build, Conf: spec.conf,
		WantFail: true, Strict: spec.strictFail}, cfg.FailRuns, spec.fail, spec.tolerant, cfg, pool)
	if err != nil {
		return nil, err
	}
	if len(c.fail) == 0 { // tolerant: no failure site to map back
		return c, nil
	}
	failPC, err := origFailurePC(a, inst, c.fail[0].Profile)
	if err != nil {
		if spec.tolerant {
			return c, nil
		}
		return nil, err
	}
	c.reactive = spec.build
	c.reactive.Scheme, c.reactive.FailurePCs = core.SchemeReactive, []int{failPC}
	c.succ, _, err = collectProfiles(a, profileParams{Build: c.reactive, Conf: spec.conf,
		Strict: !spec.tolerant}, cfg.SuccRuns, spec.succ, spec.tolerant, cfg, pool)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// collectProfiles collects n profiles from stream a.Name+"/"+label as
// "profile" trials and pairs each with the build that produced it. App,
// seed and record depths come from cfg; a depth is set only for a record
// the build enables. A shortfall is an error unless tolerant. It also
// returns the attempt count.
func collectProfiles(a *apps.App, P profileParams, n int, label string, tolerant bool, cfg Config, pool *Pool) ([]core.ProfiledRun, int, error) {
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, 0, err
	}
	P.App, P.Seed = a.Name, cfg.Seed
	if P.Build.LBR {
		P.LBRSize = cfg.LBRSize
	}
	if P.Build.LCR {
		P.LCRSize = cfg.LCRSize
	}
	profs, attempts, err := CollectKind[vm.Profile](pool, cfg.MaxAttempts, n, a.Name+"/"+label, "profile", P)
	if err != nil {
		return nil, attempts, err
	}
	if len(profs) < n && !tolerant {
		return nil, attempts, fmt.Errorf("harness: %s: only %d/%d %s profiles in %d attempts",
			a.Name, len(profs), n, label, attempts)
	}
	out := make([]core.ProfiledRun, len(profs))
	for i, prof := range profs {
		out[i] = core.ProfiledRun{Prog: inst.Prog, Profile: prof}
	}
	return out, attempts, nil
}

// origFailurePC maps a failure back to original-program coordinates for
// the reactive scheme: the faulting instruction for crash benchmarks, or
// the failing log-call site otherwise.
func origFailurePC(a *apps.App, inst *core.Instrumented, prof vm.Profile) (int, error) {
	if pc := a.FaultPC(); pc >= 0 {
		return pc, nil
	}
	// The profile site is the ioctl inserted right before the log call;
	// scan forward to the call, then invert the PC map.
	p := inst.Prog
	for pc := prof.Site; pc < len(p.Instrs) && pc < prof.Site+16; pc++ {
		if p.Instrs[pc].Op == isa.OpCall {
			for orig, now := range inst.PCMap {
				if now == pc {
					return orig, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("harness: cannot locate original failure site for %s (profile site %d)", a.Name, prof.Site)
}

// rootCauseRank is the root cause's position in a diagnosis ranking
// (0 = missed): the buggy edge of the root-cause branch, else the related
// branch, for LBRA; the failure-predicting event for LCRA.
func rootCauseRank(a *apps.App, rep *core.Report) int {
	if rep.Mode == core.ModeLCR {
		if a.FPE == nil {
			return 0
		}
		return rep.RankOfCoherence(fpeMatch(a.FPE))
	}
	rank := rep.RankOfBranchEdge(a.RootBranch, a.BuggyEdge)
	if rank == 0 && a.RelatedBranch != "" {
		rank = rep.RankOfBranch(a.RelatedBranch)
	}
	return rank
}

// DiagnosisProfiles captures one benchmark's LBRA/LCRA diagnosis inputs —
// the failure- and success-run profiles — without computing any table
// columns. It is the fleet client's capture path, and it is the very
// capture RunSequential and RunConcurrent diagnose: same builds, seed
// streams and trial counts, so the same profiles for every Jobs value.
func DiagnosisProfiles(a *apps.App, cfg Config) (core.Mode, []core.ProfiledRun, []core.ProfiledRun, error) {
	cfg = cfg.withDefaults()
	mode := core.ModeLBR
	if a.Class.Concurrent() {
		mode = core.ModeLCR
	}
	c, err := capture(a, tableCapture(mode), cfg, cfg.pool())
	if err != nil {
		return mode, nil, nil, err
	}
	return mode, c.fail, c.succ, nil
}
