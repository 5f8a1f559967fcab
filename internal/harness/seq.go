// Package harness orchestrates the paper's experiments over the benchmark
// suite: it builds the instrumented program variants, drives failure and
// success runs, applies LBRA/LCRA and the CBI baseline, measures run-time
// overheads by cycle accounting, and renders every table of the evaluation:
// the paper's Tables 1–7 plus this reproduction's fault-robustness Table 8
// and the generated-bug-corpus ranking bake-off Table 9.
package harness

import (
	"fmt"
	"runtime"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
	"stmdiag/internal/vm"
)

// Config sizes the experiments. The defaults follow paper §7.2: 10 failure
// and 10 success runs for LBRA/LCRA, 1000+1000 runs for CBI at its default
// 1/100 sampling rate.
type Config struct {
	// FailRuns and SuccRuns are the LBRA/LCRA profile counts.
	FailRuns, SuccRuns int
	// CBIRuns is the per-class (failing and successful) CBI run count.
	CBIRuns int
	// CBIRate is CBI's sampling rate.
	CBIRate float64
	// OverheadRuns is how many runs each overhead figure averages.
	OverheadRuns int
	// MaxAttempts bounds run attempts per collected profile (concurrency
	// benchmarks fail probabilistically).
	MaxAttempts int
	// Jobs is the trial-execution worker count: trials (independent app
	// runs) fan out across up to Jobs goroutines. 0 selects
	// runtime.NumCPU(); 1 is the strictly sequential path. Results are
	// byte-identical for every value — see pool.go.
	Jobs int
	// Seed is the base every trial seed is derived from (TrialSeed).
	Seed int64
	// Faults is the fault-injection spec (-faults). The zero spec is off;
	// an enabled spec derives a deterministic faultinj.Plan per trial
	// attempt, so results stay byte-identical for every Jobs value.
	Faults faultinj.Spec
	// LBRSize and LCRSize override record depths (0 = paper defaults).
	LBRSize, LCRSize int
	// Obs is the optional telemetry sink. It flows into every VM run the
	// harness drives; each table row is tagged on the trace and each
	// row result carries its metrics delta.
	Obs *obs.Sink
	// Ranker selects the scoring arithmetic for LBRA/LCRA diagnosis rows
	// (-ranker). The zero value is the paper's CBI-style harmonic mean, so
	// the golden tables are unchanged by the field's existence.
	Ranker core.Ranker
	// CorpusPerCell is Table 9's generated-program count per
	// (bug class × propagation distance) cell (-corpus-n); 0 selects
	// DefaultCorpusPerCell.
	CorpusPerCell int
	// Executor routes portable trials (-executor); nil selects the
	// in-process executor. Results are byte-identical for every executor —
	// see wire.go.
	Executor Executor
	// Artifacts is the durable trial-result store (-resume); nil disables
	// persistence. With a store attached, portable trials committed by an
	// earlier (possibly killed) run are loaded back instead of re-executed,
	// and fresh results are persisted in commit order.
	Artifacts *artifact.Store
}

// DefaultConfig is the paper's experiment configuration.
var DefaultConfig = Config{
	FailRuns:     10,
	SuccRuns:     10,
	CBIRuns:      1000,
	CBIRate:      cbi.DefaultRate,
	OverheadRuns: 10,
	MaxAttempts:  400,
}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.FailRuns == 0 {
		c.FailRuns = d.FailRuns
	}
	if c.SuccRuns == 0 {
		c.SuccRuns = d.SuccRuns
	}
	if c.CBIRuns == 0 {
		c.CBIRuns = d.CBIRuns
	}
	if c.CBIRate == 0 {
		c.CBIRate = d.CBIRate
	}
	if c.OverheadRuns == 0 {
		c.OverheadRuns = d.OverheadRuns
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = d.MaxAttempts
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.NumCPU()
	}
	return c
}

// Pool builds the trial-execution pool for one experiment entry point:
// Jobs workers reporting into Obs, armed with Faults, stamped with the
// run ID RunID(Seed, "config"), routed through Executor and persisting
// into Artifacts. Jobs <= 0 selects runtime.NumCPU().
func (c Config) Pool() *Pool {
	return NewPool(c.Jobs, c.Obs).WithFaults(c.Faults, c.Seed).
		WithRunID(RunID(c.Seed, "config")).
		WithExecutor(c.Executor).WithArtifacts(c.Artifacts)
}

// SeqResult is one sequential benchmark's Table 6 row.
type SeqResult struct {
	// App is the benchmark.
	App *apps.App
	// RankTog and RankNoTog are the LBR entry positions (1 = latest) of
	// the root-cause branch in the failure-run profile with and without
	// toggling; 0 means missed.
	RankTog, RankNoTog int
	// RelatedTog/RelatedNoTog mark ranks that refer to the related branch
	// because the root-cause branch itself was evicted (the * cases).
	RelatedTog, RelatedNoTog bool
	// LBRARank is the root-cause branch's position in LBRA's predictor
	// ranking; CBIRank is the same for CBI (0 = missed).
	LBRARank, CBIRank int
	// DistFailureSite and DistLBR are the patch distances of Table 6.
	DistFailureSite, DistLBR int
	// Overheads, as fractions (0.01 = 1%).
	OvLogTog, OvLogNoTog, OvReactive, OvProactive, OvCBI float64
	// Metrics is this row's telemetry delta, nil without a metrics sink.
	Metrics *obs.Snapshot
}

// branchRank returns the 1-based position of the first LBR record naming
// the branch, newest-first; 0 if absent.
func branchRank(p *isa.Program, prof vm.Profile, branch string) int {
	if branch == "" {
		return 0
	}
	for i, r := range prof.Branches {
		if r.From >= 0 && r.From < len(p.Instrs) {
			if id := p.Instrs[r.From].BranchID; id != isa.NoBranch && p.BranchName(id) == branch {
				return i + 1
			}
		}
	}
	return 0
}

// rankWithFallback resolves the root-cause rank in one run's profile,
// falling back to the related branch (the * cases of Table 6).
func rankWithFallback(a *apps.App, run core.ProfiledRun) (rank int, related bool) {
	if r := branchRank(run.Prog, run.Profile, a.RootBranch); r > 0 {
		return r, false
	}
	if r := branchRank(run.Prog, run.Profile, a.RelatedBranch); r > 0 {
		return r, true
	}
	return 0, false
}

// RunSequential reproduces one Table 6 row.
func RunSequential(a *apps.App, cfg Config) (*SeqResult, error) {
	cfg = cfg.withDefaults()
	pool := cfg.Pool()
	res := &SeqResult{App: a}
	rowStart := beginRow(cfg, a.Name, "sequential")

	// LBRA capture on the deployed (toggling) build; the first failure
	// profile doubles as Table 6's LBRLOG toggling profile.
	endCapture := beginPhase(cfg, a.Name, phaseCapture)
	c, err := capture(a, tableCapture(core.ModeLBR), cfg, pool)
	if err != nil {
		return nil, err
	}
	tog := c.fail[0]
	res.RankTog, res.RelatedTog = rankWithFallback(a, tog)
	siteLoc := isa.SourceLoc{}
	if site := tog.Profile.Site; site >= 0 && site < len(tog.Prog.Instrs) {
		siteLoc = tog.Prog.Instrs[site].Loc
	}
	res.DistFailureSite = a.Patch.Distance(siteLoc)
	res.DistLBR = a.Patch.MinDistance(core.BranchLocs(tog.Prog, tog.Profile))

	optsLogNoTog := core.Options{LBR: true}
	noTog, _, err := collectProfiles(a, profileParams{Build: optsLogNoTog, WantFail: true},
		1, "fail-notog", false, cfg, pool)
	if err != nil {
		return nil, err
	}
	res.RankNoTog, res.RelatedNoTog = rankWithFallback(a, noTog[0])
	endCapture()

	endRank := beginPhase(cfg, a.Name, phaseRank)
	report, err := core.DiagnoseWith(core.ModeLBR, cfg.Ranker, c.fail, c.succ)
	if err != nil {
		return nil, err
	}
	if d := pool.FirstDegraded(); d != nil {
		report.AttachFlight(d.Events)
	}
	res.LBRARank = rootCauseRank(a, report)
	endRank()

	// CBI baseline and the overhead columns re-execute the workloads: the
	// replay phase of the cost attribution.
	endReplay := beginPhase(cfg, a.Name, phaseReplay)
	res.CBIRank, err = runCBI(a, cfg, pool)
	if err != nil {
		return nil, err
	}

	// Overheads on the success workload.
	optsProactive := core.Options{LBR: true, Toggling: true, Scheme: core.SchemeProactive}
	base, err := meanCycles(a, nil, false, cfg, pool, a.Name+"/ov-base")
	if err != nil {
		return nil, err
	}
	for _, v := range []struct {
		build  core.Options
		stream string
		out    *float64
	}{
		{lbrBuild, a.Name + "/ov-log-tog", &res.OvLogTog},
		{optsLogNoTog, a.Name + "/ov-log-notog", &res.OvLogNoTog},
		{c.reactive, a.Name + "/ov-reactive", &res.OvReactive},
		{optsProactive, a.Name + "/ov-proactive", &res.OvProactive},
	} {
		build := v.build
		cycles, err := meanCycles(a, &build, false, cfg, pool, v.stream)
		if err != nil {
			return nil, err
		}
		*v.out = overhead(base, cycles)
	}
	cbiCycles, err := meanCycles(a, nil, true, cfg, pool, a.Name+"/ov-cbi")
	if err != nil {
		return nil, err
	}
	res.OvCBI = overhead(base, cbiCycles)
	endReplay()
	res.Metrics = endRow(cfg, rowStart)
	return res, nil
}

// runCBI collects sampled predicate observations over many runs and ranks.
// It returns -1 for benchmarks CBI does not support (the paper's CBI
// framework handles C programs only; Cppcheck and PBZIP are C++).
func runCBI(a *apps.App, cfg Config, pool *Pool) (int, error) {
	if a.Paper.CBIRank < 0 {
		return -1, nil
	}
	if a.RootBranch == "" {
		return 0, nil
	}
	collect := func(wantFail bool, n int, label string) ([]cbi.RunObs, error) {
		stream := a.Name + "/" + label
		out, _, err := CollectKind[cbi.RunObs](pool, n*4, n, stream, "cbi-run",
			cbiRunParams{App: a.Name, WantFail: wantFail, Rate: cfg.CBIRate, Seed: cfg.Seed, Salt: 31337})
		if err != nil {
			return nil, err
		}
		if len(out) < n {
			return nil, fmt.Errorf("harness: %s: only %d/%d CBI %v runs", a.Name, len(out), n, wantFail)
		}
		return out, nil
	}
	failRuns, err := collect(true, cfg.CBIRuns, "cbi-fail")
	if err != nil {
		return 0, err
	}
	succRuns, err := collect(false, cfg.CBIRuns, "cbi-succ")
	if err != nil {
		return 0, err
	}
	scores := cbi.Rank(append(failRuns, succRuns...))
	rank := cbi.RankOf(scores, func(pr cbi.Pred) bool {
		return pr.Branch == a.RootBranch && pr.Edge == a.BuggyEdge
	})
	if rank == 0 && a.RelatedBranch != "" {
		rank = cbi.RankOf(scores, func(pr cbi.Pred) bool { return pr.Branch == a.RelatedBranch })
	}
	return rank, nil
}

// meanCycles averages run cycles on the success workload through the
// portable "mean-cycles" kind: build == nil runs the plain program (the
// baseline, and — with cbiHook — the CBI column); otherwise the selected
// instrumented variant.
func meanCycles(a *apps.App, build *core.Options, cbiHook bool, cfg Config, pool *Pool, stream string) (float64, error) {
	cycles, err := MapKind[uint64](pool, cfg.OverheadRuns, stream, "mean-cycles",
		meanCyclesParams{App: a.Name, Build: build, CBIHook: cbiHook,
			Rate: cfg.CBIRate, Seed: cfg.Seed, LBRSize: cfg.LBRSize})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, c := range cycles {
		total += c
	}
	return float64(total) / float64(cfg.OverheadRuns), nil
}

// overhead computes (v-base)/base, clamped at 0.
func overhead(base, v float64) float64 {
	if base <= 0 || v <= base {
		return 0
	}
	return (v - base) / base
}
