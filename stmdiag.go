// Package stmdiag is a production-run software failure diagnosis library
// built on the short-term memory of hardware, reproducing
//
//	Arulraj, Jin, Lu. "Leveraging the Short-Term Memory of Hardware to
//	Diagnose Production-Run Software Failures." ASPLOS 2014.
//
// The package exposes the full pipeline over a simulated machine:
//
//   - Assemble builds programs for the library's multicore VM, whose cores
//     carry a 16-entry Last Branch Record (LBR) and whose threads carry the
//     paper's proposed Last Cache-coherence Record (LCR) fed by per-core
//     MESI L1 caches.
//
//   - Program.Instrument applies the paper's LBRLOG/LCRLOG transformation:
//     record toggling around library calls, arming at entry, profiling at
//     failure-logging sites and in the segfault handler, and (optionally)
//     the success logging sites that power automatic diagnosis.
//
//   - Build.Run executes a workload and returns output, failures, cycle
//     counts and the captured LBR/LCR profiles.
//
//   - DiagnoseRuns ranks profile events by the harmonic mean of expected
//     prediction precision and recall (LBRA/LCRA) and returns the best
//     failure predictors.
//
//   - Benchmarks, SequentialRow, ConcurrentRow and RenderTable drive the 31
//     re-authored real-world failures of the paper's Table 4 and regenerate
//     every table of its evaluation section.
package stmdiag

import (
	"fmt"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/harness"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/trace"
	"stmdiag/internal/vm"
)

// Program is an assembled VM program.
type Program struct {
	p *isa.Program
}

// Assemble parses a program in the library's assembly dialect (see
// internal/isa for the grammar). Conditional branches annotated with
// ".branch" directives become diagnosable source-level branches.
func Assemble(name, source string) (*Program, error) {
	p, err := isa.Assemble(name, source)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Disassemble renders the program with branch annotations.
func (p *Program) Disassemble() string { return p.p.Disasm() }

// Instructions returns the program length.
func (p *Program) Instructions() int { return len(p.p.Instrs) }

// InstrumentOptions select the log-enhancement configuration (paper §5.1).
type InstrumentOptions struct {
	// LBR arms branch recording; LCR arms coherence recording.
	LBR, LCR bool
	// Toggling disables recording around library-function calls so their
	// execution cannot pollute the short-term memory (paper §4.3).
	Toggling bool
	// Proactive inserts success logging sites for every failure-logging
	// site before deployment; ReactiveFailureLines instead pairs success
	// sites with already-observed failure locations (file:line of a
	// logging call or crashing instruction).
	Proactive            bool
	ReactiveFailureLines []SourceLine
}

// SourceLine names a modeled source position.
type SourceLine struct {
	// File and Line identify the position.
	File string
	Line int
}

// Build is an instrumented program ready to run.
type Build struct {
	prog *isa.Program
	inst *core.Instrumented
	opts InstrumentOptions
}

// Instrument applies the LBRLOG/LCRLOG source-to-source transformation.
func (p *Program) Instrument(o InstrumentOptions) (*Build, error) {
	co := core.Options{LBR: o.LBR, LCR: o.LCR, Toggling: o.Toggling}
	switch {
	case o.Proactive && len(o.ReactiveFailureLines) > 0:
		return nil, fmt.Errorf("stmdiag: choose proactive or reactive, not both")
	case o.Proactive:
		co.Scheme = core.SchemeProactive
	case len(o.ReactiveFailureLines) > 0:
		co.Scheme = core.SchemeReactive
		for _, sl := range o.ReactiveFailureLines {
			pc := -1
			for i := range p.p.Instrs {
				loc := p.p.Instrs[i].Loc
				if loc.File == sl.File && loc.Line == sl.Line {
					pc = i
					break
				}
			}
			if pc < 0 {
				return nil, fmt.Errorf("stmdiag: no instruction at %s:%d", sl.File, sl.Line)
			}
			co.FailurePCs = append(co.FailurePCs, pc)
		}
	}
	inst, err := core.EnhanceLogging(p.p, co)
	if err != nil {
		return nil, err
	}
	return &Build{prog: p.p, inst: inst, opts: o}, nil
}

// Disassemble renders the instrumented program, synthetic instrumentation
// marked.
func (b *Build) Disassemble() string { return b.inst.Prog.Disasm() }

// Instructions returns the instrumented program length.
func (b *Build) Instructions() int { return len(b.inst.Prog.Instrs) }

// RunConfig is one run's workload and machine configuration.
type RunConfig struct {
	// Seed drives the scheduler; different seeds explore different
	// interleavings.
	Seed int64
	// Globals and Arrays seed named program globals.
	Globals map[string]int64
	Arrays  map[string][]int64
	// Cores is the core count (default 4). StepLimit bounds the run.
	Cores     int
	StepLimit uint64
	// LCRSpaceSaving selects the paper's Conf1 event selection for the
	// LCR instead of the default space-consuming Conf2.
	LCRSpaceSaving bool
	// BTS additionally arms a per-core Branch Trace Store — the
	// whole-execution alternative of paper §2.1. The full trace appears in
	// RunResult.BranchTrace at 20-100%-class recording overhead.
	BTS bool
	// Obs is the optional telemetry sink for this run.
	Obs *obs.Sink
}

// BranchEvent is one LBR-derived event of a profile.
type BranchEvent struct {
	// Branch is the source-branch name ("" for plain jumps).
	Branch string
	// Outcome is "true" or "false" for source branches.
	Outcome string
	// File and Line locate the branch.
	File string
	Line int
}

// CoherenceEvent is one LCR-derived event of a profile.
type CoherenceEvent struct {
	// Access is "load" or "store"; State is the observed MESI state
	// ("I", "S", "E", "M"); Pollution marks driver-injected entries.
	Access, State string
	Pollution     bool
	// File and Line locate the access.
	File string
	Line int
}

// Profile is one LBR/LCR snapshot, newest-first.
type Profile struct {
	// Thread is the profiled thread; SuccessSite marks success-site
	// snapshots.
	Thread      int
	SuccessSite bool
	// Branches and Coherence are the decoded records, newest entry first.
	Branches  []BranchEvent
	Coherence []CoherenceEvent
}

// RunResult is one run's outcome.
type RunResult struct {
	// Failed reports any failure; FailureMsg describes the first one.
	Failed     bool
	FailureMsg string
	// Output is the program's printed output.
	Output []string
	// Steps and Cycles account the run's cost.
	Steps, Cycles uint64
	// Profiles are the captured LBR/LCR snapshots.
	Profiles []Profile
	// BranchTrace is the whole-execution branch trace, oldest first,
	// present only when RunConfig.BTS was set.
	BranchTrace []BranchEvent

	prog *isa.Program
	raw  *vm.Result
}

// Run executes the instrumented program.
func (b *Build) Run(rc RunConfig) (*RunResult, error) {
	opts := vm.Options{
		Seed:         rc.Seed,
		Globals:      rc.Globals,
		GlobalArrays: rc.Arrays,
		Cores:        rc.Cores,
		StepLimit:    rc.StepLimit,
		Driver:       kernel.Driver{},
		SegvIoctls:   b.inst.SegvIoctls,
		Obs:          rc.Obs,
	}
	if rc.LCRSpaceSaving {
		opts.LCRConfig = pmu.ConfSpaceSaving
	} else {
		opts.LCRConfig = pmu.ConfSpaceConsuming
	}
	opts.BTS = rc.BTS
	m, err := vm.New(b.inst.Prog, opts)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Failed: res.Failed(),
		Output: res.Output,
		Steps:  res.Steps,
		Cycles: res.Cycles,
		prog:   b.inst.Prog,
		raw:    res,
	}
	if f := res.FirstFailure(); f != nil {
		out.FailureMsg = f.Msg
		if out.FailureMsg == "" {
			out.FailureMsg = fmt.Sprintf("%s (code %d)", f.Kind, f.Code)
		}
	}
	for _, pr := range res.Profiles {
		out.Profiles = append(out.Profiles, decodeProfile(b.inst.Prog, pr))
	}
	if rc.BTS {
		for _, c := range m.Cores() {
			if c.BTS == nil {
				continue
			}
			fake := vm.Profile{Branches: c.BTS.Trace()}
			for _, e := range core.BranchEvents(b.inst.Prog, fake) {
				be := BranchEvent{File: e.File, Line: e.Line}
				if e.Kind == core.EventBranch {
					be.Branch, be.Outcome = e.Branch, e.Edge.String()
				}
				out.BranchTrace = append(out.BranchTrace, be)
			}
		}
	}
	return out, nil
}

// EncodeReport serializes a run's profiles into the privacy-preserving
// failure-report bundle an end user's machine would send back (JSON; code
// positions and coherence states only — no addresses, no values).
func EncodeReport(r *RunResult) ([]byte, error) {
	return trace.Encode(r.prog, r.raw)
}

// AuditReport verifies a serialized bundle against the privacy guarantee
// of paper §5.3: every numeric field must be a code position in this
// build, never a data-segment address or program value. It returns the
// violations found (empty for a clean bundle).
func (b *Build) AuditReport(data []byte) []string {
	return trace.Audit(b.inst.Prog, data)
}

// decodeProfile converts a raw profile to the public representation.
func decodeProfile(p *isa.Program, pr vm.Profile) Profile {
	prof := Profile{Thread: pr.Thread, SuccessSite: pr.Success}
	for _, e := range core.BranchEvents(p, pr) {
		be := BranchEvent{File: e.File, Line: e.Line}
		if e.Kind == core.EventBranch {
			be.Branch = e.Branch
			be.Outcome = e.Edge.String()
			if br := findBranch(p, e.Branch); br != nil {
				be.File, be.Line = br.Loc.File, br.Loc.Line
			}
		}
		prof.Branches = append(prof.Branches, be)
	}
	for _, e := range core.CoherenceEvents(p, pr) {
		prof.Coherence = append(prof.Coherence, CoherenceEvent{
			Access:    e.Access.String(),
			State:     e.State.String(),
			Pollution: e.Kind == core.EventPollution,
			File:      e.File,
			Line:      e.Line,
		})
	}
	return prof
}

func findBranch(p *isa.Program, name string) *isa.SourceBranch {
	for i := range p.Branches {
		if p.Branches[i].Name == name {
			return &p.Branches[i]
		}
	}
	return nil
}

// Predictor is one ranked failure predictor.
type Predictor struct {
	// Event describes the predictor ("branch X=true", "load:I@f.c:12").
	Event string
	// Score is the harmonic mean of Precision and Recall (paper §5.2).
	Score, Precision, Recall float64
	// InFailureRuns and InSuccessRuns count profile occurrences.
	InFailureRuns, InSuccessRuns int
}

// Report is a completed automatic diagnosis.
type Report struct {
	// Ranking lists predictors best-first.
	Ranking []Predictor
}

// Top returns the best failure predictor.
func (r *Report) Top() (Predictor, bool) {
	if len(r.Ranking) == 0 {
		return Predictor{}, false
	}
	return r.Ranking[0], true
}

// DiagnoseRuns applies the LBRA/LCRA statistical model to failing and
// succeeding runs. Failing runs contribute their failure-site profile,
// succeeding runs their success-site profile (or, for unconditional sites,
// the same-site snapshot). Set coherence=true to rank LCR events (LCRA)
// instead of LBR events (LBRA).
func DiagnoseRuns(failing, succeeding []*RunResult, coherence bool) (*Report, error) {
	return DiagnoseRunsWith(failing, succeeding, coherence, core.RankerCBI)
}

// DiagnoseRunsWith is DiagnoseRuns with a pluggable scoring formula
// (core.RankerCBI, core.RankerOchiai or core.RankerTarantula — the -ranker
// flag): identical event extraction and counting, different arithmetic.
func DiagnoseRunsWith(failing, succeeding []*RunResult, coherence bool, ranker core.Ranker) (*Report, error) {
	mode, fail, succ := diagnosisInputs(failing, succeeding, coherence)
	rep, err := core.DiagnoseWith(mode, ranker, fail, succ)
	if err != nil {
		return nil, err
	}
	return publicReport(rep), nil
}

// diagnosisInputs selects each run's diagnosis profile (core.RunProfile),
// skipping runs that recorded none, and the mode the flag selects.
func diagnosisInputs(failing, succeeding []*RunResult, coherence bool) (core.Mode, []core.ProfiledRun, []core.ProfiledRun) {
	mode := core.ModeLBR
	if coherence {
		mode = core.ModeLCR
	}
	profiled := func(runs []*RunResult, failed bool) []core.ProfiledRun {
		var out []core.ProfiledRun
		for _, r := range runs {
			if pr, ok := core.RunProfile(r.raw, failed); ok {
				out = append(out, core.ProfiledRun{Prog: r.prog, Profile: pr})
			}
		}
		return out
	}
	return mode, profiled(failing, true), profiled(succeeding, false)
}

// publicReport converts a core ranking into the public Report.
func publicReport(rep *core.Report) *Report {
	out := &Report{}
	for _, s := range rep.Ranking {
		out.Ranking = append(out.Ranking, Predictor{
			Event:         s.Event.String(),
			Score:         s.Score,
			Precision:     s.Precision,
			Recall:        s.Recall,
			InFailureRuns: s.InFail,
			InSuccessRuns: s.InSucc,
		})
	}
	return out
}

// SiteDiagnosis is one failure location's diagnosis in a multi-failure
// deployment.
type SiteDiagnosis struct {
	// File and Line locate the failure site; Failures counts the failing
	// runs that reported there.
	File     string
	Line     int
	Failures int
	// Report is the site's own predictor ranking.
	Report *Report
}

// DiagnoseRunsBySite diagnoses each failure location independently (paper
// §5.3 "Multiple failures"): large software fails for several reasons at
// once, and every profile records where it was taken, so failures at
// different program locations never pollute each other's statistics.
// Reports come back in descending failure-count order.
func DiagnoseRunsBySite(failing, succeeding []*RunResult, coherence bool) ([]SiteDiagnosis, error) {
	reports, err := core.DiagnoseBySite(diagnosisInputs(failing, succeeding, coherence))
	if err != nil {
		return nil, err
	}
	var out []SiteDiagnosis
	for _, sr := range reports {
		out = append(out, SiteDiagnosis{
			File:     sr.Site.File,
			Line:     sr.Site.Line,
			Failures: sr.Failures,
			Report:   publicReport(sr.Report),
		})
	}
	return out, nil
}

// BenchmarkInfo summarizes one of the 31 re-authored Table 4 benchmarks.
type BenchmarkInfo struct {
	// Name, Version and KLOC echo the paper's Table 4 metadata.
	Name, Version string
	KLOC          float64
	// RootCause and Symptom are the Table 4 classification strings.
	RootCause, Symptom string
	// Concurrent marks the 11 concurrency-bug benchmarks.
	Concurrent bool
}

// Benchmarks lists the re-authored benchmark suite.
func Benchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, a := range apps.All() {
		out = append(out, BenchmarkInfo{
			Name:       a.Name,
			Version:    a.Paper.Version,
			KLOC:       a.Paper.KLOC,
			RootCause:  a.Class.String(),
			Symptom:    a.Symptom.String(),
			Concurrent: a.Class.Concurrent(),
		})
	}
	return out
}

// ExperimentConfig sizes the benchmark experiments; the zero value uses the
// paper's settings (10+10 runs for LBRA/LCRA, 1000+1000 for CBI).
type ExperimentConfig struct {
	// FailRuns and SuccRuns are the LBRA/LCRA profile counts.
	FailRuns, SuccRuns int
	// CBIRuns is the per-class CBI run count; CBIRate its sampling rate.
	CBIRuns int
	CBIRate float64
	// OverheadRuns averages the overhead measurements.
	OverheadRuns int
	// Jobs is the trial-execution worker count: independent runs fan out
	// across up to Jobs goroutines. 0 selects runtime.NumCPU(); 1 forces
	// strictly sequential execution. Results are byte-identical for every
	// value.
	Jobs int
	// Seed offsets all seeds.
	Seed int64
	// LBRSize and LCRSize override the 16-entry record depths.
	LBRSize, LCRSize int
	// Ranker selects the diagnosis scoring formula (-ranker). The zero
	// value is the paper's CBI-style harmonic mean.
	Ranker core.Ranker
	// CorpusPerCell is Table 9's generated-program count per (bug class ×
	// propagation distance) cell; 0 selects the default (13, a 208-program
	// corpus).
	CorpusPerCell int
}

func (c ExperimentConfig) internal() harness.Config {
	return harness.Config{
		FailRuns:      c.FailRuns,
		SuccRuns:      c.SuccRuns,
		CBIRuns:       c.CBIRuns,
		CBIRate:       c.CBIRate,
		OverheadRuns:  c.OverheadRuns,
		Jobs:          c.Jobs,
		Seed:          c.Seed,
		LBRSize:       c.LBRSize,
		LCRSize:       c.LCRSize,
		Ranker:        c.Ranker,
		CorpusPerCell: c.CorpusPerCell,
	}
}

// SequentialResult is one paper Table 6 row: LBRLOG entry ranks, LBRA and
// CBI predictor ranks, patch distances, and run-time overheads (fractions;
// 0.01 is 1%). Rank 0 means missed; Related marks ranks that refer to a
// root-cause-related branch rather than the root-cause branch itself (the
// paper's * cases). Distances equal to PatchDistInfinite mean "different
// file".
type SequentialResult struct {
	Benchmark                              string
	RankToggling, RankNoToggling           int
	Related                                bool
	LBRARank, CBIRank                      int
	PatchDistFailureSite, PatchDistLBR     int
	OvLogToggling, OvLogNoToggling         float64
	OvLBRAReactive, OvLBRAProactive, OvCBI float64
}

// PatchDistInfinite is the patch distance reported when the patch touches
// a different file (the paper's "∞").
const PatchDistInfinite = 1<<31 - 1

// SequentialRow reproduces one paper Table 6 row (sequential benchmarks).
func SequentialRow(name string, cfg ExperimentConfig) (*SequentialResult, error) {
	a := apps.ByName(name)
	if a == nil || a.Class.Concurrent() {
		return nil, fmt.Errorf("stmdiag: %q is not a sequential benchmark", name)
	}
	row, err := harness.RunSequential(a, cfg.internal())
	if err != nil {
		return nil, err
	}
	return &SequentialResult{
		Benchmark:            a.Name,
		RankToggling:         row.RankTog,
		RankNoToggling:       row.RankNoTog,
		Related:              row.RelatedTog,
		LBRARank:             row.LBRARank,
		CBIRank:              row.CBIRank,
		PatchDistFailureSite: row.DistFailureSite,
		PatchDistLBR:         row.DistLBR,
		OvLogToggling:        row.OvLogTog,
		OvLogNoToggling:      row.OvLogNoTog,
		OvLBRAReactive:       row.OvReactive,
		OvLBRAProactive:      row.OvProactive,
		OvCBI:                row.OvCBI,
	}, nil
}

// ConcurrentResult is one paper Table 7 row: the LCRLOG entry rank of the
// failure-predicting event under the space-saving (Conf1) and
// space-consuming (Conf2) configurations, and LCRA's predictor rank.
// Rank 0 means the event was missed or does not exist in the failure
// thread — the paper's "-" rows.
type ConcurrentResult struct {
	Benchmark            string
	RankConf1, RankConf2 int
	LCRARank             int
	FailRate             float64
}

// ConcurrentRow reproduces one paper Table 7 row (concurrency benchmarks).
func ConcurrentRow(name string, cfg ExperimentConfig) (*ConcurrentResult, error) {
	a := apps.ByName(name)
	if a == nil || !a.Class.Concurrent() {
		return nil, fmt.Errorf("stmdiag: %q is not a concurrency benchmark", name)
	}
	row, err := harness.RunConcurrent(a, cfg.internal())
	if err != nil {
		return nil, err
	}
	return &ConcurrentResult{
		Benchmark: a.Name,
		RankConf1: row.RankConf1,
		RankConf2: row.RankConf2,
		LCRARank:  row.LCRARank,
		FailRate:  row.FailRate,
	}, nil
}

// NumTables is the highest table RenderTable accepts: the paper's Tables
// 1–7 plus the robustness table (8) this reproduction adds.
const NumTables = harness.NumTables

// RenderTable regenerates one of the tables (1–NumTables) as text: the
// paper's Tables 1–7, plus Table 8, the fault-injection robustness sweep.
func RenderTable(n int, cfg ExperimentConfig) (string, error) {
	return harness.RenderTable(n, cfg.internal())
}
