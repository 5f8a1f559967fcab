package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"stmdiag/internal/apps"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/pmu"
	"stmdiag/internal/synth"
	"stmdiag/internal/trace"
	"stmdiag/internal/vm"
)

// This file registers the trial kinds: every trial body the harness and its
// commands run, named and parameterized by JSON so it can execute in any
// process and resume from the artifact store. A kind's behavior is a pure
// function of (params, stream, trial index, attempt): its VM options, seed
// derivation and accept/reject/error decisions may depend on nothing else,
// or the cross-executor golden-table identity breaks.

func init() {
	registerKind("fail-profile", failProfileKind)
	registerKind("succ-profile", succProfileKind)
	registerKind("cbi-run", cbiRunKind)
	registerKind("mean-cycles", meanCyclesKind)
	registerKind("conc-profile", concProfileKind)
	registerKind("corpus-program", corpusProgramKind)
	registerKind("coverage", coverageKind)
	registerKind("report-bundle", reportBundleKind)
}

// kindApp resolves a benchmark by name. The Table 3 micro-benchmark lives
// outside the main registry, so it gets an explicit fallback.
func kindApp(name string) (*apps.App, error) {
	if a := apps.ByName(name); a != nil {
		return a, nil
	}
	if name == apps.RWWMicro.Name {
		return apps.RWWMicro, nil
	}
	return nil, fmt.Errorf("harness: unknown app %q", name)
}

// progCache memoizes uninstrumented program builds per app; programs are
// immutable once built and already shared across concurrent trials.
var progCache sync.Map // app name -> *isa.Program

func cachedProgram(a *apps.App) *isa.Program {
	if v, ok := progCache.Load(a.Name); ok {
		return v.(*isa.Program)
	}
	v, _ := progCache.LoadOrStore(a.Name, a.Program())
	return v.(*isa.Program)
}

// buildCache memoizes instrumented builds keyed by (app, options). Builds
// are deterministic, so a cached instance is interchangeable with a fresh
// one; caching keeps per-trial instrumentation off the worker hot path.
var buildCache sync.Map // app name + "\x00" + options JSON -> *core.Instrumented

func cachedBuild(a *apps.App, opts core.Options) (*core.Instrumented, error) {
	kb, err := json.Marshal(opts)
	if err != nil {
		return nil, fmt.Errorf("harness: encode build options: %w", err)
	}
	key := a.Name + "\x00" + string(kb)
	if v, ok := buildCache.Load(key); ok {
		return v.(*core.Instrumented), nil
	}
	inst, err := core.EnhanceLogging(cachedProgram(a), opts)
	if err != nil {
		return nil, err
	}
	v, _ := buildCache.LoadOrStore(key, inst)
	return v.(*core.Instrumented), nil
}

// failProfileParams parameterizes one failure-run capture trial.
type failProfileParams struct {
	App     string       `json:"app"`
	Build   core.Options `json:"build"`
	Seed    int64        `json:"seed"`
	LBRSize int          `json:"lbrSize,omitempty"`
}

// failProfileKind runs the failure workload on an instrumented build and
// extracts the failure-run profile. A run that did not fail (or errored)
// is rejected, not fatal — concurrency benchmarks fail probabilistically.
func failProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P failProfileParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, false, err
	}
	prof, err := failureProfileOf(a, inst, TrialSeed(P.Seed, stream, tc.Index), Config{LBRSize: P.LBRSize}, tc)
	if err != nil {
		return vm.Profile{}, false, nil
	}
	return prof, true, nil
}

// succProfileParams parameterizes one success-run capture trial.
type succProfileParams struct {
	App     string       `json:"app"`
	Build   core.Options `json:"build"`
	Seed    int64        `json:"seed"`
	LBRSize int          `json:"lbrSize,omitempty"`
	// Strict makes a run error abort the collection (the Table 6 success
	// path); tolerant mode rejects instead (the Table 8 robustness path).
	Strict bool `json:"strict,omitempty"`
}

// succProfileKind runs the success workload and extracts the comparable
// success profile, falling back to the same-site failure snapshot for
// unconditional sites.
func succProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P succProfileParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, false, err
	}
	res, err := runApp(inst, a.Succeed, TrialSeed(P.Seed, stream, tc.Index), Config{LBRSize: P.LBRSize}, tc)
	if err != nil {
		if P.Strict {
			return vm.Profile{}, false, err
		}
		return vm.Profile{}, false, nil
	}
	if a.Succeed.FailedRun(res) {
		return vm.Profile{}, false, nil
	}
	prof, ok := core.SuccessRunProfile(res)
	if !ok {
		// Unconditional site: the same-site snapshot from a successful run
		// is the comparable success profile.
		if prof, ok = core.FailureRunProfile(res); !ok {
			return vm.Profile{}, false, nil
		}
	}
	return prof, true, nil
}

// cbiRunParams parameterizes one sampled CBI run.
type cbiRunParams struct {
	App      string  `json:"app"`
	WantFail bool    `json:"wantFail"`
	Rate     float64 `json:"rate"`
	Seed     int64   `json:"seed"`
	// Salt offsets the observer's sampling seed from the run seed.
	Salt int64 `json:"salt"`
	// Active, when non-nil, restricts sampling to these branch names (the
	// adaptive expansion); nil samples every branch. No omitempty: an
	// empty set still restricts and must not decode as nil.
	Active []string `json:"active"`
}

// cbiRunKind executes one CBI-instrumented run on the uninstrumented
// program and returns its sampled predicate observations.
func cbiRunKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P cbiRunParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	w := a.Fail
	if !P.WantFail {
		w = a.Succeed
	}
	seed := TrialSeed(P.Seed, stream, tc.Index)
	opts := w.VMOptions(seed)
	opts.Obs = tc.Sink
	opts.Faults = tc.Faults
	m, err := vm.New(cachedProgram(a), opts)
	if err != nil {
		return cbi.RunObs{}, false, err
	}
	o := cbi.NewObserver(P.Rate, seed+P.Salt)
	if P.Active != nil {
		active := make(map[string]bool, len(P.Active))
		for _, name := range P.Active {
			active[name] = true
		}
		o.Restrict(active)
	}
	o.Attach(m)
	res, err := m.Run()
	if err != nil {
		return cbi.RunObs{}, false, err
	}
	if w.FailedRun(res) != P.WantFail {
		return cbi.RunObs{}, false, nil
	}
	return o.Finish(P.WantFail), true, nil
}

// meanCyclesParams parameterizes one overhead-measurement run.
type meanCyclesParams struct {
	App string `json:"app"`
	// Build selects the instrumented variant; nil runs the plain program
	// (the overhead baseline and the CBI column).
	Build   *core.Options `json:"build,omitempty"`
	CBIHook bool          `json:"cbiHook,omitempty"`
	Rate    float64       `json:"rate,omitempty"`
	Seed    int64         `json:"seed"`
	LBRSize int           `json:"lbrSize,omitempty"`
}

// meanCyclesKind runs the success workload once and returns its cycle
// count. Errors are hard (Map semantics: overhead averages index results
// positionally).
func meanCyclesKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P meanCyclesParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	seed := TrialSeed(P.Seed, stream, tc.Index)
	p := cachedProgram(a)
	var segv []int64
	if P.Build != nil {
		inst, err := cachedBuild(a, *P.Build)
		if err != nil {
			return nil, false, err
		}
		p, segv = inst.Prog, inst.SegvIoctls
	}
	opts := a.Succeed.VMOptions(seed)
	opts.LBRSize = P.LBRSize
	opts.Obs = tc.Sink
	opts.Faults = tc.Faults
	if segv != nil {
		opts.SegvIoctls = segv
	}
	opts.Driver = kernel.Driver{}
	m, err := vm.New(p, opts)
	if err != nil {
		return uint64(0), false, err
	}
	if P.CBIHook {
		cbi.NewObserver(P.Rate, seed+777).Attach(m)
	}
	res, err := m.Run()
	if err != nil {
		return uint64(0), false, err
	}
	return res.Cycles, true, nil
}

// concProfileParams parameterizes one LCR-instrumented concurrency trial.
type concProfileParams struct {
	App      string        `json:"app"`
	Build    core.Options  `json:"build"`
	Conf     pmu.LCRConfig `json:"conf"`
	WantFail bool          `json:"wantFail"`
	Seed     int64         `json:"seed"`
	LCRSize  int           `json:"lcrSize,omitempty"`
}

// concProfileKind runs one interleaving trial under an LCR configuration
// and extracts the requested profile. A run with the wrong outcome is
// rejected; a VM error is fatal.
func concProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P concProfileParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, false, err
	}
	w := a.Fail
	if !P.WantFail {
		w = a.Succeed
	}
	res, err := runConc(a, inst, w, TrialSeed(P.Seed, stream, tc.Index), P.Conf, Config{LCRSize: P.LCRSize}, tc)
	if err != nil {
		return vm.Profile{}, false, err
	}
	if w.FailedRun(res) != P.WantFail {
		return vm.Profile{}, false, nil
	}
	var prof vm.Profile
	var ok bool
	if P.WantFail {
		prof, ok = core.FailureRunProfile(res)
	} else {
		if prof, ok = core.SuccessRunProfile(res); !ok {
			// Unconditional site: use the same-site snapshot.
			prof, ok = core.FailureRunProfile(res)
		}
	}
	return prof, ok, nil
}

// corpusParams parameterizes Table 9's corpus fan-out. Trial i is program
// i%PerCell of cell i/PerCell, cells in (bug class × distance) order; the
// remaining fields are the Config fields corpusProgram reads.
type corpusParams struct {
	PerCell     int   `json:"perCell"`
	Seed        int64 `json:"seed"`
	MaxAttempts int   `json:"maxAttempts"`
	FailRuns    int   `json:"failRuns"`
	SuccRuns    int   `json:"succRuns"`
	LBRSize     int   `json:"lbrSize,omitempty"`
	LCRSize     int   `json:"lcrSize,omitempty"`
}

// corpusProgramKind runs the diagnosis loop over one generated program.
// Errors are hard (MapKind semantics: Table 9 indexes results by cell).
func corpusProgramKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P corpusParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	cell, classes := tc.Index/P.PerCell, synth.BugClasses()
	out, err := corpusProgram(classes[cell/len(corpusDistances)], corpusDistances[cell%len(corpusDistances)],
		tc.Index%P.PerCell, Config{
			Seed: P.Seed, MaxAttempts: P.MaxAttempts, FailRuns: P.FailRuns, SuccRuns: P.SuccRuns,
			LBRSize: P.LBRSize, LCRSize: P.LCRSize,
		}, tc)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// coverageParams parameterizes a coverage sweep: trial i measures Source
// at sampling period Periods[i].
type coverageParams struct {
	Source  CoverageSource `json:"source"`
	Periods []int          `json:"periods"`
}

// coverageKind runs one THeME-style coverage measurement. Errors are hard
// (MapKind semantics: results print in period order).
func coverageKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P coverageParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	p, opts, err := P.Source.Program()
	if err != nil {
		return nil, false, err
	}
	opts.Obs = tc.Sink
	opts.Faults = tc.Faults
	res, err := RunCoverage(p, opts, P.Periods[tc.Index])
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// reportBuild is the instrumentation a failure-report bundle is captured
// under: LBRLOG and LCRLOG with toggling.
var reportBuild = core.Options{LBR: true, LCR: true, Toggling: true}

// reportInst resolves app and its report build from the build cache.
func reportInst(app string) (*apps.App, *core.Instrumented, error) {
	a, err := kindApp(app)
	if err != nil {
		return nil, nil, err
	}
	inst, err := cachedBuild(a, reportBuild)
	return a, inst, err
}

// ReportProgram returns the instrumented program app's failure-report
// bundles are captured on, for auditing them. It shares the build cache
// with the report-bundle kind, so an in-process search instruments once.
func ReportProgram(app string) (*isa.Program, error) {
	_, inst, err := reportInst(app)
	if err != nil {
		return nil, err
	}
	return inst.Prog, nil
}

// ReportParams parameterizes the failure-report seed search: trial i runs
// App's failure workload at scheduler seed Seed+i.
type ReportParams struct {
	App  string `json:"app"`
	Seed int64  `json:"seed"`
}

// ReportBundle is one failing run's encoded failure-report bundle and the
// seed that produced it.
type ReportBundle struct {
	Seed int64  `json:"seed"`
	Data []byte `json:"data"`
}

// reportBundleKind runs the failure workload under reportBuild and encodes
// the bundle of a run that failed; a run that did not fail is rejected.
func reportBundleKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P ReportParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, inst, err := reportInst(P.App)
	if err != nil {
		return nil, false, err
	}
	seed := P.Seed + int64(tc.Index)
	opts := a.Fail.VMOptions(seed)
	opts.Driver = kernel.Driver{}
	opts.SegvIoctls = inst.SegvIoctls
	opts.LCRConfig = pmu.ConfSpaceConsuming
	opts.Obs = tc.Sink
	opts.Faults = tc.Faults
	res, err := vm.Run(inst.Prog, opts)
	if err != nil {
		return nil, false, err
	}
	if !a.Fail.FailedRun(res) {
		return nil, false, nil
	}
	data, err := trace.Encode(inst.Prog, res)
	if err != nil {
		return nil, false, err
	}
	return ReportBundle{Seed: seed, Data: data}, true, nil
}
