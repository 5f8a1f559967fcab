package harness

import (
	"stmdiag/internal/isa"
	"stmdiag/internal/pmu"
	"stmdiag/internal/synth"
	"stmdiag/internal/vm"
)

// CoverageResult is a THeME-style coverage measurement (Walcott-Justice et
// al., ISSTA '12 — paper §8): branch coverage recovered by periodically
// draining the LBR during a run. The paper's point is that this usage
// *requires* profiling throughout the execution, which is why THeME costs
// far more than LBRLOG's profile-only-at-failure design.
type CoverageResult struct {
	// CoveredEdges is how many distinct source-branch edges the periodic
	// samples recovered; ExecutedEdges is the ground truth.
	CoveredEdges, ExecutedEdges int
	// Coverage is CoveredEdges/ExecutedEdges.
	Coverage float64
	// Samples is how many LBR drains ran.
	Samples int
	// Overhead is the sampling cost relative to the unprofiled run.
	Overhead float64
}

type branchEdge struct {
	branch int
	edge   isa.BranchEdge
}

// edgesOf extracts the source-branch edges from a batch of LBR records.
func edgesOf(p *isa.Program, recs []pmu.BranchRecord, into map[branchEdge]bool) {
	for _, r := range recs {
		if r.From < 0 || r.From >= len(p.Instrs) {
			continue
		}
		in := &p.Instrs[r.From]
		if in.BranchID != isa.NoBranch {
			into[branchEdge{in.BranchID, in.Edge}] = true
		}
	}
}

// armLBRs enables recording with the paper's filter on every core.
func armLBRs(m *vm.Machine) error {
	for _, c := range m.Cores() {
		if err := c.LBR.WriteMSR(pmu.MSRLBRSelect, pmu.PaperLBRSelect); err != nil {
			return err
		}
		if err := c.LBR.WriteMSR(pmu.MSRDebugCtl, pmu.DebugCtlEnableLBR); err != nil {
			return err
		}
	}
	return nil
}

// RunCoverage measures branch coverage by draining the LBR every
// periodSteps retired instructions, THeME-style, and compares against the
// ground truth (every edge actually executed) and the unprofiled cost.
func RunCoverage(p *isa.Program, opts vm.Options, periodSteps int) (*CoverageResult, error) {
	// Ground truth and baseline cost.
	truth := map[branchEdge]bool{}
	mTruth, err := vm.New(p, opts)
	if err != nil {
		return nil, err
	}
	mTruth.SetStepHook(func(m *vm.Machine, t *vm.Thread, in *isa.Instr) {
		if in.BranchID == isa.NoBranch {
			return
		}
		if in.Op.IsCond() {
			edge := in.Edge
			if !vm.CondTaken(in.Op, t.Flags) {
				edge = edge.Opposite()
			}
			truth[branchEdge{in.BranchID, edge}] = true
		} else if in.Op == isa.OpJmp {
			truth[branchEdge{in.BranchID, in.Edge}] = true
		}
	})
	baseRes, err := mTruth.Run()
	if err != nil {
		return nil, err
	}

	// The sampled run: drain every core's LBR each period, paying the
	// profile cost each time.
	covered := map[branchEdge]bool{}
	res := &CoverageResult{}
	m, err := vm.New(p, opts)
	if err != nil {
		return nil, err
	}
	if err := armLBRs(m); err != nil {
		return nil, err
	}
	steps := 0
	m.SetStepHook(func(mm *vm.Machine, t *vm.Thread, in *isa.Instr) {
		steps++
		if steps%periodSteps != 0 {
			return
		}
		res.Samples++
		mm.AddCycles(vm.CostProfile)
		for _, c := range mm.Cores() {
			edgesOf(p, c.LBR.Latest(), covered)
		}
	})
	sampledRes, err := m.Run()
	if err != nil {
		return nil, err
	}
	// Final drain at exit, as THeME does.
	for _, c := range m.Cores() {
		edgesOf(p, c.LBR.Latest(), covered)
	}

	res.ExecutedEdges = len(truth)
	for e := range covered {
		if truth[e] {
			res.CoveredEdges++
		}
	}
	if res.ExecutedEdges > 0 {
		res.Coverage = float64(res.CoveredEdges) / float64(res.ExecutedEdges)
	}
	res.Overhead = overhead(float64(baseRes.Cycles), float64(sampledRes.Cycles))
	return res, nil
}

// CoverageSource names the program a coverage sweep measures: a benchmark
// under its success workload (App), or a generated program (Synth). Seed is
// the run's scheduler seed.
type CoverageSource struct {
	App   string        `json:"app,omitempty"`
	Synth *synth.Config `json:"synth,omitempty"`
	Seed  int64         `json:"seed"`
}

// name is the source program's name; it labels the sweep's trial stream.
func (s CoverageSource) name() string {
	if s.Synth != nil {
		return "synth"
	}
	return s.App
}

// Program builds the source's program and the VM options it runs under.
func (s CoverageSource) Program() (*isa.Program, vm.Options, error) {
	if s.Synth != nil {
		p, err := synth.Generate(s.name(), *s.Synth)
		return p, vm.Options{Seed: s.Seed}, err
	}
	a, err := kindApp(s.App)
	if err != nil {
		return nil, vm.Options{}, err
	}
	return cachedProgram(a), a.Succeed.VMOptions(s.Seed), nil
}

// CoverageSweep measures coverage of src at each sampling period, fanning
// the independent measurements out through the trial pool as coverage
// kinds. Results come back in period order regardless of the worker count.
func CoverageSweep(src CoverageSource, periods []int, pool *Pool) ([]*CoverageResult, error) {
	return MapKind[*CoverageResult](pool, len(periods), src.name()+"/coverage", "coverage",
		coverageParams{Source: src, Periods: periods})
}
