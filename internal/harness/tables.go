package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"stmdiag/internal/apps"
	"stmdiag/internal/cache"
	"stmdiag/internal/cfg"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/source"
	"stmdiag/internal/stats"
	"stmdiag/internal/synth"
)

// NumTables is the highest table RenderTable knows: the paper's Tables 1–7
// plus this reproduction's own Table 8 (diagnosis robustness under
// injected capture faults) and Table 9 (root-cause ranking over the
// generated bug corpus).
const NumTables = 9

// tableOrder fixes the row order of Tables 4–7 to match the paper.
var tableOrder = []string{
	"Apache1", "Apache2", "Apache3", "cp", "Cppcheck1", "Cppcheck2",
	"Cppcheck3", "Lighttpd", "ln", "mv", "paste", "PBZIP1", "PBZIP2",
	"rm", "sort", "Squid1", "Squid2", "tac", "tar1", "tar2",
	"Apache4", "Apache5", "Cherokee", "FFT", "LU",
	"Mozilla-JS1", "Mozilla-JS2", "Mozilla-JS3", "MySQL1", "MySQL2", "PBZIP3",
}

// orderedApps returns registered apps in paper order, filtered by kind.
func orderedApps(concurrent bool) []*apps.App {
	var out []*apps.App
	for _, name := range tableOrder {
		if a := apps.ByName(name); a != nil && a.Class.Concurrent() == concurrent {
			out = append(out, a)
		}
	}
	return out
}

// Table1 demonstrates the LBR filter semantics of paper Table 1: for each
// LBR_SELECT mask it feeds one branch of every class through an LBR and
// reports which classes survive the filter.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: LBR_SELECT filter masks (IA32_DEBUGCTL id %#x, LBR_SELECT id %#x)\n",
		pmu.MSRDebugCtl, pmu.MSRLBRSelect)
	fmt.Fprintf(&b, "enable value %#x, disable value %#x; * marks masks the system uses (value %#x)\n\n",
		pmu.DebugCtlEnableLBR, pmu.DebugCtlDisableLBR, uint64(pmu.PaperLBRSelect))

	classes := []struct {
		class  isa.BranchClass
		kernel bool
		label  string
	}{
		{isa.BranchCond, true, "ring-0 conditional"},
		{isa.BranchCond, false, "conditional"},
		{isa.BranchRelCall, false, "near relative call"},
		{isa.BranchIndCall, false, "near indirect call"},
		{isa.BranchReturn, false, "near return"},
		{isa.BranchUncondInd, false, "near indirect jump"},
		{isa.BranchUncondRel, false, "near relative jump"},
	}
	masks := []struct {
		mask uint64
		used bool
		name string
	}{
		{pmu.SelCPLEq0, true, "0x001 filter ring-0 branches"},
		{pmu.SelCPLNeq0, false, "0x002 filter other-level branches"},
		{pmu.SelJCC, false, "0x004 filter conditional branches"},
		{pmu.SelNearRelCall, true, "0x008 filter near relative calls"},
		{pmu.SelNearIndCall, true, "0x010 filter near indirect calls"},
		{pmu.SelNearRet, true, "0x020 filter near returns"},
		{pmu.SelNearIndJmp, true, "0x040 filter near indirect jumps"},
		{pmu.SelNearRelJmp, false, "0x080 filter near relative jumps"},
		{pmu.SelFarBranch, true, "0x100 filter far branches"},
	}
	for _, m := range masks {
		l := pmu.NewLBR(pmu.DefaultLBRSize)
		_ = l.WriteMSR(pmu.MSRLBRSelect, m.mask)
		_ = l.WriteMSR(pmu.MSRDebugCtl, pmu.DebugCtlEnableLBR)
		var dropped []string
		for i, c := range classes {
			l.Clear()
			l.Record(pmu.BranchRecord{From: i, To: i + 100, Class: c.class, Kernel: c.kernel})
			if l.Len() == 0 {
				dropped = append(dropped, c.label)
			}
		}
		star := " "
		if m.used {
			star = "*"
		}
		fmt.Fprintf(&b, "%s %-42s suppresses: %s\n", star, m.name, strings.Join(dropped, ", "))
	}
	return b.String()
}

// Table2 demonstrates the L1D coherence events of paper Table 2 by driving
// a two-core scenario through the cache and counting what each core's
// performance counters observe per (event code, unit mask).
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: L1D cache-coherence events (LOAD code 0x40, STORE code 0x41)\n\n")
	sys := cache.MustNewSystem(2, cache.DefaultConfig)
	var counters [2]pmu.Counters
	access := func(core int, addr int64, kind cache.AccessKind) {
		counters[core].Observe(kind, sys.Access(core, addr, kind))
	}
	// A little cross-core traffic exercising every observable state.
	access(0, 64, cache.Load)  // I -> E
	access(0, 64, cache.Load)  // E
	access(1, 64, cache.Load)  // I (remote M/E downgrade), both S
	access(0, 64, cache.Load)  // S
	access(0, 64, cache.Store) // S upgrade -> M
	access(0, 64, cache.Store) // M
	access(1, 64, cache.Load)  // I (remote M), both S
	access(1, 64, cache.Store) // S upgrade
	access(0, 64, cache.Load)  // I (invalidated by remote store)

	states := []cache.State{cache.Invalid, cache.Shared, cache.Exclusive, cache.Modified}
	for coreID := range counters {
		fmt.Fprintf(&b, "core %d:\n", coreID)
		for _, kind := range []cache.AccessKind{cache.Load, cache.Store} {
			code := pmu.EventCodeLoad
			if kind == cache.Store {
				code = pmu.EventCodeStore
			}
			for _, st := range states {
				fmt.Fprintf(&b, "  code %#x umask %#02x (observe %s before %s): %d\n",
					code, pmu.StateUmask(st), st, kind, counters[coreID].Count(kind, st))
			}
		}
	}
	return b.String()
}

// Table3 reproduces the failure-predicting-event taxonomy of paper Table 3:
// for one benchmark of each concurrency-bug class it compares the racy
// access's observed coherence state between failing and successful runs and
// reports whether the FPE occurs in the failure thread.
func Table3(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	pool := cfg.Pool()
	var b strings.Builder
	b.WriteString("Table 3: failure predicting events (FPE) per concurrency-bug class\n\n")
	fmt.Fprintf(&b, "%-12s %-24s %-22s %-18s %s\n", "benchmark", "bug class", "FPE (paper)", "FPE observed", "in failure thread")

	rows := []struct {
		app      string
		paperFPE string
	}{
		{"Mozilla-JS1", "invalid read"}, // RWR: almost always
		{"micro-RWW", "invalid write"},  // RWW: often (Table 3's example)
		{"Mozilla-JS3", "invalid read"}, // WWR: almost always
		{"MySQL1", "invalid read (a3)"}, // WRW: sometimes; not here
		{"FFT", "exclusive read"},       // read-too-early: often
		{"PBZIP3", "invalid read"},      // read-too-late: often
	}
	for _, row := range rows {
		a, err := kindApp(row.app)
		if err != nil {
			return "", err
		}
		want := a.FPE
		observed := "none in failure thread"
		inThread := "no"
		if want != nil {
			runs, _, err := collectProfiles(a, profileParams{Build: lcrBuild, Conf: pmu.ConfSpaceConsuming,
				WantFail: true, Strict: true}, 3, "table3", false, cfg, pool)
			if err != nil {
				return "", err
			}
			hits := 0
			for _, r := range coherenceRanks(runs, want) {
				if r > 0 {
					hits++
				}
			}
			observed = fmt.Sprintf("%s %s at %s:%d (%d/%d runs)",
				want.State, want.Kind, want.File, want.Line, hits, len(runs))
			if hits > 0 {
				inThread = "yes"
			}
		}
		fmt.Fprintf(&b, "%-12s %-24s %-22s %-18s %s\n", a.Name, a.Class, row.paperFPE, observed, inThread)
	}
	return b.String(), nil
}

// Table4 renders the benchmark inventory of paper Table 4, paper metadata
// alongside the re-authored programs' own statistics.
func Table4() string {
	var b strings.Builder
	b.WriteString("Table 4: benchmarks (paper metadata | this reproduction)\n\n")
	fmt.Fprintf(&b, "%-12s %-9s %7s %-22s %-14s %9s | %7s %9s %8s\n",
		"program", "version", "KLOC", "root cause", "symptom", "log pts", "instrs", "branches", "log pts")
	for _, concurrent := range []bool{false, true} {
		for _, a := range orderedApps(concurrent) {
			st := a.Program().Stats()
			fmt.Fprintf(&b, "%-12s %-9s %7.1f %-22s %-14s %9d | %7d %9d %8d\n",
				a.Name, a.Paper.Version, a.Paper.KLOC, a.Class, a.Symptom,
				a.Paper.LogPoints, st.Instructions, st.Branches, st.LogSites)
		}
	}
	return b.String()
}

// Table5 reproduces the useful-branch-ratio analysis of paper Table 5 over
// every benchmark with logging sites, plus synthetic programs restoring the
// paper's thousands-of-sites scale.
func Table5() string {
	var b strings.Builder
	b.WriteString("Table 5: resolution of control-flow uncertainties by LBRLOG\n\n")
	fmt.Fprintf(&b, "%-14s %12s %10s\n", "application", "useful ratio", "#log sites")
	total := 0
	// The paper's Table 5 covers the sequential applications' logging
	// sites (its concurrency benchmarks are evaluated through Table 7).
	for _, a := range orderedApps(false) {
		an := cfg.NewAnalyzer(a.Program())
		rep := an.Analyze()
		if rep.LogSites == 0 {
			continue
		}
		total += rep.LogSites
		fmt.Fprintf(&b, "%-14s %12.2f %10d\n", a.Name, rep.Ratio, rep.LogSites)
	}
	for i := 0; i < 4; i++ {
		p := synth.MustGenerate(fmt.Sprintf("synth-%d", i), synth.Config{
			Seed: int64(i + 1), Funcs: 14, StmtsPerFunc: 40, LogEvery: 5,
		})
		an := cfg.NewAnalyzer(p)
		an.MaxPaths = 64
		rep := an.Analyze()
		total += rep.LogSites
		fmt.Fprintf(&b, "%-14s %12.2f %10d\n", p.Name, rep.Ratio, rep.LogSites)
	}
	fmt.Fprintf(&b, "\ntotal logging sites analyzed: %d (paper: 6945)\n", total)
	return b.String()
}

// fmtRank renders a Table 6/7 rank cell: "-" for missed, "n" or "n*" for
// related-branch hits.
func fmtRank(rank int, related bool) string {
	if rank <= 0 {
		return "-"
	}
	if related {
		return fmt.Sprintf("%d*", rank)
	}
	return fmt.Sprintf("%d", rank)
}

// fmtCBI renders a CBI cell, with N/A for unsupported (C++) benchmarks.
func fmtCBI(rank int) string {
	if rank < 0 {
		return "N/A"
	}
	return fmtRank(rank, false)
}

// Table6 runs the full sequential-bug evaluation (paper Table 6): LBRLOG
// ranks with and without toggling, LBRA and CBI predictor ranks, patch
// distances, and the five overhead columns.
func Table6(cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("Table 6: results of LBRLOG and LBRA (measured | paper in parens)\n\n")
	fmt.Fprintf(&b, "%-10s | %7s %7s %5s %5s | %8s %8s | %7s %7s %7s %7s %7s\n",
		"app", "w/tog", "no-tog", "LBRA", "CBI", "d(fail)", "d(LBR)",
		"log-t%", "log-n%", "react%", "proact%", "CBI%")
	for _, a := range orderedApps(false) {
		row, err := RunSequential(a, cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s | %4s(%s) %4s(%s) %5s %5s | %8s %8s | %7.2f %7.2f %7.2f %7.2f %7.2f\n",
			a.Name,
			fmtRank(row.RankTog, row.RelatedTog), fmtRank(a.Paper.LBRRankTog, a.Paper.Related),
			fmtRank(row.RankNoTog, row.RelatedNoTog), fmtRank(a.Paper.LBRRankNoTog, a.Paper.Related && a.Paper.LBRRankNoTog > 0),
			fmtRank(row.LBRARank, false), fmtCBI(row.CBIRank),
			source.FormatDistance(row.DistFailureSite), source.FormatDistance(row.DistLBR),
			100*row.OvLogTog, 100*row.OvLogNoTog, 100*row.OvReactive, 100*row.OvProactive, 100*row.OvCBI)
	}
	return b.String(), nil
}

// Table7 runs the concurrency-bug evaluation (paper Table 7): LCRLOG entry
// ranks under both configurations and LCRA's verdict.
func Table7(cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("Table 7: failure diagnosis capability of LCR (measured | paper in parens)\n\n")
	fmt.Fprintf(&b, "%-12s | %10s %10s %8s | %s\n", "app", "Conf1", "Conf2", "LCRA", "fail rate")
	for _, a := range orderedApps(true) {
		row, err := RunConcurrent(a, cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s | %5s(%s) %5s(%s) %8s | %.2f\n",
			a.Name,
			fmtRank(row.RankConf1, false), fmtRank(a.Paper.LCRConf1, false),
			fmtRank(row.RankConf2, false), fmtRank(a.Paper.LCRConf2, false),
			fmtRank(row.LCRARank, false), row.FailRate)
	}
	return b.String(), nil
}

// robustnessRates are the uniform per-layer injection rates Table 8 sweeps.
// Rate 0 is the fault-free baseline (the nil-plan fast path), locked
// byte-identical to the other tables' inputs.
var robustnessRates = []float64{0, 1e-3, 1e-2, 1e-1}

// robustnessApps is the sequential-benchmark subset Table 8 diagnoses at
// each rate: deterministic failures, so every rejected trial is the
// injector's doing, and small programs, so the 4-rate sweep stays cheap.
var robustnessApps = []string{"sort", "cp", "paste", "tac"}

// robustRow is one (rate, app) cell of Table 8.
type robustRow struct {
	app                  *apps.App
	failProfs, succProfs int
	rank                 int
	topHit               bool
	verdict              stats.Verdict
}

// table8Row runs the LBRA diagnosis for one app under the configured fault
// spec, tolerating profile attrition: a shortfall of failure or success
// profiles degrades the verdict instead of failing the table.
func table8Row(a *apps.App, cfg Config) (*robustRow, error) {
	cfg = cfg.withDefaults()
	pool := cfg.Pool()
	endCapture := beginPhase(cfg, a.Name, phaseCapture)
	c, err := capture(a, robustCapture, cfg, pool)
	if err != nil {
		return nil, err
	}
	endCapture()
	row := &robustRow{app: a, failProfs: len(c.fail), succProfs: len(c.succ)}
	if len(c.fail) == 0 {
		row.verdict = stats.VerdictInsufficient
		return row, nil
	}
	endRank := beginPhase(cfg, a.Name, phaseRank)
	defer endRank()
	report, err := core.Diagnose(core.ModeLBR, c.fail, c.succ)
	if err != nil {
		return nil, err
	}
	// A trial that exhausted its retry budget ships its flight-recorder
	// tail with the diagnosis instead of just an error message.
	if d := pool.FirstDegraded(); d != nil {
		report.AttachFlight(d.Events)
	}
	row.verdict = report.Verdict
	row.rank = rootCauseRank(a, report)
	if top, ok := report.Top(); ok && top.Event.Kind == core.EventBranch &&
		(top.Event.Branch == a.RootBranch ||
			(a.RelatedBranch != "" && top.Event.Branch == a.RelatedBranch)) {
		row.topHit = true
	}
	return row, nil
}

// sumPrefix totals every counter in the snapshot under a dotted prefix.
func sumPrefix(s obs.Snapshot, prefix string) uint64 {
	var names []string
	for name := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total uint64
	for _, name := range names {
		total += s.Counters[name]
	}
	return total
}

// Table8 is this reproduction's robustness table: it reruns the LBRA
// diagnosis of Table 6's pipeline over a benchmark subset while injecting
// capture faults (record drops and corruptions, truncated and glitched
// profile reads, lost snapshots, crashing trials — the engineered analogs
// of paper §4.2's pollution sources) at uniform per-layer rates, and
// reports how diagnosis quality degrades. Every number printed is derived
// from committed per-trial state, so the table is byte-identical for any
// -jobs value and across repeated runs.
func Table8(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	var b strings.Builder
	b.WriteString("Table 8: diagnosis robustness under injected capture faults\n\n")
	fmt.Fprintf(&b, "%-6s %-8s | %5s %5s | %4s %s\n",
		"rate", "app", "fprof", "sprof", "LBRA", "verdict")
	for _, rate := range robustnessRates {
		var spec faultinj.Spec
		if rate > 0 {
			for l := range spec.Rates {
				spec.Rates[l] = rate
			}
		}
		// A private registry isolates this rate's committed-trial counters:
		// the fault totals below must not depend on whatever else the
		// caller's sink has accumulated. The caller's tracer still sees the
		// runs, and the counters merge back into its registry at the end.
		priv := &obs.Sink{Metrics: obs.NewRegistry()}
		if cfg.Obs != nil {
			priv.Trace = cfg.Obs.Trace
			priv.Verbosity = cfg.Obs.Verbosity
			priv.Profiling = cfg.Obs.Profiling
		}
		rcfg := cfg
		rcfg.Faults = spec
		rcfg.Obs = priv

		topHits, top3, ranked := 0, 0, 0
		rankSum := 0
		for _, name := range robustnessApps {
			a := apps.ByName(name)
			if a == nil {
				return "", fmt.Errorf("harness: Table 8 benchmark %q not registered", name)
			}
			row, err := table8Row(a, rcfg)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%-6s %-8s | %2d/%-2d %2d/%-2d | %4s %s\n",
				fmtRate(rate), a.Name, row.failProfs, rcfg.FailRuns, row.succProfs, rcfg.SuccRuns,
				fmtRank(row.rank, false), row.verdict)
			if row.topHit {
				topHits++
			}
			if row.rank >= 1 && row.rank <= 3 {
				top3++
			}
			if row.rank > 0 {
				ranked++
				rankSum += row.rank
			}
		}
		snap := priv.Metrics.Snapshot()
		meanRank := "-"
		if ranked > 0 {
			meanRank = fmt.Sprintf("%.2f", float64(rankSum)/float64(ranked))
		}
		fmt.Fprintf(&b, "rate %-6s top-1 precision %d/%d, top-3 recall %d/%d, mean rank %s | injected %d, recovered %d, degraded %d, retried %d\n\n",
			fmtRate(rate)+":", topHits, len(robustnessApps), top3, len(robustnessApps), meanRank,
			snap.Counter("faultinj.injected"),
			sumPrefix(snap, "faultinj.recovered."),
			sumPrefix(snap, "faultinj.degraded.")+snap.Counter("harness.pool.degraded"),
			snap.Counter("harness.pool.retries"))
		if cfg.Obs != nil && cfg.Obs.Metrics != nil {
			cfg.Obs.Metrics.Merge(snap)
		}
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}

// fmtRate renders an injection rate the way -faults specs write it.
func fmtRate(r float64) string {
	return strconv.FormatFloat(r, 'g', -1, 64)
}

// RenderTable regenerates one of the paper's tables by number. With a
// profiling sink it also attributes the table's cycle-clock and run-count
// deltas to "prof.table.<n>.*" and records the report phase (table
// rendering consumes no simulated cycles, so the report phase counts spans
// and rendered bytes rather than cycles).
func RenderTable(n int, cfg Config) (string, error) {
	s := cfg.Obs
	profiled := s.Profiled() && s.Metrics != nil
	var c0, r0 uint64
	if profiled {
		c0 = s.Cycles()
		r0 = s.Counter("vm.runs").Value()
	}
	out, err := renderTableBody(n, cfg)
	if err == nil && profiled {
		pre := fmt.Sprintf("prof.table.%d.", n)
		s.Counter(pre + "spans").Inc()
		s.Counter(pre + "cycles").Add(s.Cycles() - c0)
		s.Counter(pre + "runs").Add(s.Counter("vm.runs").Value() - r0)
		s.Counter("prof.phase.report.spans").Inc()
		s.Counter("prof.phase.report.bytes").Add(uint64(len(out)))
	}
	return out, err
}

// renderTableBody dispatches to the table implementations.
func renderTableBody(n int, cfg Config) (string, error) {
	switch n {
	case 1:
		return Table1(), nil
	case 2:
		return Table2(), nil
	case 3:
		return Table3(cfg)
	case 4:
		return Table4(), nil
	case 5:
		return Table5(), nil
	case 6:
		return Table6(cfg)
	case 7:
		return Table7(cfg)
	case 8:
		return Table8(cfg)
	case 9:
		return Table9(cfg)
	}
	return "", fmt.Errorf("harness: no table %d (tables 1-%d)", n, NumTables)
}

// DiagnosisLatency compares how many failure runs LBRA and CBI need before
// the root-cause branch tops their rankings — the diagnosis-latency
// argument of paper §7.2 (LBRA: ~10 runs; CBI: hundreds). It returns the
// measured minimum failure-run counts, capped at maxRuns.
func DiagnosisLatency(a *apps.App, maxRuns int, cfg Config) (lbraRuns, cbiRuns int, err error) {
	cfg = cfg.withDefaults()
	lbraRuns, cbiRuns = -1, -1
	for _, n := range []int{2, 5, 10} {
		c := cfg
		c.FailRuns, c.SuccRuns = n, n
		c.CBIRuns = 1 // CBI is measured separately below
		c.OverheadRuns = 1
		row, e := RunSequential(a, c)
		if e != nil {
			return 0, 0, e
		}
		if row.LBRARank == 1 {
			lbraRuns = n
			break
		}
	}
	pool := cfg.Pool()
	for _, n := range []int{50, 200, 500, 1000} {
		if n > maxRuns {
			break
		}
		c := cfg
		c.CBIRuns = n
		rank, e := runCBI(a, c, pool)
		if e != nil {
			return 0, 0, e
		}
		if rank == 1 {
			cbiRuns = n
			break
		}
	}
	return lbraRuns, cbiRuns, nil
}
