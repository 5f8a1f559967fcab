package stmdiag

// The benchmark harness regenerates every table and figure-level result of
// the paper's evaluation section (one benchmark per table), plus the
// ablation studies DESIGN.md calls out. Custom metrics carry the headline
// numbers into the benchmark output:
//
//	go test -bench=. -benchmem
//
// Heavy benches run the full pipeline once per iteration; Go's benchmark
// framework keeps N=1 when an iteration exceeds the bench time.

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stmdiag/internal/apps"
	"stmdiag/internal/cache"
	"stmdiag/internal/cbi"
	"stmdiag/internal/cfg"
	"stmdiag/internal/core"
	"stmdiag/internal/harness"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/pbi"
	"stmdiag/internal/pmu"
	"stmdiag/internal/replay"
	"stmdiag/internal/synth"
	"stmdiag/internal/vm"
)

// benchCfg trades CBI run count (1000 in the paper, 300 here) for bench
// time; every other knob follows the paper.
var benchCfg = harness.Config{
	FailRuns:     10,
	SuccRuns:     10,
	CBIRuns:      300,
	OverheadRuns: 5,
}

// BenchmarkTable1LBRFilters regenerates the LBR_SELECT filter-semantics
// demonstration (paper Table 1).
func BenchmarkTable1LBRFilters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := harness.Table1(); !strings.Contains(out, "LBR_SELECT") {
			b.Fatal("table 1 malformed")
		}
	}
}

// BenchmarkTable2CoherenceEvents regenerates the L1D coherence-event counts
// (paper Table 2).
func BenchmarkTable2CoherenceEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := harness.Table2(); !strings.Contains(out, "0x40") {
			b.Fatal("table 2 malformed")
		}
	}
}

// BenchmarkTable3FPE regenerates the failure-predicting-event taxonomy
// (paper Table 3) and reports how many bug classes expose their FPE in the
// failure thread.
func BenchmarkTable3FPE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Table3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		yes := strings.Count(out, " yes")
		b.ReportMetric(float64(yes), "classes-with-FPE")
	}
}

// BenchmarkTable4Inventory regenerates the benchmark inventory (paper
// Table 4).
func BenchmarkTable4Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := harness.Table4(); !strings.Contains(out, "sort") {
			b.Fatal("table 4 malformed")
		}
	}
}

// BenchmarkTable5UsefulBranchRatio regenerates the useful-branch-ratio
// analysis (paper Table 5: ratios 0.74-0.98) and reports the mean ratio
// over the benchmark suite.
func BenchmarkTable5UsefulBranchRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum float64
		n := 0
		for _, a := range apps.Sequential() {
			rep := cfg.NewAnalyzer(a.Program()).Analyze()
			if rep.LogSites > 0 {
				sum += rep.Ratio
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "mean-useful-ratio")
	}
}

// BenchmarkTable6Sequential regenerates the sequential-bug evaluation
// (paper Table 6) over all 20 benchmarks and reports the paper's headline
// numbers: how many root causes LBRLOG captures, LBRA's top-rank count,
// and the mean overheads.
func BenchmarkTable6Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		captured, lbraTop, exactRanks := 0, 0, 0
		var ovTog, ovCBI float64
		for _, a := range apps.Sequential() {
			row, err := harness.RunSequential(a, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			if row.RankTog > 0 {
				captured++
			}
			if row.RankTog == a.Paper.LBRRankTog {
				exactRanks++
			}
			if row.LBRARank == 1 {
				lbraTop++
			}
			ovTog += row.OvLogTog
			ovCBI += row.OvCBI
		}
		b.ReportMetric(float64(captured), "LBRLOG-captured/20")
		b.ReportMetric(float64(exactRanks), "ranks-matching-paper/20")
		b.ReportMetric(float64(lbraTop), "LBRA-top1/20")
		b.ReportMetric(100*ovTog/20, "mean-LBRLOG-overhead-%")
		b.ReportMetric(100*ovCBI/20, "mean-CBI-overhead-%")
	}
}

// BenchmarkTable7Concurrency regenerates the concurrency-bug evaluation
// (paper Table 7: 7 of 11 failures diagnosed) and reports the diagnosed
// count and rank fidelity, once per trial-pool size of the -jobs scaling
// curve. Table 7's trials are short, so the curve shows the engine's fixed
// cost per trial (scripts/benchjson records it).
func BenchmarkTable7Concurrency(b *testing.B) {
	for _, jobs := range []int{1, 2, 4} {
		cfg := benchCfg
		cfg.Jobs = jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				diagnosed, exact := 0, 0
				for _, a := range apps.Concurrent() {
					row, err := harness.RunConcurrent(a, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if row.LCRARank == 1 {
						diagnosed++
					}
					if row.RankConf1 == a.Paper.LCRConf1 && row.RankConf2 == a.Paper.LCRConf2 {
						exact++
					}
				}
				b.ReportMetric(float64(diagnosed), "LCRA-diagnosed/11")
				b.ReportMetric(float64(exact), "ranks-matching-paper/11")
			}
		})
	}
}

// BenchmarkTable7Served times what -serve costs a whole run: the
// experiments binary renders a reduced Table 7 over subprocess workers, once
// plain and once with -serve federating every worker's telemetry into the
// served view, and stdout must match. Every op runs both back to back,
// alternating which goes first, and each sample reports both run times and
// served/sub, their ratio: pairing inside one op cancels the load drift of
// a shared machine, which go test's back-to-back samples of two separate
// benchmarks would not. scripts/benchjson holds the median ratio to 1.25.
func BenchmarkTable7Served(b *testing.B) {
	bin := filepath.Join(b.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/experiments").CombinedOutput(); err != nil {
		b.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-table", "7", "-failruns", "6", "-succruns", "6", "-cbiruns", "100",
		"-overhead", "2", "-jobs", "0", "-executor", "subprocess"}
	var want []byte
	run := func(extra ...string) time.Duration {
		var out bytes.Buffer
		cmd := exec.Command(bin, append(args, extra...)...)
		cmd.Stdout = &out
		start := time.Now()
		if err := cmd.Run(); err != nil {
			b.Fatalf("experiments %s: %v", strings.Join(extra, " "), err)
		}
		d := time.Since(start)
		if want == nil {
			want = out.Bytes()
		} else if !bytes.Equal(out.Bytes(), want) {
			b.Fatalf("stdout differs with %q", extra)
		}
		return d
	}
	run() // warm the page cache
	b.ResetTimer()
	var sub, served time.Duration
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			sub += run()
			served += run("-serve", "127.0.0.1:0")
		} else {
			served += run("-serve", "127.0.0.1:0")
			sub += run()
		}
	}
	b.ReportMetric(float64(sub.Nanoseconds())/float64(b.N), "sub-ns/run")
	b.ReportMetric(float64(served.Nanoseconds())/float64(b.N), "served-ns/run")
	b.ReportMetric(float64(served)/float64(sub), "served/sub")
}

// BenchmarkDiagnosisLatency compares how many failure occurrences LBRA and
// CBI need before naming the root cause (paper §7.2: 10 vs ~1000; CBI
// degrades already at 500).
func BenchmarkDiagnosisLatency(b *testing.B) {
	a := apps.ByName("sort")
	for i := 0; i < b.N; i++ {
		lbra, cbiRuns, err := harness.DiagnosisLatency(a, 1000, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(lbra), "LBRA-failruns-needed")
		if cbiRuns < 0 {
			cbiRuns = 1000 // not found within the cap
		}
		b.ReportMetric(float64(cbiRuns), "CBI-failruns-needed")
	}
}

// BenchmarkAblationLBRSize sweeps the record depth (4/8/16/32 — the
// hardware trend paper §2.1 describes) and reports how many of the 20
// sequential root causes stay within the ring at each size, validating
// the short-term-memory hypothesis.
func BenchmarkAblationLBRSize(b *testing.B) {
	for _, size := range []int{4, 8, 16, 32} {
		b.Run(map[int]string{4: "04", 8: "08", 16: "16", 32: "32"}[size], func(b *testing.B) {
			c := benchCfg
			c.LBRSize = size
			c.CBIRuns = 1
			c.OverheadRuns = 1
			c.FailRuns = 2
			c.SuccRuns = 2
			for i := 0; i < b.N; i++ {
				captured := 0
				for _, a := range apps.Sequential() {
					row, err := harness.RunSequential(a, c)
					if err != nil {
						b.Fatal(err)
					}
					if row.RankTog > 0 {
						captured++
					}
				}
				b.ReportMetric(float64(captured), "captured/20")
			}
		})
	}
}

// BenchmarkAblationToggling isolates the toggling design choice (paper
// §7.1.3): without it the LBR loses root causes to library pollution but
// runs cheaper.
func BenchmarkAblationToggling(b *testing.B) {
	c := benchCfg
	c.CBIRuns = 1
	c.OverheadRuns = 3
	c.FailRuns = 2
	c.SuccRuns = 2
	for i := 0; i < b.N; i++ {
		withTog, withoutTog := 0, 0
		var costTog, costNoTog float64
		for _, a := range apps.Sequential() {
			row, err := harness.RunSequential(a, c)
			if err != nil {
				b.Fatal(err)
			}
			if row.RankTog > 0 {
				withTog++
			}
			if row.RankNoTog > 0 {
				withoutTog++
			}
			costTog += row.OvLogTog
			costNoTog += row.OvLogNoTog
		}
		b.ReportMetric(float64(withTog), "captured-toggling/20")
		b.ReportMetric(float64(withoutTog), "captured-no-toggling/20")
		b.ReportMetric(100*costTog/20, "overhead-toggling-%")
		b.ReportMetric(100*costNoTog/20, "overhead-no-toggling-%")
	}
}

// BenchmarkAblationLCRConfig compares the two LCR event selections of
// paper Table 7: the space-saving configuration keeps the FPE shallower
// than the space-consuming one.
func BenchmarkAblationLCRConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var depth1, depth2, n float64
		for _, a := range apps.Concurrent() {
			if !a.Diagnosable {
				continue
			}
			row, err := harness.RunConcurrent(a, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			depth1 += float64(row.RankConf1)
			depth2 += float64(row.RankConf2)
			n++
		}
		b.ReportMetric(depth1/n, "mean-depth-conf1")
		b.ReportMetric(depth2/n, "mean-depth-conf2")
	}
}

// BenchmarkAblationCBISamplingRate sweeps CBI's sampling rate on the sort
// benchmark; denser sampling finds the predictor with fewer runs but costs
// proportionally more (paper §5.3).
func BenchmarkAblationCBISamplingRate(b *testing.B) {
	rates := map[string]float64{"1of10": 0.1, "1of100": 0.01, "1of1000": 0.001}
	for name, rate := range rates {
		b.Run(name, func(b *testing.B) {
			a := apps.ByName("sort")
			c := benchCfg
			c.CBIRate = rate
			c.CBIRuns = 300
			c.OverheadRuns = 2
			c.FailRuns = 2
			c.SuccRuns = 2
			for i := 0; i < b.N; i++ {
				row, err := harness.RunSequential(a, c)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.CBIRank), "cbi-rank")
				b.ReportMetric(100*row.OvCBI, "cbi-overhead-%")
			}
		})
	}
}

// BenchmarkAblationSuccessPairing isolates the success-site pairing of
// paper Figure 8: with paired success profiles LBRA separates the root
// cause perfectly; with failure runs alone every frequent event ties.
func BenchmarkAblationSuccessPairing(b *testing.B) {
	a := apps.ByName("sort")
	inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true, Toggling: true})
	if err != nil {
		b.Fatal(err)
	}
	collect := func(seed int64) core.ProfiledRun {
		opts := a.Fail.VMOptions(seed)
		opts.Driver = kernel.Driver{}
		opts.SegvIoctls = inst.SegvIoctls
		res, err := vm.Run(inst.Prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		pr, ok := core.FailureRunProfile(res)
		if !ok {
			b.Fatal("no failure profile")
		}
		return core.ProfiledRun{Prog: inst.Prog, Profile: pr}
	}
	for i := 0; i < b.N; i++ {
		var fail []core.ProfiledRun
		for seed := int64(0); seed < 10; seed++ {
			fail = append(fail, collect(seed))
		}
		rep, err := core.Diagnose(core.ModeLBR, fail, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Without success runs, every always-present event scores the
		// same; count the tie at the top.
		ties := 0
		for _, s := range rep.Ranking {
			if s.Score == rep.Ranking[0].Score {
				ties++
			}
		}
		b.ReportMetric(float64(ties), "top-score-ties-without-success-runs")
	}
}

// BenchmarkVMExecution measures raw simulator throughput on a synthetic
// program (steps per second drive every experiment's cost).
func BenchmarkVMExecution(b *testing.B) {
	p := synth.MustGenerate("bench", synth.Config{Seed: 1, Funcs: 10, StmtsPerFunc: 30})
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		res, err := vm.Run(p, vm.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

// BenchmarkCacheAccess measures the MESI simulator's per-access cost.
func BenchmarkCacheAccess(b *testing.B) {
	s := cache.MustNewSystem(4, cache.DefaultConfig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(i&3, int64(i%4096), cache.AccessKind(i&1))
	}
}

// BenchmarkLBRRecord measures the branch-record hot path.
func BenchmarkLBRRecord(b *testing.B) {
	l := pmu.NewLBR(pmu.DefaultLBRSize)
	_ = l.WriteMSR(pmu.MSRLBRSelect, pmu.PaperLBRSelect)
	_ = l.WriteMSR(pmu.MSRDebugCtl, pmu.DebugCtlEnableLBR)
	rec := pmu.BranchRecord{From: 1, To: 2, Class: isa.BranchCond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(rec)
	}
}

// BenchmarkCBISampling measures the baseline's per-branch instrumentation
// hot path (the cost the paper's Table 6 CBI column aggregates).
func BenchmarkCBISampling(b *testing.B) {
	p := apps.ByName("sort").Program()
	o := cbi.NewObserver(cbi.DefaultRate, 42)
	m, err := vm.New(p, apps.ByName("sort").Succeed.VMOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	o.Attach(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m2, err := vm.New(p, apps.ByName("sort").Succeed.VMOptions(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		o2 := cbi.NewObserver(cbi.DefaultRate, int64(i))
		o2.Attach(m2)
		if _, err := m2.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBTS contrasts the whole-execution Branch Trace Store
// with the LBR on the five benchmarks that lose their root cause without
// toggling (paper §2.1): BTS never loses it, at 20-100%-class overhead.
func BenchmarkAblationBTS(b *testing.B) {
	names := []string{"cp", "ln", "paste", "PBZIP1", "tar2"}
	for i := 0; i < b.N; i++ {
		inTrace := 0
		var ov float64
		for _, name := range names {
			res, err := harness.RunBTS(apps.ByName(name), int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if res.RootInTrace {
				inTrace++
			}
			ov += res.Overhead
		}
		b.ReportMetric(float64(inTrace), "BTS-root-in-trace/5")
		b.ReportMetric(100*ov/float64(len(names)), "BTS-overhead-%")
	}
}

// BenchmarkAblationAdaptiveCBI runs the iterative CBI variant of paper §8:
// it converges with far fewer runs than vanilla CBI but instruments an
// ever-growing predicate set, and needs many more iterations when the root
// cause is far from the failure site.
func BenchmarkAblationAdaptiveCBI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shallow, err := harness.RunAdaptive(apps.ByName("sort"), 1.0, 10, 40, harness.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		deep, err := harness.RunAdaptive(apps.ByName("ln"), 1.0, 10, 40, harness.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(shallow.Iterations), "iters-shallow-root")
		b.ReportMetric(float64(deep.Iterations), "iters-deep-root")
		b.ReportMetric(100*deep.EvaluatedFraction, "predicates-evaluated-%")
	}
}

// BenchmarkAblationLCRSize sweeps the LCR depth: at 8 entries the deepest
// Conf2 events (Mozilla-JS3's entry 11) fall out; 16 suffices for all
// seven diagnosable failures, the paper's "capacity is not a problem"
// claim (§7.3).
func BenchmarkAblationLCRSize(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "08", 16: "16", 32: "32"}[size], func(b *testing.B) {
			c := benchCfg
			c.LCRSize = size
			c.FailRuns, c.SuccRuns = 5, 5
			for i := 0; i < b.N; i++ {
				diagnosed := 0
				for _, a := range apps.Concurrent() {
					if !a.Diagnosable {
						continue
					}
					row, err := harness.RunConcurrent(a, c)
					if err != nil {
						b.Fatal(err)
					}
					if row.RankConf2 > 0 {
						diagnosed++
					}
				}
				b.ReportMetric(float64(diagnosed), "FPE-in-record/7")
			}
		})
	}
}

// BenchmarkTHeMECoverage reproduces the related-work contrast of paper §8:
// THeME computes test coverage by draining the LBR periodically throughout
// the run, so its cost scales with sampling density — unlike LBRLOG, which
// profiles only when software fails.
func BenchmarkTHeMECoverage(b *testing.B) {
	periods := map[string]int{"dense-50": 50, "mid-500": 500, "sparse-5000": 5000}
	p := synth.MustGenerate("cov", synth.Config{Seed: 5, Funcs: 12, StmtsPerFunc: 40})
	for name, period := range periods {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.RunCoverage(p, vm.Options{Seed: int64(i)}, period)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Coverage, "coverage-%")
				b.ReportMetric(100*res.Overhead, "overhead-%")
			}
		})
	}
}

// BenchmarkAblationPBI contrasts LCRA with its predecessor PBI (paper
// §7.3): interrupt-driven sampling of coherence-event counters finds the
// same failure-predicting event, but needs many more failure occurrences
// than the 10 LCRA uses, because each run only samples a sliver of the
// event stream.
func BenchmarkAblationPBI(b *testing.B) {
	a := apps.ByName("Mozilla-JS3")
	for i := 0; i < b.N; i++ {
		// Pre-classify seeds so the ladder reuses runs fairly.
		var failSeeds, succSeeds []int64
		for seed := int64(0); len(failSeeds) < 400 || len(succSeeds) < 400; seed++ {
			res, err := vm.Run(a.Program(), a.Fail.VMOptions(seed))
			if err != nil {
				b.Fatal(err)
			}
			if a.Fail.FailedRun(res) {
				failSeeds = append(failSeeds, seed)
			} else {
				succSeeds = append(succSeeds, seed)
			}
		}
		fi, si := 0, 0
		runner := func(failed bool, _ int64) (pbi.RunObs, error) {
			var seed int64
			if failed {
				seed = failSeeds[fi%len(failSeeds)]
				fi++
			} else {
				seed = succSeeds[si%len(succSeeds)]
				si++
			}
			m, err := vm.New(a.Program(), a.Fail.VMOptions(seed))
			if err != nil {
				return pbi.RunObs{}, err
			}
			s := pbi.NewSampler(8, seed+555)
			s.Attach(m)
			if _, err := m.Run(); err != nil {
				return pbi.RunObs{}, err
			}
			return s.Finish(failed), nil
		}
		match := func(p pbi.Pred) bool {
			return p.File == a.FPE.File && p.Line == a.FPE.Line &&
				p.Kind == a.FPE.Kind && p.State == a.FPE.State
		}
		n, err := pbi.MinFailRunsToRank([]int{10, 50, 150, 400}, match, runner)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			n = 400
		}
		b.ReportMetric(float64(n), "PBI-failruns-needed")
		b.ReportMetric(10, "LCRA-failruns-needed")
	}
}

// BenchmarkInterleavingSensitivity measures how the scheduler quantum
// shapes a concurrency benchmark's failure probability — the
// nondeterminism that makes production concurrency failures rare and
// diagnosis latency precious (paper §1.1).
func BenchmarkInterleavingSensitivity(b *testing.B) {
	a := apps.ByName("Mozilla-JS3")
	quanta := map[string][2]int{"fine-1-10": {1, 10}, "default-20-120": {20, 120}, "coarse-200-400": {200, 400}}
	for name, q := range quanta {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fails := 0
				const runs = 200
				for seed := 0; seed < runs; seed++ {
					opts := a.Fail.VMOptions(int64(seed))
					opts.QuantumMin, opts.QuantumMax = q[0], q[1]
					res, err := vm.Run(a.Program(), opts)
					if err != nil {
						b.Fatal(err)
					}
					if a.Fail.FailedRun(res) {
						fails++
					}
				}
				b.ReportMetric(100*float64(fails)/runs, "failure-rate-%")
			}
		})
	}
}

// BenchmarkAblationRecordReplay quantifies the §8 record-and-replay
// contrast: replay reproduces a racy failure deterministically, but the
// log grows with execution length (vs the LBR's fixed 16 entries) and
// carries the workload inputs (vs the bundle's code positions only).
func BenchmarkAblationRecordReplay(b *testing.B) {
	a := apps.ByName("sort")
	for i := 0; i < b.N; i++ {
		res, log, err := replay.Record(a.Program(), a.Succeed.VMOptions(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := replay.Replay(a.Program(), log, vm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Steps != res.Steps {
			b.Fatal("replay diverged")
		}
		b.ReportMetric(float64(log.Events()), "log-events")
		b.ReportMetric(100*float64(log.RecordingCycles())/float64(res.Cycles), "record-overhead-%")
		b.ReportMetric(16, "LBR-entries")
	}
}
