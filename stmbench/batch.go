package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/core"
	"stmdiag/internal/harness"
	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
	"stmdiag/internal/synth"
)

// setupReps is how many set-up children a run times; setup_s is the
// median.
const setupReps = 15

// maxMeasure caps the measuring loop whatever --seconds says, so a run that
// has slowed badly still ends within the benchmark's time limit.
const maxMeasure = 100 * time.Second

// batchOut is one operation's result: a whole fixed-size sweep.
type batchOut struct {
	render    string // rows as rendered text; its digest is checked
	diagnoses int
	top1      int // diagnoses that ranked the ground-truth root cause first
	accDen    int // denominator of diag_accuracy
	rowErrs   int // rows that returned an error
	rows      []time.Duration
}

// batch describes one batch workload: a set-up and a fixed-size operation
// measured again and again.
type batch struct {
	executor string
	// setup prepares the workload, counting into reg; close tears it down.
	setup func(reg *obs.Registry) error
	// first runs a sweep's first row: the last step of a cold start, where
	// the program builds and caches what its rows share.
	first func() error
	// op runs one sweep into sink, recording spans under sc (which records
	// nothing outside traced operations).
	op    func(sink *obs.Sink, sc spanCtx) (batchOut, error)
	close func()
	// probe names the input the traced run's layer probes use.
	probe func() (*probeTarget, error)
}

// opStats is what the loop measured around one operation.
type opStats struct {
	out    batchOut
	traced bool
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	delta  obs.Snapshot
	qdMax  int64
	rss    float64 // peak RSS during the operation, MiB
}

func runBatch(o *options, b batch) (*outcome, error) {
	// The cold starts are spread over the run, a share of them before each
	// operation in proportion to the time measured so far, so setup_s
	// samples the host over the run as the operations do. Their time is
	// left out of the measuring window.
	var setups []float64
	var setupTime time.Duration
	coldStarts := func(upTo int) error {
		if upTo <= len(setups) {
			return nil
		}
		t0 := time.Now()
		ts, err := timeSetups(o, upTo-len(setups))
		setupTime += time.Since(t0)
		setups = append(setups, ts...)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		return nil
	}
	if err := coldStarts(1); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	if err := b.setup(reg); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()

	var spans *spanLog
	if o.traced {
		spans = newSpanLog()
	}
	out := &outcome{e2e: newMetrics(), layer: newMetrics(), info: newMetrics(),
		executor: b.executor, spans: spans}
	var first string
	var ops []opStats
	var gaps []float64 // ms between one operation's end and the next's start
	start := time.Now()
	prevEnd := start
	for n := 0; ; n++ {
		el := time.Since(start) - setupTime
		enough := el >= o.seconds && len(ops) >= 3 && (!o.traced || len(ops) >= 4)
		if enough || (el >= maxMeasure && len(ops) >= 2) {
			break
		}
		coldBefore := setupTime
		if err := coldStarts(1 + int(float64(setupReps-1)*min(1, el.Seconds()/o.seconds.Seconds()))); err != nil {
			return nil, err
		}
		coldGap := setupTime - coldBefore
		traced := o.traced && n%2 == 1
		sink := &obs.Sink{Metrics: reg}
		sc, endOp := spanCtx{}, func() {}
		if traced {
			sink = &obs.Sink{Metrics: reg, Trace: obs.NewTracer(), Profiling: true}
			sc, endOp = spanCtx{log: spans, op: n + 1}.begin("stmbench.op")
		}
		st := opStats{traced: traced}
		stopQD := sampleQueueDepth(reg, traced, &st.qdMax)
		before := reg.Snapshot()
		// The CBI observer counts into the process-wide registry.
		defBefore := obs.Default().Snapshot()
		resetPeakRSS()
		cpu0 := cpuTime()
		a0, _ := heapAlloc()
		t0 := time.Now()
		if n > 0 {
			gaps = append(gaps, float64(t0.Sub(prevEnd)-coldGap)/1e6)
		}
		res, err := b.op(sink, sc)
		st.wall = time.Since(t0)
		endOp()
		st.cpu = cpuTime() - cpu0
		a1, _ := heapAlloc()
		stopQD()
		st.alloc = a1 - a0
		st.delta = reg.Snapshot().Delta(before)
		st.delta.Counters["cbi.predicates.sampled"] += obs.Default().Snapshot().Delta(defBefore).Counter("cbi.predicates.sampled")
		st.rss = peakRSSMB()
		prevEnd = time.Now()
		if err != nil {
			return nil, err
		}
		st.out = res
		fmt.Fprintf(os.Stderr, "stmbench: op %d traced=%t wall=%.3fs cpu=%.3fs rss=%.1fMB vm.runs=%d vm.steps=%d\n",
			n+1, traced, st.wall.Seconds(), st.cpu.Seconds(), st.rss, st.delta.Counter("vm.runs"), st.delta.Counter("vm.steps"))
		out.attempted += res.diagnoses
		out.failed += res.rowErrs
		if err := o.checkDigest(&first, digest(res.render)); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			out.failed += res.diagnoses - res.rowErrs
		}
		ops = append(ops, st)
	}
	if err := coldStarts(setupReps); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "stmbench: cold starts (s): %.4g\n", setups)

	var dps, tps, mips, cpus, kbpt, mbpo, rss, rowMS, opMS []float64
	var untracedWall, tracedWall []float64
	for _, st := range ops {
		w := st.wall.Seconds()
		if st.traced {
			tracedWall = append(tracedWall, w)
			continue
		}
		untracedWall = append(untracedWall, w)
		runs := float64(st.delta.Counter("vm.runs"))
		dps = append(dps, float64(st.out.diagnoses)/w)
		tps = append(tps, runs/w)
		mips = append(mips, float64(st.delta.Counter("vm.steps"))/w/1e6)
		cpus = append(cpus, st.cpu.Seconds())
		kbpt = append(kbpt, float64(st.alloc)/1024/max(runs, 1))
		mbpo = append(mbpo, float64(st.alloc)/(1<<20))
		rss = append(rss, st.rss)
		rowMS = append(rowMS, durMS(st.out.rows)...)
		opMS = append(opMS, w*1e3)
	}
	out.digest = first
	last := ops[len(ops)-1].out
	acc := float64(last.top1) / float64(max(last.accDen, 1))
	lat := rowMS
	if len(lat) == 0 {
		lat = opMS
	}

	e := out.e2e
	e.set("setup_s", median(setups), "s")
	e.set("cpu_s", median(cpus), "s")
	e.set("alloc_mb_per_op", median(mbpo), "MiB")
	// The lowest sweep peak: many sweeps peak higher when a collection
	// lands late in a burst of allocation, more often on a busy host; the
	// lowest tracks the working set a sweep needs.
	e.set("peak_rss_mb", slices.Min(rss), "MB")
	e.set("diag_accuracy", acc, "ratio")

	info := out.info
	info.set("setup_s", median(setups), "s")
	info.set("diagnoses_per_s", median(dps), "1/s")
	info.set("trials_per_s", median(tps), "1/s")
	info.set("sim_mips", median(mips), "instr/us")
	info.set("cpu_s", median(cpus), "s")
	info.set("alloc_kb_per_trial", median(kbpt), "KiB")
	info.set("alloc_mb_per_op", median(mbpo), "MiB")
	info.set("peak_rss_mb", slices.Min(rss), "MB")
	info.set("diag_accuracy", acc, "ratio")
	info.set("latency_p50_ms", median(lat), "ms")
	info.set("latency_p90_ms", quantile(lat, 0.9), "ms")
	info.set("operations", float64(len(untracedWall)), "count")
	info.set("diagnoses_per_operation", float64(last.diagnoses), "count")

	if o.traced {
		var lastTraced opStats
		var qd int64
		for _, st := range ops {
			if st.traced {
				lastTraced = st
				qd = max(qd, st.qdMax)
			}
		}
		lm := out.layer
		layerCounts(lastTraced.delta, lm)
		lm.set("harness.queue_depth_max", float64(qd), "count")
		lm.set("harness.row_ms", median(durMS(spans.durations("harness.row"))), "ms")
		lm.set("obs.trace_overhead_ratio", median(tracedWall)/median(untracedWall), "ratio")
		// A batch workload is a closed loop: nothing is due before the
		// previous sweep returns, so the generator's lag is its own
		// bookkeeping between operations and its backlog is empty.
		lm.set("loadgen.lag_p99_ms", quantile(gaps, 0.99), "ms")
		lm.set("loadgen.backlog_max", 0, "count")
		target, err := b.probe()
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if err := runProbes(o, target, spanCtx{log: spans}, lm, false); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return out, nil
}

// sampleQueueDepth polls the trial pool's queue-depth gauge during a traced
// operation and records its maximum; the gauge is only maintained when
// profiling is armed.
func sampleQueueDepth(reg *obs.Registry, on bool, maxp *int64) (stop func()) {
	if !on {
		return func() {}
	}
	g := reg.Gauge("harness.pool.queue.depth")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v := g.Value(); v > *maxp {
					*maxp = v
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// rowSpan times one row call into rows and records it as a span.
func rowSpan(sc spanCtx, rows *[]time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	*rows = append(*rows, t1.Sub(t0))
	sc.add("harness.row", t0, t1)
	return err
}

// ---- seq-lbr ----------------------------------------------------------

func seqConfig(o *options) harness.Config {
	if o.tiny {
		return harness.Config{FailRuns: 2, SuccRuns: 2, CBIRuns: 4, OverheadRuns: 1, Jobs: o.jobs, Seed: o.seed}
	}
	return harness.Config{FailRuns: 10, SuccRuns: 10, CBIRuns: 20, OverheadRuns: 2, Jobs: o.jobs, Seed: o.seed}
}

// seqApps are the Table 6 benchmarks, or two of them for the self-test.
func seqApps(o *options) []*apps.App {
	if o.tiny {
		return []*apps.App{apps.ByName("sort"), apps.ByName("cp")}
	}
	return apps.Sequential()
}

// instrumentAll assembles each app from its source and builds the given
// instrumented variants: the app load a diagnosis run starts with.
func instrumentAll(as []*apps.App, builds ...core.Options) error {
	for _, a := range as {
		p, err := isa.Assemble(a.Name, a.Source)
		if err != nil {
			return err
		}
		for _, opts := range builds {
			if _, err := core.EnhanceLogging(p, opts); err != nil {
				return fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	return nil
}

func seqBatch(o *options) batch {
	as := seqApps(o)
	return batch{
		executor: "inproc",
		setup: func(*obs.Registry) error {
			return instrumentAll(as, core.Options{LBR: true, Toggling: true}, core.Options{LBR: true})
		},
		op: func(sink *obs.Sink, sc spanCtx) (batchOut, error) {
			cfg := seqConfig(o)
			cfg.Obs = sink
			var out batchOut
			var b strings.Builder
			for _, a := range as {
				var r *harness.SeqResult
				err := rowSpan(sc, &out.rows, func() (err error) {
					r, err = harness.RunSequential(a, cfg)
					return err
				})
				out.diagnoses++
				out.accDen++
				if err != nil {
					fmt.Fprintf(os.Stderr, "stmbench: seq-lbr %s: %v\n", a.Name, err)
					out.rowErrs++
					fmt.Fprintf(&b, "%s error\n", a.Name)
					continue
				}
				if r.LBRARank == 1 {
					out.top1++
				}
				fmt.Fprintf(&b, "%s %d %t %d %t %d %d %d %d %.9g %.9g %.9g %.9g %.9g\n", a.Name,
					r.RankTog, r.RelatedTog, r.RankNoTog, r.RelatedNoTog, r.LBRARank, r.CBIRank,
					r.DistFailureSite, r.DistLBR, r.OvLogTog, r.OvLogNoTog, r.OvReactive, r.OvProactive, r.OvCBI)
			}
			out.render = b.String()
			return out, nil
		},
		first: func() error {
			cfg := seqConfig(o)
			cfg.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
			_, err := harness.RunSequential(as[0], cfg)
			return err
		},
		close: func() {},
		probe: func() (*probeTarget, error) { return appTarget(o, apps.ByName("sort")) },
	}
}

// ---- conc-lcr-durable -------------------------------------------------

func concConfig(o *options) harness.Config {
	if o.tiny {
		return harness.Config{FailRuns: 2, SuccRuns: 2, Jobs: o.jobs, Seed: o.seed}
	}
	return harness.Config{FailRuns: 40, SuccRuns: 40, Jobs: o.jobs, Seed: o.seed}
}

func concApps(o *options) []*apps.App {
	if o.tiny {
		return []*apps.App{apps.ByName("FFT"), apps.ByName("PBZIP3")}
	}
	return apps.Concurrent()
}

func concBatch(o *options) batch {
	as := concApps(o)
	var exec *harness.SubprocExecutor
	stores := 0
	openStore := func(sink *obs.Sink) (*artifact.Store, error) {
		stores++
		return artifact.Open(filepath.Join(o.work, fmt.Sprintf("store-%d", stores)), sink)
	}
	closeStore := func(s *artifact.Store) {
		s.Close() //nolint:errcheck // the store is deleted next
		os.RemoveAll(s.Dir())
	}
	return batch{
		executor: "subprocess",
		setup: func(reg *obs.Registry) error {
			if err := instrumentAll(as, core.Options{LCR: true, Toggling: true}); err != nil {
				return err
			}
			e, err := harness.NewSubprocExecutor(harness.SubprocOptions{
				Bin:     filepath.Join(o.bin, "trialworker"),
				Workers: o.jobs,
				Sink:    &obs.Sink{Metrics: reg},
			})
			if err != nil {
				return err
			}
			if err := warmWorkers(e, o.jobs); err != nil {
				e.Close() //nolint:errcheck // reporting the warm-up failure
				return err
			}
			s, err := openStore(nil)
			if err != nil {
				e.Close() //nolint:errcheck
				return err
			}
			closeStore(s)
			exec = e
			return nil
		},
		op: func(sink *obs.Sink, sc spanCtx) (batchOut, error) {
			store, err := openStore(sink)
			if err != nil {
				return batchOut{}, err
			}
			defer closeStore(store)
			cfg := concConfig(o)
			cfg.Obs = sink
			cfg.Executor = exec
			cfg.Artifacts = store
			var out batchOut
			var b strings.Builder
			for _, a := range as {
				var r *harness.ConcResult
				err := rowSpan(sc, &out.rows, func() (err error) {
					r, err = harness.RunConcurrent(a, cfg)
					return err
				})
				out.diagnoses++
				out.accDen++
				if err != nil {
					fmt.Fprintf(os.Stderr, "stmbench: conc-lcr-durable %s: %v\n", a.Name, err)
					out.rowErrs++
					fmt.Fprintf(&b, "%s error\n", a.Name)
					continue
				}
				if r.LCRARank == 1 {
					out.top1++
				}
				fmt.Fprintf(&b, "%s %d %d %d %.9g\n", a.Name, r.RankConf1, r.RankConf2, r.LCRARank, r.FailRate)
			}
			out.render = b.String()
			return out, nil
		},
		first: func() error {
			sink := &obs.Sink{Metrics: obs.NewRegistry()}
			store, err := openStore(sink)
			if err != nil {
				return err
			}
			defer closeStore(store)
			cfg := concConfig(o)
			cfg.Obs, cfg.Executor, cfg.Artifacts = sink, exec, store
			_, err = harness.RunConcurrent(as[0], cfg)
			return err
		},
		close: func() {
			if exec != nil {
				exec.Close() //nolint:errcheck // teardown
			}
		},
		probe: func() (*probeTarget, error) { return appTarget(o, apps.ByName("FFT")) },
	}
}

// warmWorkers starts n subprocess workers by running n trials at once:
// workers spawn on first use.
func warmWorkers(e *harness.SubprocExecutor, n int) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Run(meanCyclesRequest("sort", int64(i), i))
			if err == nil && resp.Err != "" {
				err = errors.New(resp.Err)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---- corpus-rank ------------------------------------------------------

var top1Line = regexp.MustCompile(`(?m)^\S+\s*: top-1 (\d+)/(\d+),`)

func corpusBatch(o *options) batch {
	perCell := 0 // Table 9's default, 13 programs per cell
	if o.tiny {
		perCell = 1
	}
	return batch{
		executor: "inproc",
		setup: func(*obs.Registry) error {
			// Generate, assemble and instrument one program per bug
			// class, the per-program set-up Table 9 repeats 208 times.
			for _, class := range synth.BugClasses() {
				bp, err := synth.GenerateBug("setup-"+class.String(), synth.BugConfig{Seed: o.seed, Class: class, Distance: 8})
				if err != nil {
					return err
				}
				opts := core.Options{LBR: true, Toggling: true}
				if bp.Concurrent {
					opts = core.Options{LCR: true, Toggling: true}
				}
				if _, err := core.EnhanceLogging(bp.Prog, opts); err != nil {
					return err
				}
			}
			return nil
		},
		op: func(sink *obs.Sink, sc spanCtx) (batchOut, error) {
			cfg := harness.Config{FailRuns: 10, SuccRuns: 10, Jobs: o.jobs, Seed: o.seed,
				CorpusPerCell: perCell, Obs: sink}
			// One call per sweep: the sweep's latency is the row latency.
			var out batchOut
			var table string
			var calls []time.Duration
			err := rowSpan(sc, &calls, func() (err error) {
				table, err = harness.Table9(cfg)
				return err
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "stmbench: corpus-rank: %v\n", err)
				out.diagnoses, out.rowErrs = 1, 1
				return out, nil
			}
			for _, m := range top1Line.FindAllStringSubmatch(table, -1) {
				t1, _ := strconv.Atoi(m[1])
				n, _ := strconv.Atoi(m[2])
				out.top1 += t1
				out.accDen += n
				out.diagnoses = n
			}
			if out.accDen == 0 {
				return out, fmt.Errorf("table 9 summary lines not found")
			}
			out.render = table
			return out, nil
		},
		first: func() error {
			// Table 9's first row: one program per cell.
			_, err := harness.Table9(harness.Config{FailRuns: 10, SuccRuns: 10, Jobs: o.jobs, Seed: o.seed,
				CorpusPerCell: 1, Obs: &obs.Sink{Metrics: obs.NewRegistry()}})
			return err
		},
		close: func() {},
		probe: func() (*probeTarget, error) { return synthTarget(o) },
	}
}
