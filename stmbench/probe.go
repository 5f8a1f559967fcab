package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/fleet"
	"stmdiag/internal/harness"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/spectrum"
	"stmdiag/internal/stats"
	"stmdiag/internal/synth"
	"stmdiag/internal/vm"
)

// probeTarget is the workload input the traced run's layer probes time
// each layer's exported functions on: one program of the workload, its
// deployed build, how to run it, and diagnosis profiles captured from it.
type probeTarget struct {
	name  string
	src   string       // assembly source timed with isa.Assemble
	prog  *isa.Program // uninstrumented program
	build core.Options // deployed build
	// runOpts returns VM options for a failing or succeeding run.
	runOpts    func(seed int64, fail bool) vm.Options
	mode       core.Mode
	fail, succ []core.ProfiledRun
	// app names the registered benchmark whose wire trials the executor
	// probe sends.
	app string
}

// appTarget probes one of the paper's benchmarks.
func appTarget(o *options, a *apps.App) (*probeTarget, error) {
	t, err := appTargetFrom(a)
	if err != nil {
		return nil, err
	}
	t.mode, t.fail, t.succ, err = harness.DiagnosisProfiles(a, harness.Config{FailRuns: 10, SuccRuns: 10, Jobs: o.jobs, Seed: o.seed})
	return t, err
}

// appTargetFrom builds the probe target for an app, without profiles.
func appTargetFrom(a *apps.App) (*probeTarget, error) {
	if a == nil {
		return nil, fmt.Errorf("probe app not registered")
	}
	t := &probeTarget{name: a.Name, src: a.Source, prog: a.Program(), app: a.Name}
	t.build = core.Options{LBR: true, Toggling: true}
	if a.Class.Concurrent() {
		t.build = core.Options{LCR: true, Toggling: true}
	}
	t.runOpts = func(seed int64, failRun bool) vm.Options {
		w := a.Succeed
		if failRun {
			w = a.Fail
		}
		opts := w.VMOptions(seed)
		opts.Driver = kernel.Driver{}
		if a.Class.Concurrent() {
			opts.LCRConfig = pmu.ConfSpaceConsuming
		}
		return opts
	}
	return t, nil
}

// synthTarget probes one generated program of the Table 9 corpus: a
// sequential overflow bug at propagation distance 8.
func synthTarget(o *options) (*probeTarget, error) {
	bp, err := synth.GenerateBug("probe", probeBugConfig(o))
	if err != nil {
		return nil, err
	}
	t := &probeTarget{name: "synth-overflow-d8", src: apps.ByName("sort").Source, prog: bp.Prog,
		mode: core.ModeLBR, build: core.Options{LBR: true, Toggling: true}, app: "sort"}
	t.runOpts = func(seed int64, failRun bool) vm.Options {
		variants := bp.Succeed
		if failRun {
			variants = bp.Fail
		}
		g := map[string]int64{}
		for k, v := range variants[int(uint64(seed)%uint64(len(variants)))] {
			g[k] = v
		}
		g[bp.NoiseGlobal] = int64(uint16(uint64(seed) >> 8))
		return vm.Options{Seed: seed, Globals: g, Driver: kernel.Driver{}}
	}
	inst, err := core.EnhanceLogging(bp.Prog, t.build)
	if err != nil {
		return nil, err
	}
	react := t.build
	react.Scheme = core.SchemeReactive
	react.FailurePCs = []int{bp.Manifest.FailPC}
	rinst, err := core.EnhanceLogging(bp.Prog, react)
	if err != nil {
		return nil, err
	}
	for seed := int64(0); seed < 400 && (len(t.fail) < 10 || len(t.succ) < 10); seed++ {
		failRun := len(t.fail) < 10
		b := inst
		if !failRun {
			b = rinst
		}
		opts := t.runOpts(o.seed*1000+seed, failRun)
		opts.SegvIoctls = b.SegvIoctls
		res, err := vm.Run(b.Prog, opts)
		if err != nil {
			return nil, err
		}
		if res.Failed() != failRun {
			continue
		}
		p, ok := core.FailureRunProfile(res)
		if !failRun {
			if sp, sok := core.SuccessRunProfile(res); sok {
				p, ok = sp, true
			}
		}
		if !ok {
			continue
		}
		pr := core.ProfiledRun{Prog: b.Prog, Profile: p}
		if failRun {
			t.fail = append(t.fail, pr)
		} else {
			t.succ = append(t.succ, pr)
		}
	}
	if len(t.fail) == 0 || len(t.succ) == 0 {
		return nil, fmt.Errorf("synth probe: captured %d failure and %d success profiles", len(t.fail), len(t.succ))
	}
	return t, nil
}

func probeBugConfig(o *options) synth.BugConfig {
	return synth.BugConfig{Seed: harness.TrialSeed(o.seed, "stmbench/probe", 0), Class: synth.BugOverflow, Distance: 8}
}

// probeBudget is how long each probe repeats its call; the reported figure
// is the median call.
const probeBudget = 150 * time.Millisecond

// timeCalls runs fn repeatedly for about probeBudget (at least three
// times), records each call as a span, and returns the median duration.
func timeCalls(sc spanCtx, name string, fn func(i int) error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for i := 0; i < 3 || (time.Since(start) < probeBudget && i < 10000); i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		sc.add(name, t0, t1)
		ds = append(ds, float64(t1.Sub(t0)))
	}
	return time.Duration(median(ds)), nil
}

// runProbes times each layer's exported functions on the target and
// stores the per-layer figures in lm. fleetFromServer is true when the
// workload reports fleetd's own fleet counters and handler latency instead
// of the in-process fleet probe's.
func runProbes(o *options, t *probeTarget, parent spanCtx, lm *metrics, fleetFromServer bool) error {
	sc, end := parent.begin("stmbench.probe")
	defer end()
	inst, err := core.EnhanceLogging(t.prog, t.build)
	if err != nil {
		return err
	}
	runOpts := func(seed int64, fail bool) vm.Options {
		opts := t.runOpts(seed, fail)
		opts.SegvIoctls = inst.SegvIoctls
		return opts
	}

	// vm: Run time per instruction; New's cost and a trial's allocations.
	var steps, runs uint64
	d, err := timeCalls(sc, "vm.Run", func(i int) error {
		res, err := vm.Run(inst.Prog, runOpts(int64(i), false))
		if err == nil {
			steps += res.Steps
			runs++
		}
		return err
	})
	if err != nil {
		return err
	}
	lm.set("vm.run_ns_per_instr", float64(d)/(float64(steps)/float64(runs)), "ns")
	d, err = timeCalls(sc, "vm.New", func(i int) error {
		_, err := vm.New(inst.Prog, runOpts(int64(i), false))
		return err
	})
	if err != nil {
		return err
	}
	lm.set("vm.new_ns", float64(d), "ns")
	const allocTrials = 20
	runtime.GC()
	b0, m0 := heapAlloc()
	for i := 0; i < allocTrials; i++ {
		m, err := vm.New(inst.Prog, runOpts(int64(i), false))
		if err != nil {
			return err
		}
		if _, err := m.Run(); err != nil {
			return err
		}
	}
	b1, m1 := heapAlloc()
	lm.set("vm.allocs_per_trial", float64(m1-m0)/allocTrials, "count")
	lm.set("vm.alloc_bytes_per_trial", float64(b1-b0)/allocTrials, "bytes")

	// cbi: the sampling hook's cost on the plain program, and ranking.
	plain := func(i int, hook bool) (*vm.Result, *cbi.Observer, error) {
		opts := t.runOpts(int64(i), i%2 == 1)
		m, err := vm.New(t.prog, opts)
		if err != nil {
			return nil, nil, err
		}
		var ob *cbi.Observer
		if hook {
			ob = cbi.NewObserver(cbi.DefaultRate, int64(i)+777)
			ob.Attach(m)
		}
		res, err := m.Run()
		return res, ob, err
	}
	bare, err := timeCalls(sc, "cbi.run_bare", func(i int) error { _, _, err := plain(i, false); return err })
	if err != nil {
		return err
	}
	var observed []cbi.RunObs
	hooked, err := timeCalls(sc, "cbi.run_hooked", func(i int) error {
		res, ob, err := plain(i, true)
		if err == nil {
			observed = append(observed, ob.Finish(res.Failed()))
		}
		return err
	})
	if err != nil {
		return err
	}
	lm.set("cbi.hook_ratio", float64(hooked)/float64(bare), "ratio")
	d, err = timeCalls(sc, "cbi.Rank", func(int) error { cbi.Rank(observed); return nil })
	if err != nil {
		return err
	}
	lm.set("cbi.rank_ns", float64(d), "ns")

	// core: instrumenting and diagnosing.
	d, err = timeCalls(sc, "core.EnhanceLogging", func(int) error {
		_, err := core.EnhanceLogging(t.prog, t.build)
		return err
	})
	if err != nil {
		return err
	}
	lm.set("core.instrument_ns", float64(d), "ns")
	d, err = timeCalls(sc, "core.DiagnoseWith", func(int) error {
		_, err := core.DiagnoseWith(t.mode, core.RankerCBI, t.fail, t.succ)
		return err
	})
	if err != nil {
		return err
	}
	lm.set("core.diagnose_ns", float64(d), "ns")
	var runsEv []stats.Run[core.Event]
	events := 0
	for i, r := range append(append([]core.ProfiledRun(nil), t.fail...), t.succ...) {
		ev := fleet.DedupEvents(core.RunEvents(t.mode, r))
		events += len(ev)
		runsEv = append(runsEv, stats.Run[core.Event]{Failed: i < len(t.fail), Events: ev})
	}
	lm.set("core.events_per_diagnosis", float64(events), "count")

	// spectrum, synth, isa.
	for _, f := range []spectrum.Formula{spectrum.Ochiai, spectrum.Tarantula} {
		d, err = timeCalls(sc, "spectrum.Rank", func(int) error { spectrum.Rank(runsEv, f); return nil })
		if err != nil {
			return err
		}
		lm.set("spectrum.rank_ns."+f.String(), float64(d), "ns")
	}
	d, err = timeCalls(sc, "synth.GenerateBug", func(i int) error {
		cfg := probeBugConfig(o)
		cfg.Seed += int64(i)
		_, err := synth.GenerateBug("probe", cfg)
		return err
	})
	if err != nil {
		return err
	}
	lm.set("synth.generate_ns", float64(d), "ns")
	d, err = timeCalls(sc, "isa.Assemble", func(int) error { _, err := isa.Assemble(t.name, t.src); return err })
	if err != nil {
		return err
	}
	lm.set("isa.assemble_ns", float64(d), "ns")

	if err := probeWire(o, t, sc, lm); err != nil {
		return err
	}
	return probeFleet(t, sc, lm, !fleetFromServer)
}

// meanCyclesRequest is one portable "mean-cycles" trial: a success run of
// the plain program.
func meanCyclesRequest(app string, seed int64, index int) *harness.TrialRequest {
	params, _ := json.Marshal(map[string]any{"app": app, "seed": seed}) // strings and numbers always encode
	return &harness.TrialRequest{Stream: "stmbench/" + app, Index: index, Kind: "mean-cycles",
		Params: params, Metrics: true}
}

// probeWire times one trial in process and through a subprocess worker,
// and one artifact commit of its response.
func probeWire(o *options, t *probeTarget, sc spanCtx, lm *metrics) error {
	var in harness.InprocExecutor
	var resp *harness.TrialResponse
	inproc, err := timeCalls(sc, "harness.InprocExecutor.Run", func(i int) (err error) {
		resp, err = in.Run(meanCyclesRequest(t.app, o.seed, i))
		return err
	})
	if err != nil {
		return err
	}
	sub, err := harness.NewSubprocExecutor(harness.SubprocOptions{Bin: filepath.Join(o.bin, "trialworker"), Workers: 1})
	if err != nil {
		return err
	}
	defer sub.Close() //nolint:errcheck // teardown
	if err := warmWorkers(sub, 1); err != nil {
		return err
	}
	subproc, err := timeCalls(sc, "harness.SubprocExecutor.Run", func(i int) error {
		_, err := sub.Run(meanCyclesRequest(t.app, o.seed, i))
		return err
	})
	if err != nil {
		return err
	}
	lm.set("harness.wire_rtt_ns", float64(subproc-inproc), "ns")
	reqB, err := json.Marshal(meanCyclesRequest(t.app, o.seed, 0))
	if err != nil {
		return err
	}
	respB, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	lm.set("harness.wire_bytes_per_trial", float64(len(reqB)+len(respB)), "bytes")

	store, err := artifact.Open(filepath.Join(o.work, "probe-store"), nil)
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck // scratch store
	d, err := timeCalls(sc, "artifact.Store.Put", func(i int) error {
		return store.Put("stmbench/probe", i, digest(fmt.Sprint("probe", i)), respB)
	})
	if err != nil {
		return err
	}
	lm.set("artifact.put_ns", float64(d), "ns")
	// A workload that commits artifacts reports its own put size
	// (layerCounts); the others report the probe trial's.
	if _, ok := lm.vals["artifact.put_bytes_per_trial"]; !ok {
		lm.set("artifact.put_bytes_per_trial", float64(len(respB)), "bytes")
	}
	return nil
}

// probeFleet times the fleet layer's decode, add, report and ingest
// handler on the target's profiles, in process, batched as a fleet.Client
// batches them. With counts set it also reports the in-process store's
// rescoring and contention counters.
func probeFleet(t *probeTarget, sc spanCtx, lm *metrics, counts bool) error {
	subs := fleet.SubmissionsFromRuns(t.name, t.mode, true, t.fail)
	subs = append(subs, fleet.SubmissionsFromRuns(t.name, t.mode, false, t.succ)...)
	bodies, picks, err := clientBatches("probe", subs, 1)
	if err != nil {
		return err
	}
	gz := bodies[0]
	lm.set("fleet.wire_bytes_per_profile", float64(len(gz))/float64(len(picks[0])), "bytes")
	d, err := timeCalls(sc, "fleet.DecodeBatch", func(int) error {
		_, err := fleet.DecodeBatch(bytes.NewReader(gz), true)
		return err
	})
	if err != nil {
		return err
	}
	lm.set("fleet.decode_ns_per_batch", float64(d), "ns")

	reg := obs.NewRegistry()
	sink := &obs.Sink{Metrics: reg}
	store := fleet.NewStore(fleet.StoreOptions{Sink: sink})
	d, err = timeCalls(sc, "fleet.Store.Add", func(i int) error {
		store.Add(subs[i%len(subs)])
		return nil
	})
	if err != nil {
		return err
	}
	lm.set("fleet.add_ns_per_profile", float64(d), "ns")
	d, err = timeCalls(sc, "fleet.Store.Report", func(i int) error {
		// Each call first commits one success, so the report takes the
		// incremental (delta) path; the add is a few percent of the call.
		store.Add(subs[len(t.fail)+i%len(t.succ)])
		if store.Report(t.name) == nil {
			return fmt.Errorf("no report for %s", t.name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm.set("fleet.report_ns", float64(d), "ns")

	svc := fleet.NewService(store, nil, sink)
	h := svc.Handler()
	var lat []float64
	for i := 0; i < 200; i++ {
		req := httptest.NewRequest(http.MethodPost, "/fleet/ingest", bytes.NewReader(gz))
		req.Header.Set("Content-Encoding", "gzip")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		sc.add("fleet.ingest", t0, t1)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe ingest: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		lat = append(lat, float64(t1.Sub(t0))/1e6)
		if i%10 == 9 {
			store.Report(t.name)
		}
	}
	if !counts {
		return nil
	}
	lm.set("fleet.handler_p50_ms", quantile(lat, 0.5), "ms")
	lm.set("fleet.handler_p99_ms", quantile(lat, 0.99), "ms")
	fleetCounts(reg.Snapshot(), lm)
	return nil
}
