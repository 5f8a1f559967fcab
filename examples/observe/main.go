// Observe walks the paper's motivating sequential failure (§3.1, Figure 3
// — the Coreutils-7.2 sort crash) through the diagnosis pipeline with the
// internal/obs telemetry layer switched on, and writes a Chrome
// trace_event JSON file of everything the simulated hardware did.
//
// The trace is timestamped by the VM's deterministic cycle clock, so two
// runs with the same -seed produce byte-identical files. Load the output
// in chrome://tracing or https://ui.perfetto.dev: each simulated core is a
// process row, the diagnosis pipeline has its own row, and the failure
// runs show the trap instants that seed LBRLOG.
//
// With -serve the example also exposes the live half of the telemetry
// stack while it runs: an OpenMetrics /metrics endpoint, the Chrome trace
// as a /trace download, the flight recorder of recent pipeline events as
// /flightrecorder JSON, and the net/http/pprof profilers — the same
// endpoints every binary offers via its own -serve flag.
//
// Usage:
//
//	observe [-o observe-trace.json] [-seed N] [-serve :9090]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/obshttp"
	"stmdiag/internal/vm"
)

func main() {
	out := flag.String("o", "observe-trace.json", "trace output `file`")
	seed := flag.Int64("seed", 0, "base seed")
	serve := flag.String("serve", "", "serve live telemetry on this `addr` while the example runs")
	flag.Parse()

	// A private registry, tracer and flight recorder: the trace and the
	// metrics below cover exactly the runs this example drives.
	sink := &obs.Sink{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	sink.Trace.SetProcessName(obs.PipelinePID, "pipeline")
	if *serve != "" {
		srv := obshttp.New(sink)
		if err := srv.Start(*serve); err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("live telemetry on http://%s — try /metrics, /flightrecorder\n\n", srv.Addr())
	}

	a := apps.ByName("sort")
	if a == nil {
		log.Fatal("benchmark sort not in suite")
	}
	fmt.Println("sort (Coreutils 7.2): merging sorted files into one of the inputs")
	fmt.Println("overflows files[]; the crash surfaces later, inside hash_lookup.")
	fmt.Println()

	// Deploy: LBRLOG instrumentation with library-call toggling (§4.1).
	inst, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true, Toggling: true})
	if err != nil {
		log.Fatal(err)
	}

	run := func(w apps.Workload, s int64, b *core.Instrumented) *vm.Result {
		opts := w.VMOptions(s)
		opts.Driver = kernel.Driver{}
		opts.SegvIoctls = b.SegvIoctls
		opts.Obs = sink
		res, err := vm.Run(b.Prog, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Phase 1: failure runs on the deployed build. Each traps, and the
	// SIGSEGV handler snapshots the 16-entry LBR (LBRLOG).
	tr := sink.Trace
	phase := func(name string) {
		sink.RecordFlight(obs.FlightEvent{
			Cycle: sink.Cycles(), Trial: -1, Kind: obs.FlightPhase, Detail: name,
		})
	}
	phase("failure runs")
	tr.Begin("failure runs", "pipeline", tr.Base(), obs.PipelinePID, 0, nil)
	var failProfiles []core.ProfiledRun
	var firstProf vm.Profile
	for s := int64(0); len(failProfiles) < 10 && s < 400; s++ {
		res := run(a.Fail, *seed+s, inst)
		if !a.Fail.FailedRun(res) {
			continue
		}
		prof, ok := core.RunProfile(res, true)
		if !ok {
			continue
		}
		if len(failProfiles) == 0 {
			firstProf = prof
		}
		failProfiles = append(failProfiles, core.ProfiledRun{Prog: inst.Prog, Profile: prof})
	}
	tr.End("failure runs", "pipeline", tr.Base(), obs.PipelinePID, 0)
	if len(failProfiles) < 10 {
		log.Fatalf("only %d/10 failure profiles", len(failProfiles))
	}
	fmt.Printf("captured %d failure-run LBR snapshots; in the first one the\n", len(failProfiles))
	fmt.Printf("root-cause branch %s is entry #%d (1 = latest taken branch)\n\n",
		a.RootBranch, branchRank(inst.Prog, firstProf, a.RootBranch))

	// Phase 2: reactive redeployment (§4.2) — same logging, but now the
	// driver also profiles runs that pass the failure site successfully.
	failPC := a.FaultPC()
	if failPC < 0 {
		log.Fatal("sort should be a crash benchmark")
	}
	reactive, err := core.EnhanceLogging(a.Program(), core.Options{LBR: true, Toggling: true,
		Scheme: core.SchemeReactive, FailurePCs: []int{failPC}})
	if err != nil {
		log.Fatal(err)
	}
	phase("success runs")
	tr.Begin("success runs", "pipeline", tr.Base(), obs.PipelinePID, 0, nil)
	var succProfiles []core.ProfiledRun
	for s := int64(0); len(succProfiles) < 10 && s < 400; s++ {
		res := run(a.Succeed, *seed+1000+s, reactive)
		if a.Succeed.FailedRun(res) {
			continue
		}
		prof, ok := core.RunProfile(res, false)
		if !ok {
			continue
		}
		succProfiles = append(succProfiles, core.ProfiledRun{Prog: reactive.Prog, Profile: prof})
	}
	tr.End("success runs", "pipeline", tr.Base(), obs.PipelinePID, 0)
	if len(succProfiles) < 10 {
		log.Fatalf("only %d/10 success profiles", len(succProfiles))
	}

	// Phase 3: LBRA statistical debugging over the two profile sets.
	phase("LBRA")
	tr.Begin("LBRA", "pipeline", tr.Base(), obs.PipelinePID, 0, nil)
	report, err := core.Diagnose(core.ModeLBR, failProfiles, succProfiles)
	if err != nil {
		log.Fatal(err)
	}
	rank := report.RankOfBranchEdge(a.RootBranch, a.BuggyEdge)
	tr.End("LBRA", "pipeline", tr.Base(), obs.PipelinePID, 0)
	tr.Instant("verdict", "pipeline", tr.Base(), obs.PipelinePID, 0,
		map[string]any{"branch": a.RootBranch, "rank": rank})
	fmt.Printf("LBRA verdict over 10+10 runs: %s's buggy edge is predictor #%d (paper: 1)\n\n", a.RootBranch, rank)

	data, err := tr.ChromeJSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	snap := sink.Metrics.Snapshot()
	fmt.Printf("trace: %d events, %d bytes -> %s (cycle clock; same seed = same bytes)\n",
		tr.Len(), len(data), *out)
	fmt.Printf("telemetry: runs=%d cycles=%d traps=%d lbr pushes=%d evictions=%d\n",
		snap.Counter("vm.runs"), snap.Counter("vm.cycles"), snap.Counter("vm.traps"),
		snap.Counter("pmu.lbr.pushes"), snap.Counter("pmu.lbr.evictions"))

	// The pipeline's own short-term memory: the flight recorder holds the
	// recent phase transitions the same way the LBR holds recent branches.
	fmt.Println("flight recorder tail:")
	for _, ev := range sink.Flight.Tail(8) {
		fmt.Println("  " + ev.String())
	}
}

// branchRank is the 1-based LBR position (newest first) of the branch.
func branchRank(p *isa.Program, prof vm.Profile, branch string) int {
	for i, r := range prof.Branches {
		if r.From >= 0 && r.From < len(p.Instrs) {
			if id := p.Instrs[r.From].BranchID; id != isa.NoBranch && p.BranchName(id) == branch {
				return i + 1
			}
		}
	}
	return 0
}
