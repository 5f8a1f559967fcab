package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/fleet"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
)

// The fleet-ingest load: each app's deployed machine batches its captured
// profiles through a fleet.Client at the client's default batch size; the
// generator replays those ingest POSTs, apps in rotation, and reads
// /fleet/report rotating across the apps at a fixed rate.
const (
	// fleetRuns is how many failure and how many success runs setup
	// captures per app: together one full client batch of 64 distinct
	// profiles.
	fleetRuns = 32
	// batchesPerApp is how many ingest batches each app's client encodes,
	// each carrying all the app's profiles; every batch after the first
	// carries the client's telemetry summary, as a streaming client's do.
	batchesPerApp = 2
	// nominalBatches is the open loop's fixed ingest rate, in batches per
	// second: under a quarter of fleetd's closed-loop capacity on the
	// two-vCPU machine the benchmark was built on (290 to 520 batches/s of
	// 64 profiles, as busy as the host was), so the nominal phase runs the
	// server well below saturation and the ladder reaches it.
	nominalBatches = 70
	// reportRate is the fixed /fleet/report read rate, per second: enough
	// reads in a 15-second run (180 at the nominal phase) for a p90 that
	// repeats, and under a third of the ingest requests.
	reportRate = 20
	// ingestLimit is the ingest_p99_ms limit the rate ladder holds to.
	ingestLimit = 50 * time.Millisecond
	// minOffered is the share of the stated rate the generator must have
	// offered (scheduled span over actual dispatch span); below it the run
	// is invalid at the nominal rate, and a ladder step is not sustained.
	minOffered = 0.95
	// fleetSetupReps is how many set-up children a run times; its set-up
	// takes a second, not milliseconds.
	fleetSetupReps = 5
	// reportK is the ranking depth requested from /fleet/report.
	reportK = 10
)

// ladder is the fixed rate ladder, as multiples of the nominal rate.
var ladder = []float64{2, 4, 8, 16}

// fleetApp is one app's captured diagnosis inputs and its encoded batches.
type fleetApp struct {
	app        *apps.App
	mode       core.Mode
	fail, succ []core.ProfiledRun
	// batches are the app's ingest POST bodies. Batch b carries the app's
	// submissions picks[b], indices into its failure runs followed by its
	// success runs.
	batches [][]byte
	picks   [][]int
}

// fleetd is a started fleet server.
type fleetd struct {
	cmd  *exec.Cmd
	base string
	dir  string
	logs bytes.Buffer
}

// startFleetd starts `fleetd -listen` with its write-ahead log on, plus
// any extra flags, in a fresh directory of the run's scratch space.
func startFleetd(o *options, name string, extra ...string) (*fleetd, error) {
	dir := filepath.Join(o.work, "fleetd-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	f := &fleetd{dir: dir}
	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-fleet-store", filepath.Join(dir, "store")}, extra...)
	f.cmd = exec.Command(filepath.Join(o.bin, "fleetd"), args...)
	f.cmd.Stdout = &f.logs
	f.cmd.Stderr = &f.logs
	if err := f.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && strings.HasSuffix(string(b), "\n") {
			f.base = "http://" + strings.TrimSpace(string(b))
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleetd did not start: %s", f.logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the server and waits for it to exit.
func (f *fleetd) stop() {
	f.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	f.cmd.Wait()         //nolint:errcheck // killed on purpose
}

// setupFleet is the workload's set-up: start fleetd, then capture and
// encode every app's batches into sink (and spans, when traced).
func setupFleet(o *options, sink *obs.Sink, spans *spanLog) (*fleetd, []*fleetApp, error) {
	srv, err := startFleetd(o, "main")
	if err != nil {
		return nil, nil, err
	}
	fa, err := captureFleet(o, sink, spans)
	if err != nil {
		srv.stop()
		return nil, nil, fmt.Errorf("capture: %w", err)
	}
	return srv, fa, nil
}

// captureFleet records every app's diagnosis profiles with the deployed
// builds into sink and encodes its ingest batches. Each app's
// harness.DiagnosisProfiles call is a span.
func captureFleet(o *options, sink *obs.Sink, spans *spanLog) ([]*fleetApp, error) {
	sc, end := spanCtx{log: spans}.begin("stmbench.setup")
	defer end()
	cfg := harness.Config{FailRuns: fleetRuns, SuccRuns: fleetRuns, Jobs: o.jobs, Seed: o.seed, Obs: sink}
	as := apps.All()
	if o.tiny {
		cfg.FailRuns, cfg.SuccRuns = 2, 2
		as = []*apps.App{apps.ByName("sort"), apps.ByName("FFT")}
	}
	var out []*fleetApp
	var rows []time.Duration
	for _, a := range as {
		fa := &fleetApp{app: a}
		err := rowSpan(sc, &rows, func() (err error) {
			fa.mode, fa.fail, fa.succ, err = harness.DiagnosisProfiles(a, cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		subs := fleet.SubmissionsFromRuns(a.Name, fa.mode, true, fa.fail)
		subs = append(subs, fleet.SubmissionsFromRuns(a.Name, fa.mode, false, fa.succ)...)
		fa.batches, fa.picks, err = clientBatches("machine-"+a.Name, subs, batchesPerApp)
		if err != nil {
			return nil, err
		}
		out = append(out, fa)
	}
	return out, nil
}

// clientBatches encodes subs, passes times over, into ingest batches the
// way a deployed machine does: a fleet.Client with its default options (64
// submissions per POST, gzip, each batch after the first carrying the
// client's telemetry summary), flushed at the end. The client's transport
// records each POST body instead of sending it. picks[b] lists the indices
// into subs that batch b carries.
func clientBatches(name string, subs []fleet.Submission, passes int) (bodies [][]byte, picks [][]int, err error) {
	rec := &recorder{}
	c := fleet.NewClient("http://recorder", fleet.ClientOptions{Name: name, HTTPClient: &http.Client{Transport: rec}})
	var cur []int
	for p := 0; p < passes; p++ {
		for k, sub := range subs {
			cur = append(cur, k)
			if err := c.Add(sub); err != nil {
				return nil, nil, err
			}
			if len(rec.bodies) > len(picks) {
				picks, cur = append(picks, cur), nil
			}
		}
	}
	if err := c.Flush(); err != nil {
		return nil, nil, err
	}
	if len(cur) > 0 {
		picks = append(picks, cur)
	}
	return rec.bodies, picks, nil
}

// recorder is an http.RoundTripper that keeps each request body and
// answers 200 without sending anything.
type recorder struct{ bodies [][]byte }

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	b, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	r.bodies = append(r.bodies, b)
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{},
		Body: io.NopCloser(strings.NewReader("")), Request: req}, nil
}

// job is one request the load generator owes the server.
type job struct {
	due    time.Time
	report bool
	app    int
	batch  int // which of the app's batches an ingest posts
}

// done is one finished request.
type done struct {
	job
	end time.Time
	err error
}

// phase is one open-loop stretch at fixed rates.
type phase struct {
	results []done
	lag     []float64 // ms the generator dispatched each job late
	backlog int       // most jobs dispatched but not yet started
	endLog  int       // jobs dispatched but not started when the last was due
	offered float64   // share of the stated rate the generator offered
}

// loadgen offers the fleet load to one server through one HTTP client.
type loadgen struct {
	o      *options
	client *http.Client
	base   string
	apps   []*fleetApp
	spans  *spanLog
	next   int // ingests issued so far, which pick the next app and batch
	nextR  int // next app to read
	op     int
	// accepted counts, per app and batch, the POSTs the server
	// acknowledged.
	accepted [][]atomic.Int64
}

func newLoadgen(o *options, client *http.Client, base string, fa []*fleetApp, spans *spanLog) *loadgen {
	g := &loadgen{o: o, client: client, base: base, apps: fa, spans: spans, op: 1}
	g.accepted = make([][]atomic.Int64, len(fa))
	for i, a := range fa {
		g.accepted[i] = make([]atomic.Int64, len(a.batches))
	}
	return g
}

// nextIngest returns the next ingest job: apps in rotation, and each app's
// batches in rotation.
func (g *loadgen) nextIngest() job {
	n := len(g.apps)
	app := g.next % n
	j := job{app: app, batch: (g.next / n) % len(g.apps[app].batches)}
	g.next++
	return j
}

// send performs one request and reports an error for anything but 2xx.
func (g *loadgen) send(j job) error {
	a := g.apps[j.app]
	var req *http.Request
	var err error
	if j.report {
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/fleet/report?app=%s&k=%d",
			g.base, url.QueryEscape(a.app.Name), reportK), nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, g.base+"/fleet/ingest", bytes.NewReader(a.batches[j.batch]))
		if err == nil {
			req.Header.Set("Content-Encoding", "gzip")
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	if j.report && resp.StatusCode == http.StatusNotFound {
		return nil // no failure profile for this app has arrived yet
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	if !j.report {
		g.accepted[j.app][j.batch].Add(1)
	}
	return nil
}

// openLoop offers ingests at rate batches/s and reads at reportRate for
// dur, timing every request from when it was due. Requests queue for one
// of nproc senders.
func (g *loadgen) openLoop(rate float64, dur time.Duration) phase {
	t0 := time.Now().Add(10 * time.Millisecond)
	var jobs []job
	ni := int(rate * dur.Seconds())
	for i := 0; i < ni; i++ {
		j := g.nextIngest()
		j.due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		jobs = append(jobs, j)
	}
	nr := int(reportRate * dur.Seconds())
	for i := 0; i < nr; i++ {
		jobs = append(jobs, job{due: t0.Add(time.Duration(float64(i) / reportRate * float64(time.Second))),
			report: true, app: g.nextR})
		g.nextR = (g.nextR + 1) % len(g.apps)
	}
	// Ingests go first among requests due at the same time.
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].due.Before(jobs[k].due) })

	// The queue holds every job of the phase, so the generator never
	// blocks on a slow server: the backlog is the server's, not ours.
	sc, endPhase := spanCtx{log: g.spans, op: g.op}.begin("stmbench.phase")
	defer endPhase()
	queue := make(chan job, len(jobs))
	results := make([]done, 0, len(jobs))
	var mu sync.Mutex
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.o.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				started.Add(1)
				d := done{job: j}
				name := "fleet.http.ingest"
				if j.report {
					name = "fleet.http.report"
				}
				_, end := sc.begin(name)
				d.err = g.send(j)
				end()
				d.end = time.Now()
				mu.Lock()
				results = append(results, d)
				mu.Unlock()
			}
		}()
	}
	ph := phase{}
	for i, j := range jobs {
		if w := time.Until(j.due); w > 0 {
			time.Sleep(w)
		}
		ph.lag = append(ph.lag, float64(time.Since(j.due))/1e6)
		queue <- j
		if b := i + 1 - int(started.Load()); b > ph.backlog {
			ph.backlog = b
		}
	}
	ph.endLog = len(jobs) - int(started.Load())
	ph.offered = 1
	if span := time.Since(t0); len(jobs) > 0 && span > 0 {
		ph.offered = min(1, float64(jobs[len(jobs)-1].due.Sub(t0)+time.Millisecond)/float64(span))
	}
	close(queue)
	wg.Wait()
	ph.results = results
	return ph
}

// latencies returns the due-to-completion latencies (ms) of the phase's
// ingests or reads, and how many of them failed.
func (ph phase) latencies(report bool) (ms []float64, failed int) {
	for _, d := range ph.results {
		if d.report != report {
			continue
		}
		if d.err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "stmbench: fleet-ingest:", d.err)
			// A failed request misses any latency limit.
			ms = append(ms, math.Inf(1))
			continue
		}
		ms = append(ms, float64(d.end.Sub(d.due))/1e6)
	}
	return ms, failed
}

// closedLoop posts batches back to back from nproc senders for dur and
// returns profiles accepted per second.
func (g *loadgen) closedLoop(dur time.Duration) (float64, int, int) {
	var profiles, attempted, failed atomic.Int64
	stop := time.Now().Add(dur)
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	sc, endPhase := spanCtx{log: g.spans, op: g.op}.begin("stmbench.phase")
	defer endPhase()
	for w := 0; w < g.o.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				j := g.nextIngest()
				mu.Unlock()
				attempted.Add(1)
				_, end := sc.begin("fleet.http.ingest")
				err := g.send(j)
				end()
				if err != nil {
					failed.Add(1)
					fmt.Fprintln(os.Stderr, "stmbench: fleet-ingest:", err)
					continue
				}
				profiles.Add(int64(len(g.apps[j.app].picks[j.batch])))
			}
		}()
	}
	wg.Wait()
	return float64(profiles.Load()) / time.Since(t0).Seconds(), int(attempted.Load()), int(failed.Load())
}

// fleetdTracedFlags arm everything fleetd can record beyond what it always
// records (its tracer and flight recorder): fine-grained events and the
// profiler.
var fleetdTracedFlags = []string{"-v", "-profile-report", "10"}

func runFleet(o *options) (*outcome, error) {
	out := &outcome{e2e: newMetrics(), layer: newMetrics(), info: newMetrics(), executor: "fleetd"}
	setups, err := timeSetups(o, fleetSetupReps)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(os.Stderr, "stmbench: cold starts (s): %.4g\n", setups)
	// The traced run arms the full sink for the capture, whose trials are
	// the workload's harness, VM and hardware-model work.
	reg := obs.NewRegistry()
	sink := &obs.Sink{Metrics: reg}
	if o.traced {
		out.spans = newSpanLog()
		sink = &obs.Sink{Metrics: reg, Trace: obs.NewTracer(), Profiling: true}
	}
	srv, fa, err := setupFleet(o, sink, out.spans)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer srv.stop()

	tr := &http.Transport{MaxConnsPerHost: o.jobs, MaxIdleConnsPerHost: o.jobs}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 20 * time.Second}
	g := newLoadgen(o, client, srv.base, fa, out.spans)

	// Nominal phase, then the ladder, then the closed-loop capacity. The
	// gated figures are fleetd's own; the generator's are printed beside
	// them.
	s := o.seconds
	alloc0, err := serverAlloc(g)
	if err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	debug.FreeOSMemory()
	clearPeakRSS(pid)
	clearPeakRSS(os.Getpid())
	cpu0, genCPU0 := procCPU(pid), selfCPU()
	nominal := g.openLoop(nominalBatches, s*6/10)
	cpuNominal, genCPU := procCPU(pid)-cpu0, selfCPU()-genCPU0
	rssNominal, genRSS := float64(procHWM(pid))/1024, float64(procHWM(os.Getpid()))/1024
	alloc1, err := serverAlloc(g)
	if err != nil {
		return nil, err
	}
	ingest, ingFailed := nominal.latencies(false)
	reads, readFailed := nominal.latencies(true)
	// Per 1000 ingest batches, with the reads offered beside them.
	perK := 1000 / float64(len(ingest))
	out.attempted = len(nominal.results)
	out.failed = ingFailed + readFailed
	profilesPerBatch := float64(len(fa[0].picks[0]))

	// The nominal phase is the ladder's first step; the ladder climbs
	// until a step misses the limit or backs up.
	sustains := func(ph phase, lat []float64, failed int) bool {
		return failed == 0 && quantile(lat, 0.99) <= float64(ingestLimit)/1e6 && ph.endLog <= 2*o.jobs && ph.offered >= minOffered
	}
	sustained := 0.0
	if sustains(nominal, ingest, ingFailed) {
		sustained = nominalBatches * profilesPerBatch
		for _, m := range ladder {
			g.op++
			ph := g.openLoop(nominalBatches*m, s*5/100)
			lat, f1 := ph.latencies(false)
			_, f2 := ph.latencies(true)
			out.attempted += len(ph.results)
			out.failed += f1 + f2
			fmt.Fprintf(os.Stderr, "stmbench: ladder %.0f batches/s: ingest p99 %.1f ms, backlog at end %d, lag p99 %.1f ms, failed %d\n",
				nominalBatches*m, quantile(lat, 0.99), ph.endLog, quantile(ph.lag, 0.99), f1)
			if !sustains(ph, lat, f1) {
				break
			}
			sustained = nominalBatches * m * profilesPerBatch
		}
	}

	capacity, overhead := 0.0, 0.0
	g.op++
	g.spans = nil
	if !o.traced {
		var n, f int
		capacity, n, f = g.closedLoop(s * 15 / 100)
		out.attempted += n
		out.failed += f
	} else {
		overhead, err = fleetTraceOverhead(o, client, fa, s*4/100, out)
		if err != nil {
			return nil, err
		}
	}

	lagP99 := quantile(nominal.lag, 0.99)
	if nominal.offered < minOffered {
		out.invalid = fmt.Sprintf("the generator offered %.0f%% of the nominal rate (lag p99 %.1f ms)", 100*nominal.offered, lagP99)
	}

	// Oracle: each app's final report must equal the monolithic diagnosis
	// over the same submissions, byte for byte.
	top1 := 0
	for i, a := range fa {
		out.attempted++
		ok, first, err := checkOracle(g, i, o.corruptOracle)
		if err != nil || !ok {
			fmt.Fprintf(os.Stderr, "stmbench: fleet-ingest: %s: report differs from the oracle (%v)\n", a.app.Name, err)
			out.failed++
			continue
		}
		if first {
			top1++
		}
	}
	acc := float64(top1) / float64(len(fa))

	e := out.e2e
	e.set("setup_s", median(setups), "s")
	e.set("cpu_s", cpuNominal.Seconds()*perK, "s")
	e.set("alloc_mb_per_op", float64(alloc1-alloc0)/(1<<20)*perK, "MiB")
	e.set("peak_rss_mb", rssNominal, "MB")
	e.set("diag_accuracy", acc, "ratio")

	info := out.info
	info.set("setup_s", median(setups), "s")
	info.set("ingest_p50_ms", quantile(ingest, 0.5), "ms")
	info.set("ingest_p99_ms", quantile(ingest, 0.99), "ms")
	info.set("report_p50_ms", quantile(reads, 0.5), "ms")
	info.set("report_p90_ms", quantile(reads, 0.9), "ms")
	info.set("sustained_profiles_per_s", sustained, "1/s")
	if !o.traced {
		info.set("capacity_profiles_per_s", capacity, "1/s")
	}
	info.set("nominal_profiles_per_s", nominalBatches*profilesPerBatch, "1/s")
	info.set("profiles_per_batch", profilesPerBatch, "count")
	info.set("cpu_s", cpuNominal.Seconds()*perK, "s")
	info.set("alloc_mb_per_op", float64(alloc1-alloc0)/(1<<20)*perK, "MiB")
	info.set("peak_rss_mb", rssNominal, "MB")
	info.set("diag_accuracy", acc, "ratio")
	info.set("loadgen.cpu_s", genCPU.Seconds()*perK, "s")
	info.set("loadgen.peak_rss_mb", genRSS, "MB")
	info.set("loadgen.lag_p99_ms", lagP99, "ms")
	info.set("loadgen.backlog_max", float64(nominal.backlog), "count")
	info.set("ingest_samples", float64(len(ingest)), "count")
	info.set("report_samples", float64(len(reads)), "count")

	if o.traced {
		lm := out.layer
		layerCounts(reg.Snapshot(), lm)
		m, err := scrapeMetrics(g)
		if err != nil {
			return nil, err
		}
		fleetServerCounts(m, lm)
		lm.set("harness.row_ms", median(durMS(out.spans.durations("harness.row"))), "ms")
		lm.set("harness.queue_depth_max", 0, "count")
		lm.set("obs.trace_overhead_ratio", overhead, "ratio")
		lm.set("loadgen.lag_p99_ms", lagP99, "ms")
		lm.set("loadgen.backlog_max", float64(nominal.backlog), "count")
		t, err := fleetTarget(fa)
		if err != nil {
			return nil, err
		}
		if err := runProbes(o, t, spanCtx{log: out.spans}, lm, true); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return out, nil
}

// fleetTraceOverhead compares a plain fleetd with one started with
// fleetdTracedFlags, both fresh: closed-loop quarters of length q in the
// order plain, traced, traced, plain, so drift and store growth fall on
// both alike. It returns the plain capacity over the traced one, the
// traced wall time over the untraced for the same work.
func fleetTraceOverhead(o *options, client *http.Client, fa []*fleetApp, q time.Duration, out *outcome) (float64, error) {
	plain, err := startFleetd(o, "plain")
	if err != nil {
		return 0, err
	}
	defer plain.stop()
	traced, err := startFleetd(o, "traced", fleetdTracedFlags...)
	if err != nil {
		return 0, err
	}
	defer traced.stop()
	gp := newLoadgen(o, client, plain.base, fa, nil)
	gt := newLoadgen(o, client, traced.base, fa, nil)
	var capPlain, capTraced float64
	for _, g := range []*loadgen{gp, gt, gt, gp} {
		c, n, f := g.closedLoop(q)
		out.attempted += n
		out.failed += f
		if g == gp {
			capPlain += c
		} else {
			capTraced += c
		}
	}
	return capPlain / capTraced, nil
}

// checkOracle fetches app i's final report and compares it with
// core.Diagnose over the submissions the server acknowledged. first
// reports whether the ground-truth root cause ranks first.
func checkOracle(g *loadgen, i int, corrupt bool) (ok, first bool, err error) {
	a := g.apps[i]
	var fail, succ []core.ProfiledRun
	for b, picks := range a.picks {
		for n := g.accepted[i][b].Load(); n > 0; n-- {
			for _, k := range picks {
				if k < len(a.fail) {
					fail = append(fail, a.fail[k])
				} else {
					succ = append(succ, a.succ[k-len(a.fail)])
				}
			}
		}
	}
	if len(fail)+len(succ) == 0 {
		return false, false, fmt.Errorf("no batch acknowledged")
	}
	rep, err := core.Diagnose(a.mode, fail, succ)
	if err != nil {
		return false, false, err
	}
	want := rep.Render(reportK)
	if corrupt {
		want += "corrupted\n"
	}
	resp, err := g.client.Get(fmt.Sprintf("%s/fleet/report?app=%s&k=%d", g.base, url.QueryEscape(a.app.Name), reportK))
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, false, fmt.Errorf("%s", resp.Status)
	}
	return string(got) == want, rootFirst(a.app, rep), nil
}

// rootFirst reports whether a diagnosis ranks the app's ground-truth root
// cause first, by the rules Tables 6 and 7 apply to LBRA and LCRA.
func rootFirst(a *apps.App, rep *core.Report) bool {
	if a.Class.Concurrent() {
		if a.FPE == nil {
			return false
		}
		want := a.FPE
		r := rep.RankOfCoherence(func(e core.Event) bool {
			return e.Kind == core.EventCoherence && e.Access == want.Kind && e.State == want.State &&
				e.File == want.File && e.Line == want.Line
		})
		return r == 1 && rep.Ranking[0].Score >= 0.75
	}
	r := rep.RankOfBranchEdge(a.RootBranch, a.BuggyEdge)
	if r == 0 && a.RelatedBranch != "" {
		r = rep.RankOfBranch(a.RelatedBranch)
	}
	return r == 1
}

// fleetTarget probes the layers on the workload's own "sort" captures (or
// the first app's, at self-test size).
func fleetTarget(fa []*fleetApp) (*probeTarget, error) {
	pick := fa[0]
	for _, a := range fa {
		if a.app.Name == "sort" {
			pick = a
		}
	}
	t, err := appTargetFrom(pick.app)
	if err != nil {
		return nil, err
	}
	t.mode, t.fail, t.succ = pick.mode, pick.fail, pick.succ
	return t, nil
}

// serverAlloc reads fleetd's cumulative heap allocation (runtime.MemStats
// TotalAlloc) from the heap profile's statistics footer.
func serverAlloc(g *loadgen) (uint64, error) {
	resp, err := g.client.Get(g.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("fleetd heap profile has no TotalAlloc")
}

var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ([0-9.eE+-]+|\+Inf|NaN)$`)

// scrapeMetrics reads fleetd's /metrics exposition into series → value.
func scrapeMetrics(g *loadgen) (map[string]float64, error) {
	resp, err := g.client.Get(g.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		m := metricLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		out[m[1]+m[2]] = v
	}
	return out, sc.Err()
}

var (
	shardWait = regexp.MustCompile(`^fleet_store_shard[0-9]+_wait_ns_total$`)
	bucketLE  = regexp.MustCompile(`^fleet_ingest_batch_ns_bucket\{le="([^"]+)"\}$`)
)

// fleetServerCounts maps fleetd's exposition onto the per-layer fleet
// metrics, the ingest handler's latency percentiles interpolated within
// the histogram's buckets.
func fleetServerCounts(m map[string]float64, lm *metrics) {
	batches := m["fleet_ingest_batches_total"]
	var wait float64
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range m {
		if shardWait.MatchString(k) {
			wait += v
		}
		if b := bucketLE.FindStringSubmatch(k); b != nil {
			le := math.Inf(1)
			if b[1] != "+Inf" {
				le, _ = strconv.ParseFloat(b[1], 64)
			}
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, k int) bool { return bs[i].le < bs[k].le })
	pct := func(q float64) float64 {
		if len(bs) == 0 {
			return 0
		}
		total := bs[len(bs)-1].n
		target := q * total
		lo, prev := 0.0, 0.0
		for _, b := range bs {
			if b.n >= target {
				hi := b.le
				if math.IsInf(hi, 1) {
					hi = lo * 4
				}
				frac := 0.0
				if b.n > prev {
					frac = (target - prev) / (b.n - prev)
				}
				return (lo + (hi-lo)*frac) / 1e6
			}
			lo, prev = b.le, b.n
		}
		return lo / 1e6
	}
	lm.set("fleet.shard_wait_ns_per_batch", wait/math.Max(batches, 1), "ns")
	lm.set("fleet.handler_p50_ms", pct(0.5), "ms")
	lm.set("fleet.handler_p99_ms", pct(0.99), "ms")
	delta, full := m["fleet_rank_delta_rescores_total"], m["fleet_rank_full_rescores_total"]
	lm.set("fleet.delta_rescores", delta, "count")
	lm.set("fleet.full_rescores", full, "count")
	lm.set("fleet.events_rescored_per_report", m["fleet_rank_events_rescored_total"]/math.Max(delta+full, 1), "count")
	lm.set("fleet.wal_appends", m["fleet_store_wal_appends_total"], "count")
	lm.set("fleet.ingest_rejected", m["fleet_ingest_rejected_total"], "count")
}
