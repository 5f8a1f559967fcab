// Command fleetd is the cooperative-diagnosis fleet service and its
// simulated production clients: many deployed machines capture LBR/LCR
// profiles at negligible overhead, stream them to a central aggregator,
// and the aggregator ranks failure predictors exactly as the monolithic
// pipeline would — the paper's sampling-free answer to CBI's
// many-machines deployment model.
//
// Server:
//
//	fleetd -listen :8344 [-fleet-shards N] [-fleet-store dir] [-addr-file f]
//
// serves POST /fleet/ingest, GET /fleet/stats, GET /fleet/report, plus
// every live-telemetry endpoint of the -serve layer (/metrics, /trace,
// /flightrecorder, /profilez, /debug/pprof) on the same listener.
// -fleet-store persists every accepted submission to a write-ahead log in
// that directory before acknowledging it, and replays the log on startup:
// a killed and restarted fleetd serves the same /fleet/report bytes it
// would have without the crash.
//
// Client simulation:
//
//	fleetd -push http://host:8344 -app sort [-fleet-clients N]
//	       [-fleet-batch N] [-failruns N] [-succruns N] [-seed N] [-jobs N]
//
// captures the benchmark's diagnosis profiles with the deployed builds and
// fans them out over N concurrent simulated machines, each batching and
// gzip-POSTing with retry-with-backoff.
//
// Report fetch:
//
//	fleetd -report http://host:8344 [-app sort] [-k N]
//
// prints the server's ranking — byte-identical to the monolithic path's
// core.Report rendering for the same profile population.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"

	"stmdiag/internal/apps"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/fleet"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
	"stmdiag/internal/obshttp"
)

func main() {
	cliobs.MaybeTrialWorker()
	listen := flag.String("listen", "", "serve the fleet API on this `addr` (e.g. :8344; port 0 picks a free one)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this `file` (scripts poll it instead of parsing logs)")
	push := flag.String("push", "", "client mode: capture profiles and push them to this fleet server `URL`")
	report := flag.String("report", "", "fetch and print the diagnosis report from this fleet server `URL`")
	get := flag.String("get", "", "fetch this `URL` (any fleet/telemetry endpoint, e.g. .../metrics) and print the body")
	app := flag.String("app", "", "benchmark to capture (-push) or report on (-report)")
	topK := flag.Int("k", 10, "ranking depth requested by -report")
	failRuns := flag.Int("failruns", 10, "failure profiles captured per -push")
	succRuns := flag.Int("succruns", 10, "success profiles captured per -push")
	seed := flag.Int64("seed", 0, "base seed for -push capture")
	jobs := flag.Int("jobs", 0, "trial-execution workers for -push capture (0 = NumCPU)")
	fleetStore := flag.String("fleet-store", "", "persist the profile store to a write-ahead log in this `dir` and replay it on startup (-listen only)")
	ff := cliobs.RegisterFleet()
	ef := cliobs.RegisterExec()
	tf := cliobs.Register()
	flag.Parse()

	fail2 := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := tf.Validate(); err != nil {
		fail2(err)
	}
	if err := ff.Validate(); err != nil {
		fail2(err)
	}
	if err := ef.Validate(); err != nil {
		fail2(err)
	}
	if err := cliobs.CheckJobs(*jobs); err != nil {
		fail2(err)
	}
	if *fleetStore != "" && *listen == "" {
		fail2(fmt.Errorf("-fleet-store requires -listen"))
	}
	modes := 0
	for _, on := range []bool{*listen != "", *push != "", *report != "", *get != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "exactly one of -listen, -push, -report or -get is required")
		os.Exit(2)
	}
	for _, u := range []string{*push, *report, *get} {
		if u == "" {
			continue
		}
		if parsed, err := url.Parse(u); err != nil || parsed.Scheme == "" || parsed.Host == "" {
			fail2(fmt.Errorf("fleet server URL %q must be absolute (http://host:port)", u))
		}
	}

	var err error
	switch {
	case *listen != "":
		err = serve(*listen, *addrFile, *fleetStore, ff, tf)
	case *push != "":
		err = pushProfiles(*push, *app, harness.Config{
			FailRuns: *failRuns, SuccRuns: *succRuns, Seed: *seed, Jobs: *jobs,
		}, ff, ef, tf)
	case *get != "":
		err = fetchURL(*get)
	default:
		err = fetchReport(*report, *app, *topK)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// serve runs the aggregator until SIGINT/SIGTERM: the fleet routes layered
// over the full live-telemetry handler, one sink feeding both.
func serve(addr, addrFile, storeDir string, ff *cliobs.FleetFlags, tf *cliobs.Flags) error {
	sink := tf.Sink()
	if sink == nil {
		// A server always carries telemetry: ingest throughput and shard
		// contention are its primary observables.
		sink = obs.NewSink()
	}
	if sink.Trace == nil {
		// The federated trace (one lane per pushing client under the fleet
		// PID) is a serve-mode fixture: /trace and /tracez always have it.
		sink.Trace = obs.NewTracer()
	}
	var store *fleet.Store
	if storeDir != "" {
		var err error
		store, err = fleet.OpenPersistent(storeDir, fleet.StoreOptions{Shards: ff.Shards, Sink: sink})
		if err != nil {
			return err
		}
		defer store.Close() //nolint:errcheck // best-effort shutdown
		fmt.Fprintf(os.Stderr, "fleetd: replayed %d submissions from %s\n", store.Replayed(), storeDir)
	} else {
		store = fleet.NewStore(fleet.StoreOptions{Shards: ff.Shards, Sink: sink})
	}
	base := obshttp.New(sink)
	svc := fleet.NewService(store, base.Handler(), sink)

	srv := obshttp.NewHTTPServer(svc.Handler())
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleetd: listen %s: %w", addr, err)
	}
	defer lis.Close()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(lis.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("fleetd: write -addr-file: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "fleetd: serving /fleet/{ingest,stats,report} + telemetry on http://%s (%d shards)\n",
		lis.Addr(), store.Shards())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
		fmt.Fprintln(os.Stderr, "fleetd: shutting down")
		return srv.Close()
	}
}

// pushProfiles is one capture-and-submit cycle: the deployed builds
// produce this benchmark's diagnosis profiles, which fan out over the
// simulated machine population.
func pushProfiles(baseURL, appName string, cfg harness.Config, ff *cliobs.FleetFlags, ef *cliobs.ExecFlags, tf *cliobs.Flags) error {
	if appName == "" {
		return fmt.Errorf("-push requires -app (e.g. -app sort)")
	}
	a := apps.ByName(appName)
	if a == nil {
		return fmt.Errorf("unknown benchmark %q", appName)
	}
	cfg.Obs = tf.Sink()
	executor, store, err := ef.Build(cfg.Obs, cfg.Faults, cfg.Seed)
	if err != nil {
		return err
	}
	defer func() {
		if executor != nil {
			executor.Close() //nolint:errcheck // best-effort teardown
		}
		if store != nil {
			store.Close() //nolint:errcheck
		}
	}()
	cfg.Executor, cfg.Artifacts = executor, store
	mode, fail, succ, err := harness.DiagnosisProfiles(a, cfg)
	if err != nil {
		return err
	}
	subs := fleet.SubmissionsFromRuns(a.Name, mode, true, fail)
	subs = append(subs, fleet.SubmissionsFromRuns(a.Name, mode, false, succ)...)
	if err := fleet.Simulate(baseURL, ff.Clients, subs, fleet.ClientOptions{
		BatchSize:  ff.Batch,
		MaxRetries: ff.Retries,
		Sink:       cfg.Obs,
		RunID:      harness.RunID(cfg.Seed, "fleet-push"),
	}); err != nil {
		return err
	}
	fmt.Printf("pushed %d profiles (%d fail, %d succ) for %s over %d clients to %s\n",
		len(subs), len(fail), len(succ), a.Name, ff.Clients, baseURL)
	return nil
}

// fetchURL prints any telemetry/fleet endpoint's body — the scripts' curl
// substitute (the repo takes no dependency on curl being installed).
func fetchURL(u string) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleetd: get %s: %s: %s", u, resp.Status, body)
	}
	os.Stdout.Write(body) //nolint:errcheck // best-effort to stdout
	return nil
}

// fetchReport prints the server-side ranking.
func fetchReport(baseURL, appName string, k int) error {
	if k < 1 {
		return fmt.Errorf("-k must be >= 1, got %d", k)
	}
	u := baseURL + "/fleet/report?k=" + fmt.Sprint(k)
	if appName != "" {
		u += "&app=" + url.QueryEscape(appName)
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleetd: report: %s: %s", resp.Status, body)
	}
	os.Stdout.Write(body)
	return nil
}
