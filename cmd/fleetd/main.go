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
// would have without the crash. On SIGINT/SIGTERM it shuts down and
// writes -trace, -metrics and -profile-report.
//
// Client simulation:
//
//	fleetd -push http://host:8344 -app sort [-fleet-clients N]
//	       [-fleet-batch N] [-fleet-retries N] [-failruns N] [-succruns N]
//	       [-seed N] [-jobs N] [-faults spec]
//	       [-executor inproc|subprocess] [-resume dir] [-worker-bin bin]
//
// captures the benchmark's diagnosis profiles with the deployed builds
// (under -faults, through -executor, resuming from -resume) and fans them
// out over N concurrent simulated machines, each batching and
// gzip-POSTing with retry-with-backoff. -executor, -resume and -worker-bin
// are usage errors in the other modes.
//
// Report fetch:
//
//	fleetd -report http://host:8344 [-app sort] [-k N]
//
// prints the server's ranking — byte-identical to the monolithic path's
// core.Report rendering for the same profile population.
//
// Every mode takes the telemetry flags: -trace out.json, -metrics,
// -metrics-format f, -v, -serve addr, -serve-addr-file f, -flightrec and
// -profile-report K, written when the mode ends.
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
	cli := cliobs.New()
	listen := flag.String("listen", "", "serve the fleet API on this `addr` (e.g. :8344; port 0 picks a free one)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this `file` (scripts poll it instead of parsing logs)")
	push := flag.String("push", "", "client mode: capture profiles and push them to this fleet server `URL`")
	report := flag.String("report", "", "fetch and print the diagnosis report from this fleet server `URL`")
	get := flag.String("get", "", "fetch this `URL` (any fleet/telemetry endpoint, e.g. .../metrics) and print the body")
	app := flag.String("app", "", "benchmark to capture (-push) or report on (-report)")
	topK := flag.Int("k", 10, "ranking depth requested by -report")
	failRuns := flag.Int("failruns", 10, "failure profiles captured per -push")
	succRuns := flag.Int("succruns", 10, "success profiles captured per -push")
	cli.Seed(0, "base seed for -push capture")
	cli.Jobs("trial-execution workers for -push capture (0 = NumCPU)")
	fleetStore := flag.String("fleet-store", "", "persist the profile store to a write-ahead log in this `dir` and replay it on startup (-listen only)")
	ff := cli.Fleet()
	ef := cli.Exec()
	flag.Parse()
	modes := 0
	for _, on := range []bool{*listen != "", *push != "", *report != "", *get != ""} {
		if on {
			modes++
		}
	}
	cli.Check(
		cliobs.Require(*fleetStore == "" || *listen != "", "-fleet-store requires -listen"),
		cliobs.Require(*push != "" || (ef.Executor == cliobs.ExecInproc && ef.Resume == "" && ef.WorkerBin == ""),
			"-executor, -resume and -worker-bin require -push"),
		cliobs.Require(modes == 1, "exactly one of -listen, -push, -report or -get is required"),
		absoluteURL(*push), absoluteURL(*report), absoluteURL(*get),
	)

	base := harness.Config{FailRuns: *failRuns, SuccRuns: *succRuns}
	if *listen != "" {
		// A server always carries telemetry: ingest throughput and shard
		// contention are its primary observables, and the federated trace
		// (one lane per pushing client under the fleet PID) is always on
		// /trace and /tracez.
		base.Obs = obs.NewSink()
		base.Obs.Trace = obs.NewTracer()
	}
	cli.Run(base, func(cfg harness.Config) error {
		switch {
		case *listen != "":
			return serve(*listen, *addrFile, *fleetStore, ff, cfg.Obs)
		case *push != "":
			return pushProfiles(*push, *app, cfg, ff)
		case *get != "":
			return fetchURL(*get)
		}
		return fetchReport(*report, *app, *topK)
	})
}

// serve runs the aggregator until SIGINT/SIGTERM: the fleet routes layered
// over the full live-telemetry handler, one sink feeding both.
func serve(addr, addrFile, storeDir string, ff *cliobs.FleetFlags, sink *obs.Sink) error {
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
func pushProfiles(baseURL, appName string, cfg harness.Config, ff *cliobs.FleetFlags) error {
	if appName == "" {
		return fmt.Errorf("-push requires -app (e.g. -app sort)")
	}
	a := apps.ByName(appName)
	if a == nil {
		return fmt.Errorf("unknown benchmark %q", appName)
	}
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

// absoluteURL rejects a set fleet server URL that is not absolute.
func absoluteURL(u string) error {
	if parsed, err := url.Parse(u); u != "" && (err != nil || parsed.Scheme == "" || parsed.Host == "") {
		return fmt.Errorf("fleet server URL %q must be absolute (http://host:port)", u)
	}
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
