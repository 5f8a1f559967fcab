// Package cliobs is the one command-line front end of the binaries. A
// binary registers its flag groups on a CLI — the telemetry flags (-trace,
// -metrics, -metrics-format, -v, -serve, -serve-addr-file, -flightrec,
// -profile-report) and -faults always, plus -jobs, -seed, -ranker, the
// durable-execution flags (-executor, -resume, -worker-bin) and the
// -fleet-* flags as it needs them — and then goes through one lifecycle:
//
//   - Check validates every registered group and the binary's own checks
//     right after flag.Parse, exiting 2 on the first error.
//   - Run opens the run (sink, -serve, run-id announcement, executor,
//     artifact store), hands the body a ready harness.Config, and closes
//     the run exactly once on every way out: -trace, -metrics and
//     -profile-report are written, -serve is stopped, and the executor and
//     store are closed, whether the body succeeds, fails (exit 1) or
//     panics.
package cliobs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"stmdiag/internal/artifact"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
	"stmdiag/internal/obshttp"
	"stmdiag/internal/prof"
)

// CLI is one binary's command-line front end: its registered flag groups
// and, once Run opens it, the run's telemetry sink, executor and store.
type CLI struct {
	tel    *telemetryFlags
	ranker *rankerFlag
	exec   *ExecFlags
	fleet  *FleetFlags
	jobs   int
	seed   int64
	faults faultinj.Spec
	stderr io.Writer

	sink     *obs.Sink
	executor harness.Executor
	store    *artifact.Store
	closed   bool
}

// New starts a binary's front end and registers the telemetry flags and
// -faults on the default flag set. A process launched as a trial worker
// (the STMDIAG_TRIAL_WORKER environment marker) runs the worker protocol
// on stdin/stdout here and exits, so every binary doubles as the
// subprocess executor's worker (-worker-bin defaults to the current
// executable). Call first in main, before flag.Parse.
func New() *CLI {
	maybeTrialWorker()
	f := &telemetryFlags{}
	flag.StringVar(&f.TracePath, "trace", "", "write a Chrome trace_event JSON trace (chrome://tracing, Perfetto) to this `file`")
	flag.BoolVar(&f.Metrics, "metrics", false, "print the telemetry counters after the run")
	flag.StringVar(&f.MetricsFormat, "metrics-format", FormatText, "render -metrics as `text`, json, detjson (deterministic families only) or prom (OpenMetrics)")
	flag.BoolVar(&f.Verbose, "v", false, "record fine-grained (per-branch, per-coherence-event) trace events")
	flag.StringVar(&f.Faults, "faults", "", "deterministic fault-injection `spec`, e.g. \"rate=0.01\" or \"lbr-drop=0.1,seed=7\" (\"off\" = none)")
	flag.StringVar(&f.ServeAddr, "serve", "", "serve live telemetry (/metrics, /trace, /tracez, /flightrecorder, /debug/pprof) on this `addr` during the run, e.g. :9090")
	flag.StringVar(&f.ServeAddrFile, "serve-addr-file", "", "write the -serve bound address to this `file` (scripts poll it instead of parsing logs)")
	flag.BoolVar(&f.FlightRec, "flightrec", true, "keep a flight recorder of recent harness events on the telemetry sink")
	flag.IntVar(&f.ProfileReport, "profile-report", 0, "render a top-`K` cost-attribution hot-spot report (opcodes, phases, alloc sites) on stderr after the run (0 = off)")
	return &CLI{tel: f, stderr: os.Stderr}
}

// maybeTrialWorker runs the worker protocol loop and exits when the
// worker environment marker is set; a no-op in normal runs.
func maybeTrialWorker() {
	if os.Getenv(harness.WorkerEnv) == "" {
		return
	}
	if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trial worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Jobs registers -jobs with the binary's help text; the value becomes
// Config.Jobs.
func (c *CLI) Jobs(usage string) { flag.IntVar(&c.jobs, "jobs", 0, usage) }

// Seed registers -seed with the binary's default and help text; the value
// becomes Config.Seed.
func (c *CLI) Seed(def int64, usage string) { flag.Int64Var(&c.seed, "seed", def, usage) }

// Ranker registers -ranker; the value becomes Config.Ranker.
func (c *CLI) Ranker() {
	c.ranker = &rankerFlag{}
	flag.StringVar(&c.ranker.Name, "ranker", core.RankerCBI.String(),
		"diagnosis scoring `formula`: cbi (the paper's harmonic mean), ochiai or tarantula")
}

// Exec registers -executor, -resume and -worker-bin; Run builds the
// executor and artifact store they ask for.
func (c *CLI) Exec() *ExecFlags {
	f := &ExecFlags{}
	flag.StringVar(&f.Executor, "executor", ExecInproc,
		"trial execution `engine`: inproc (in this process) or subprocess (isolated worker processes)")
	flag.StringVar(&f.Resume, "resume", "",
		"durable artifact-store `dir`: persist trial results as they commit and resume a killed run from it")
	flag.StringVar(&f.WorkerBin, "worker-bin", "",
		"worker `binary` for -executor subprocess (default: this executable)")
	c.exec = f
	return f
}

// Fleet registers the -fleet-* flags and returns them for the binary to
// read after Check.
func (c *CLI) Fleet() *FleetFlags {
	f := &FleetFlags{}
	flag.IntVar(&f.Shards, "fleet-shards", 16, "profile-store lock stripes per app (1..4096)")
	flag.IntVar(&f.Clients, "fleet-clients", 4, "simulated machines a -push fans profiles over")
	flag.IntVar(&f.Batch, "fleet-batch", 64, "profile submissions per ingest POST")
	flag.IntVar(&f.Retries, "fleet-retries", 5, "max re-sends of one batch after a 5xx")
	c.fleet = f
	return f
}

// Check validates every registered flag group, then the binary's own
// checks in order (build them with Require), and exits 2 on the first
// error. An error wrapping flag.ErrHelp prints the flag usage instead of
// itself. Call right after flag.Parse.
func (c *CLI) Check(own ...error) {
	if err := c.check(own); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			flag.Usage()
		} else {
			fmt.Fprintln(c.stderr, err)
		}
		os.Exit(2)
	}
}

func (c *CLI) check(own []error) error {
	spec, err := c.tel.faultSpec()
	c.faults = spec
	errs := []error{c.tel.validate(), err, checkJobs(c.jobs)}
	if c.ranker != nil {
		errs = append(errs, c.ranker.validate())
	}
	if c.exec != nil {
		errs = append(errs, c.exec.validate())
	}
	if c.fleet != nil {
		errs = append(errs, c.fleet.validate())
	}
	for _, err := range append(errs, own...) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Require returns the usage error format describes unless ok holds; pass
// the results to Check.
func Require(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// Run is the run's lifecycle. It opens the run: base.Obs, when set, is the
// sink the telemetry flags arm (a binary that needs a registry whatever
// the flags pass one); otherwise a sink is built only when a telemetry
// flag asks for it. -serve starts, the run id is announced when -serve or
// -trace is on, and the executor and store are built. body then gets base
// completed with the flags' Jobs, Seed, Obs, Faults, Ranker, Executor and
// Artifacts. Run closes the run exactly once however body ends; an open,
// body or close error is printed and the process exits 1.
func (c *CLI) Run(base harness.Config, body func(harness.Config) error) {
	if c.run(base, body) != nil {
		os.Exit(1)
	}
}

func (c *CLI) run(base harness.Config, body func(harness.Config) error) (err error) {
	defer func() {
		if cerr := c.close(); cerr != nil {
			fmt.Fprintln(c.stderr, cerr)
			if err == nil {
				err = cerr
			}
		}
	}()
	cfg, err := c.open(base)
	if err == nil {
		err = body(cfg)
	}
	if err != nil {
		fmt.Fprintln(c.stderr, err)
	}
	return err
}

func (c *CLI) open(base harness.Config) (harness.Config, error) {
	c.sink = c.tel.sink(base.Obs)
	if err := c.tel.start(c.sink, c.stderr); err != nil {
		return base, err
	}
	if c.tel.ServeAddr != "" || c.tel.TracePath != "" {
		// The correlation ID every trial's federated telemetry is stamped
		// with (Config.Pool derives the same value): grep it out of worker
		// deltas, traces and fleet batches to tie them to this run.
		fmt.Fprintf(c.stderr, "telemetry: run id %016x\n", harness.RunID(c.seed, "config"))
	}
	if c.exec != nil {
		var err error
		if c.executor, c.store, err = c.exec.build(c.sink, c.faults, c.seed); err != nil {
			return base, err
		}
	}
	cfg := base
	cfg.Jobs, cfg.Seed, cfg.Obs, cfg.Faults = c.jobs, c.seed, c.sink, c.faults
	if c.ranker != nil {
		cfg.Ranker = c.ranker.ranker()
	}
	cfg.Executor, cfg.Artifacts = c.executor, c.store
	return cfg, nil
}

// close writes -trace, -metrics and -profile-report, stops -serve and
// closes the executor and store; calls after the first are no-ops.
func (c *CLI) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.tel.finish(c.sink, c.stderr)
	if c.executor != nil {
		c.executor.Close() //nolint:errcheck // best-effort teardown
	}
	c.store.Close() //nolint:errcheck
	return err
}

// Metrics output formats accepted by -metrics-format.
const (
	FormatText = "text"
	FormatJSON = "json"
	FormatProm = "prom"
	// FormatDetJSON is the deterministic subset: the JSON snapshot with
	// every wall-clock/scheduling-variant family (obs.IsVolatile) filtered
	// out, so output is byte-identical across -jobs values and executors.
	FormatDetJSON = "detjson"
)

// telemetryFlags holds the parsed telemetry flags.
type telemetryFlags struct {
	// TracePath is the -trace destination ("" = tracing off).
	TracePath string
	// Metrics prints a metrics snapshot after the run (-metrics).
	Metrics bool
	// MetricsFormat selects the -metrics rendering: text (default), json,
	// or prom (OpenMetrics exposition).
	MetricsFormat string
	// Verbose raises trace detail to per-branch/per-coherence events (-v).
	Verbose bool
	// Faults is the raw -faults fault-injection spec ("" = off).
	Faults string
	// ServeAddr is the -serve listen address ("" = no telemetry server).
	ServeAddr string
	// ServeAddrFile is the -serve-addr-file destination: the bound listen
	// address is written there once the server is up ("" = don't), so
	// scripts using -serve :0 can find the port without parsing logs.
	ServeAddrFile string
	// FlightRec arms the in-memory flight recorder on the run's sink
	// (-flightrec; on by default whenever telemetry is on).
	FlightRec bool
	// ProfileReport is the -profile-report top-K: >0 arms the
	// cost-attribution profiler and renders a K-row hot-spot report on
	// stderr after the run; 0 (the default) leaves profiling off.
	ProfileReport int

	server *obshttp.Server
}

// validate rejects malformed telemetry flag combinations.
func (f *telemetryFlags) validate() error {
	if f.ProfileReport < 0 {
		return fmt.Errorf("-profile-report must be >= 0 (0 = off), got %d", f.ProfileReport)
	}
	if f.ServeAddrFile != "" && f.ServeAddr == "" {
		return fmt.Errorf("-serve-addr-file requires -serve")
	}
	switch f.MetricsFormat {
	case FormatText, FormatJSON, FormatDetJSON, FormatProm:
		return nil
	}
	return fmt.Errorf("-metrics-format must be %s, %s, %s or %s, got %q",
		FormatText, FormatJSON, FormatDetJSON, FormatProm, f.MetricsFormat)
}

// faultSpec parses the -faults value. The zero spec (injection off) comes
// back for "" and "off".
func (f *telemetryFlags) faultSpec() (faultinj.Spec, error) {
	spec, err := faultinj.ParseSpec(f.Faults)
	if err != nil {
		return faultinj.Spec{}, fmt.Errorf("-faults: %w", err)
	}
	return spec, nil
}

// checkJobs validates a -jobs value: 0 means NumCPU and positive counts
// are worker counts, but negative values are malformed rather than a
// silent fallback.
func checkJobs(jobs int) error {
	if jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0 (0 = NumCPU), got %d", jobs)
	}
	return nil
}

// rankerFlag holds the raw -ranker value shared by the diagnosis-driving
// binaries; validate resolves it against core.Rankers.
type rankerFlag struct {
	// Name is the -ranker value (cbi, ochiai or tarantula).
	Name string
}

// validate rejects unknown ranker names.
func (f *rankerFlag) validate() error {
	_, err := core.ParseRanker(f.Name)
	return err
}

// ranker resolves the flag; call after validate (unknown names fall back
// to the paper's CBI ranker).
func (f *rankerFlag) ranker() core.Ranker {
	r, _ := core.ParseRanker(f.Name)
	return r
}

// Executor names accepted by -executor.
const (
	ExecInproc     = "inproc"
	ExecSubprocess = "subprocess"
)

// ExecFlags holds the parsed durable-execution flags: which executor runs
// portable trials, where the durable artifact store lives, and which
// binary serves as the subprocess worker.
type ExecFlags struct {
	// Executor is the -executor choice: inproc (default) or subprocess.
	Executor string
	// Resume is the -resume artifact-store directory ("" = no persistence).
	// The directory is created if missing; an existing store resumes the
	// run, skipping trials whose results are already committed.
	Resume string
	// WorkerBin is the -worker-bin subprocess worker binary ("" = the
	// current executable).
	WorkerBin string
}

// validate rejects malformed execution flags.
func (f *ExecFlags) validate() error {
	switch f.Executor {
	case ExecInproc, ExecSubprocess:
	default:
		return fmt.Errorf("-executor must be %s or %s, got %q", ExecInproc, ExecSubprocess, f.Executor)
	}
	if f.Resume != "" {
		if fi, err := os.Stat(f.Resume); err == nil && !fi.IsDir() {
			return fmt.Errorf("-resume %q is not a directory", f.Resume)
		}
	}
	if f.WorkerBin != "" && f.Executor != ExecSubprocess {
		return fmt.Errorf("-worker-bin requires -executor %s", ExecSubprocess)
	}
	return nil
}

// build assembles the executor and artifact store the flags ask for; both
// are nil on the all-default path (in-process, no persistence). The store
// is armed with the run's fault spec so the artifact-layer injectors
// (artifact-torn-write, artifact-corrupt, journal-trunc) fire on it.
func (f *ExecFlags) build(sink *obs.Sink, faults faultinj.Spec, seed int64) (harness.Executor, *artifact.Store, error) {
	var exec harness.Executor
	if f.Executor == ExecSubprocess {
		e, err := harness.NewSubprocExecutor(harness.SubprocOptions{Bin: f.WorkerBin, Sink: sink})
		if err != nil {
			return nil, nil, err
		}
		exec = e
	}
	var store *artifact.Store
	if f.Resume != "" {
		s, err := artifact.Open(f.Resume, sink)
		if err != nil {
			return exec, nil, err
		}
		store = s.WithFaults(faults, seed)
	}
	return exec, store, nil
}

// FleetFlags holds the parsed -fleet-* flags shared by fleet-aware
// binaries (fleetd's store sizing and client-simulation shape).
type FleetFlags struct {
	// Shards is the profile store's lock-stripe count (-fleet-shards).
	Shards int
	// Clients is how many simulated machines a push fans out over
	// (-fleet-clients).
	Clients int
	// Batch is the per-client submissions-per-POST batch size
	// (-fleet-batch).
	Batch int
	// Retries bounds per-batch re-sends on 5xx (-fleet-retries).
	Retries int
}

// validate rejects malformed -fleet-* values.
func (f *FleetFlags) validate() error {
	if f.Shards < 1 || f.Shards > 4096 {
		return fmt.Errorf("-fleet-shards must be in 1..4096, got %d", f.Shards)
	}
	if f.Clients < 1 {
		return fmt.Errorf("-fleet-clients must be >= 1, got %d", f.Clients)
	}
	if f.Batch < 1 {
		return fmt.Errorf("-fleet-batch must be >= 1, got %d", f.Batch)
	}
	if f.Retries < 0 {
		return fmt.Errorf("-fleet-retries must be >= 0, got %d", f.Retries)
	}
	return nil
}

// sink arms base with what the flags ask for, building a sink when base is
// nil. With every telemetry flag off it returns base untouched (nil keeps
// the disabled-telemetry path free). Metrics land in the process-wide
// registry so instrumentation-time counters (sites instrumented, bundles
// audited) appear in the same snapshot. A -serve run always gets a sink
// (the server needs something to expose), and an armed sink carries a
// pipeline flight recorder unless -flightrec=false.
func (f *telemetryFlags) sink(base *obs.Sink) *obs.Sink {
	if f.TracePath == "" && !f.Metrics && !f.Verbose && f.ServeAddr == "" && f.ProfileReport == 0 {
		return base
	}
	s := base
	if s == nil {
		s = obs.NewSink()
	}
	if (f.TracePath != "" || f.ServeAddr != "") && s.Trace == nil {
		s.Trace = obs.NewTracer()
	}
	if f.Verbose {
		s.Verbosity = 1
	}
	if f.FlightRec && s.Flight == nil {
		s.Flight = obs.NewFlightRecorder(obs.DefaultFlightCap)
	}
	// -profile-report needs the attribution counters. A -serve run serves
	// whatever else is armed but does not force-arm the profiler: per-opcode
	// attribution is by far the largest per-trial delta on the executor
	// wire (it alone nearly doubles the federated payload), so live runs
	// that want /profilez data add -profile-report explicitly.
	s.Profiling = f.ProfileReport > 0
	return s
}

// start launches the -serve telemetry server over the run's sink; no-op
// without -serve. The bound address (useful with ":0") is announced on w.
func (f *telemetryFlags) start(s *obs.Sink, w io.Writer) error {
	if f.ServeAddr == "" {
		return nil
	}
	srv := obshttp.New(s)
	if err := srv.Start(f.ServeAddr); err != nil {
		return err
	}
	f.server = srv
	if f.ServeAddrFile != "" {
		if err := os.WriteFile(f.ServeAddrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			return fmt.Errorf("cliobs: write -serve-addr-file: %w", err)
		}
	}
	fmt.Fprintf(w, "telemetry: serving /metrics /trace /tracez /flightrecorder /profilez /debug/pprof on http://%s\n", srv.Addr())
	return nil
}

// finish writes the trace file, prints the metrics snapshot to w in the
// format -metrics-format asks for, and stops the -serve server.
func (f *telemetryFlags) finish(s *obs.Sink, w io.Writer) error {
	if f.server != nil {
		f.server.SetReady(false)
		defer f.server.Close()
	}
	if s == nil {
		return nil
	}
	if f.TracePath != "" && s.Trace != nil {
		data, err := s.Trace.ChromeJSON()
		if err != nil {
			return fmt.Errorf("cliobs: encode trace: %w", err)
		}
		if err := os.WriteFile(f.TracePath, data, 0o644); err != nil {
			return fmt.Errorf("cliobs: write trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d events -> %s", s.Trace.Len(), f.TracePath)
		if d := s.Trace.Dropped(); d > 0 {
			fmt.Fprintf(w, " (%d dropped at limit)", d)
		}
		fmt.Fprintln(w)
	}
	if f.Metrics && s.Metrics != nil {
		snap := s.Metrics.Snapshot()
		switch f.MetricsFormat {
		case FormatJSON, FormatDetJSON:
			if f.MetricsFormat == FormatDetJSON {
				snap = snap.Deterministic()
			}
			data, err := snap.JSON()
			if err != nil {
				return fmt.Errorf("cliobs: encode metrics: %w", err)
			}
			w.Write(data) //nolint:errcheck // best-effort diagnostics
			fmt.Fprintln(w)
		case FormatProm:
			io.WriteString(w, snap.OpenMetrics()) //nolint:errcheck
		default:
			fmt.Fprint(w, snap.Text())
		}
	}
	if f.ProfileReport > 0 && s.Metrics != nil {
		io.WriteString(w, prof.FromSnapshot(s.Metrics.Snapshot()).Render(f.ProfileReport)) //nolint:errcheck
	}
	return nil
}
