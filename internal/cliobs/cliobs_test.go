package cliobs

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
)

func TestCheckJobs(t *testing.T) {
	for _, jobs := range []int{0, 1, 4, 128} {
		if err := checkJobs(jobs); err != nil {
			t.Errorf("checkJobs(%d) = %v, want nil", jobs, err)
		}
	}
	for _, jobs := range []int{-1, -17} {
		err := checkJobs(jobs)
		if err == nil {
			t.Fatalf("checkJobs(%d) accepted a negative worker count", jobs)
		}
		if !strings.Contains(err.Error(), "-jobs") {
			t.Errorf("checkJobs(%d) error %q does not name the flag", jobs, err)
		}
	}
}

func TestFaultSpec(t *testing.T) {
	tests := []struct {
		raw     string
		wantErr bool
		enabled bool
	}{
		{"", false, false},
		{"off", false, false},
		{"rate=0.01", false, true},
		{"lbr-drop=0.1,seed=7", false, true},
		{"rate=2", true, false},
		{"bogus-layer=0.5", true, false},
	}
	for _, tc := range tests {
		f := &telemetryFlags{Faults: tc.raw}
		spec, err := f.faultSpec()
		if tc.wantErr {
			if err == nil {
				t.Errorf("FaultSpec(%q) accepted a malformed spec", tc.raw)
			} else if !strings.Contains(err.Error(), "-faults") {
				t.Errorf("FaultSpec(%q) error %q does not name the flag", tc.raw, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("FaultSpec(%q): %v", tc.raw, err)
			continue
		}
		if spec.Enabled() != tc.enabled {
			t.Errorf("FaultSpec(%q).Enabled() = %v, want %v", tc.raw, spec.Enabled(), tc.enabled)
		}
	}
	// A parsed spec must survive the flag round trip: rendering it back
	// into -faults form and re-parsing yields the same spec.
	f := &telemetryFlags{Faults: "rate=0.25,msr-write=0.5,seed=11,retries=3"}
	spec, err := f.faultSpec()
	if err != nil {
		t.Fatal(err)
	}
	again, err := faultinj.ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if again.String() != spec.String() {
		t.Errorf("flag round trip drifted: %q -> %q", spec.String(), again.String())
	}
}

func TestValidateMetricsFormat(t *testing.T) {
	for _, format := range []string{FormatText, FormatJSON, FormatProm} {
		f := &telemetryFlags{MetricsFormat: format}
		if err := f.validate(); err != nil {
			t.Errorf("Validate rejected -metrics-format=%s: %v", format, err)
		}
	}
	for _, format := range []string{"yaml", "TEXT", "openmetrics", ""} {
		f := &telemetryFlags{MetricsFormat: format}
		err := f.validate()
		if err == nil {
			t.Errorf("Validate accepted -metrics-format=%q", format)
			continue
		}
		if !strings.Contains(err.Error(), "-metrics-format") {
			t.Errorf("Validate(%q) error %q does not name the flag", format, err)
		}
	}
}

func TestSinkConstruction(t *testing.T) {
	if s := (&telemetryFlags{}).sink(nil); s != nil {
		t.Errorf("all-off flags built a sink: %+v", s)
	}
	// -serve alone needs a sink for the server to expose, with a tracer so
	// /trace has content and a flight recorder by default. It must NOT
	// force-arm the profiler: attribution counters are the largest
	// per-trial payload on the executor wire, so /profilez data is opt-in
	// via -profile-report.
	s := (&telemetryFlags{ServeAddr: ":0", FlightRec: true}).sink(nil)
	if s == nil || s.Metrics == nil || s.Trace == nil || s.Flight == nil {
		t.Fatalf("-serve sink incomplete: %+v", s)
	}
	if s.Profiled() {
		t.Error("-serve sink force-arms the profiler; federation pays for attribution counters nobody asked for")
	}
	// -flightrec=false strips the recorder but keeps the rest.
	s = (&telemetryFlags{Metrics: true}).sink(nil)
	if s == nil || s.Flight != nil {
		t.Errorf("-flightrec=false sink still carries a recorder: %+v", s)
	}
	// -metrics alone must not pay for attribution counters.
	if s.Profiled() {
		t.Error("-metrics sink profiles without -profile-report or -serve")
	}
	// -profile-report alone is enough to get a (profiling) sink.
	s = (&telemetryFlags{ProfileReport: 10}).sink(nil)
	if s == nil || s.Metrics == nil || !s.Profiled() {
		t.Errorf("-profile-report sink incomplete or unprofiled: %+v", s)
	}
}

func TestValidateProfileReport(t *testing.T) {
	for _, k := range []int{0, 1, 25} {
		f := &telemetryFlags{MetricsFormat: FormatText, ProfileReport: k}
		if err := f.validate(); err != nil {
			t.Errorf("Validate rejected -profile-report=%d: %v", k, err)
		}
	}
	for _, k := range []int{-1, -20} {
		f := &telemetryFlags{MetricsFormat: FormatText, ProfileReport: k}
		err := f.validate()
		if err == nil {
			t.Errorf("Validate accepted -profile-report=%d", k)
			continue
		}
		if !strings.Contains(err.Error(), "-profile-report") {
			t.Errorf("Validate(%d) error %q does not name the flag", k, err)
		}
	}
}

// TestFinishProfileReport: Finish renders the hot-spot report from the
// run's registry, truncated to the requested top-K.
func TestFinishProfileReport(t *testing.T) {
	f := &telemetryFlags{MetricsFormat: FormatText, ProfileReport: 1}
	s := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
	s.Counter("vm.cycles").Add(100)
	s.Counter("prof.op.add.count").Add(5)
	s.Counter("prof.op.add.cycles").Add(70)
	s.Counter("prof.op.jmp.count").Add(2)
	s.Counter("prof.op.jmp.cycles").Add(30)
	var out strings.Builder
	if err := f.finish(s, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "cost attribution: hot-spot report (top 1)") {
		t.Errorf("Finish did not render the report: %q", got)
	}
	if !strings.Contains(got, "add") || !strings.Contains(got, "... 1 more") {
		t.Errorf("report not truncated to top 1: %q", got)
	}
	// Without -profile-report the report never renders, even on a
	// profiling sink (e.g. -serve).
	var quiet strings.Builder
	if err := (&telemetryFlags{MetricsFormat: FormatText}).finish(s, &quiet); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "cost attribution") {
		t.Errorf("report rendered without -profile-report: %q", quiet.String())
	}
}

func TestStartAndFinishServe(t *testing.T) {
	f := &telemetryFlags{ServeAddr: "127.0.0.1:0", FlightRec: true, MetricsFormat: FormatText}
	s := f.sink(nil)
	var announce strings.Builder
	if err := f.start(s, &announce); err != nil {
		t.Fatal(err)
	}
	addr := f.server.Addr()
	if addr == "" || !strings.Contains(announce.String(), addr) {
		t.Fatalf("Start announced %q, ServerAddr=%q", announce.String(), addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasSuffix(string(body), "# EOF\n") {
		t.Errorf("GET /metrics = %d %q", resp.StatusCode, body)
	}
	var out strings.Builder
	if err := f.finish(s, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after Finish")
	}
}

func TestFinishMetricsFormats(t *testing.T) {
	render := func(format string) string {
		f := &telemetryFlags{Metrics: true, MetricsFormat: format}
		s := &obs.Sink{Metrics: obs.NewRegistry()}
		s.Counter("vm.runs").Add(2)
		var out strings.Builder
		if err := f.finish(s, &out); err != nil {
			t.Fatalf("Finish(%s): %v", format, err)
		}
		return out.String()
	}
	if got := render(FormatJSON); !strings.HasPrefix(got, "{") || !strings.Contains(got, "vm.runs") {
		t.Errorf("json format rendered %q", got)
	}
	if got := render(FormatProm); !strings.Contains(got, "vm_runs_total 2") || !strings.HasSuffix(got, "# EOF\n") {
		t.Errorf("prom format rendered %q", got)
	}
	if got := render(FormatText); !strings.Contains(got, "vm.runs") {
		t.Errorf("text format rendered %q", got)
	}
}

func TestFleetFlagsValidate(t *testing.T) {
	good := []FleetFlags{
		{Shards: 1, Clients: 1, Batch: 1, Retries: 0},
		{Shards: 16, Clients: 4, Batch: 64, Retries: 5},
		{Shards: 4096, Clients: 100, Batch: 1000, Retries: 20},
	}
	for _, f := range good {
		if err := f.validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	bad := []struct {
		f    FleetFlags
		flag string
	}{
		{FleetFlags{Shards: 0, Clients: 1, Batch: 1}, "-fleet-shards"},
		{FleetFlags{Shards: 4097, Clients: 1, Batch: 1}, "-fleet-shards"},
		{FleetFlags{Shards: 1, Clients: 0, Batch: 1}, "-fleet-clients"},
		{FleetFlags{Shards: 1, Clients: 1, Batch: 0}, "-fleet-batch"},
		{FleetFlags{Shards: 1, Clients: 1, Batch: -3}, "-fleet-batch"},
		{FleetFlags{Shards: 1, Clients: 1, Batch: 1, Retries: -1}, "-fleet-retries"},
	}
	for _, c := range bad {
		err := c.f.validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted a malformed value", c.f)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("Validate(%+v) error %q does not name %s", c.f, err, c.flag)
		}
	}
}

func TestRankerFlagValidate(t *testing.T) {
	for _, r := range core.Rankers() {
		f := rankerFlag{Name: r.String()}
		if err := f.validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", f.Name, err)
		}
		if got := f.ranker(); got != r {
			t.Errorf("Ranker(%q) = %v, want %v", f.Name, got, r)
		}
	}
	for _, bad := range []string{"", "CBI", "ochiai ", "jaccard"} {
		f := rankerFlag{Name: bad}
		if err := f.validate(); err == nil {
			t.Errorf("Validate(%q) accepted an unknown ranker", bad)
		}
	}
}

// TestCheckValidatesEveryGroup: one check covers telemetry, -faults,
// -jobs, -ranker, exec and fleet, then the binary's own checks in order.
func TestCheckValidatesEveryGroup(t *testing.T) {
	valid := func() *CLI {
		return &CLI{
			tel:    &telemetryFlags{MetricsFormat: FormatText, Faults: "rate=0.01"},
			ranker: &rankerFlag{Name: "ochiai"},
			exec:   &ExecFlags{Executor: ExecInproc},
			fleet:  &FleetFlags{Shards: 1, Clients: 1, Batch: 1},
		}
	}
	c := valid()
	if err := c.check(nil); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if !c.faults.Enabled() {
		t.Error("check did not keep the parsed -faults spec")
	}
	bad := []struct {
		flag    string
		breakIt func(c *CLI)
	}{
		{"-metrics-format", func(c *CLI) { c.tel.MetricsFormat = "yaml" }},
		{"-faults", func(c *CLI) { c.tel.Faults = "rate=2" }},
		{"-jobs", func(c *CLI) { c.jobs = -1 }},
		{"ranker", func(c *CLI) { c.ranker.Name = "bogus" }},
		{"-executor", func(c *CLI) { c.exec.Executor = "bogus" }},
		{"-fleet-shards", func(c *CLI) { c.fleet.Shards = 0 }},
	}
	for _, b := range bad {
		c := valid()
		b.breakIt(c)
		if err := c.check(nil); err == nil || !strings.Contains(err.Error(), b.flag) {
			t.Errorf("breaking %s: check = %v", b.flag, err)
		}
	}
	own := Require(false, "-x must be %d", 3)
	if err := valid().check([]error{nil, own}); err != own {
		t.Errorf("own check: got %v, want %v", err, own)
	}
	if Require(true, "unused") != nil {
		t.Error("Require(true) returned an error")
	}
	if err := Require(false, "%w", flag.ErrHelp); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("usage request lost flag.ErrHelp: %v", err)
	}
}

// TestRunFlushesFailingRun: a run whose body fails still writes its trace
// and metrics, stops -serve and closes the executor and store, exactly
// once.
func TestRunFlushesFailingRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	var stderr strings.Builder
	c := &CLI{
		tel: &telemetryFlags{TracePath: tracePath, Metrics: true, MetricsFormat: FormatText,
			ServeAddr: "127.0.0.1:0", FlightRec: true},
		exec:   &ExecFlags{Executor: ExecInproc, Resume: filepath.Join(dir, "store")},
		seed:   7,
		stderr: &stderr,
	}
	if err := c.check(nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var cfg harness.Config
	err := c.run(harness.Config{FailRuns: 3}, func(got harness.Config) error {
		cfg = got
		got.Obs.Counter("vm.runs").Add(5)
		return boom
	})
	if err != boom {
		t.Fatalf("run = %v, want the body's error", err)
	}
	if cfg.FailRuns != 3 || cfg.Seed != 7 || cfg.Obs == nil || cfg.Artifacts == nil {
		t.Fatalf("body got an incomplete config: %+v", cfg)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil || !json.Valid(data) {
		t.Fatalf("failing run left no valid trace: %v", err)
	}
	out := stderr.String()
	if !strings.Contains(out, "telemetry: run id ") {
		t.Errorf("no run id announced: %q", out)
	}
	if i, j := strings.Index(out, "boom"), strings.Index(out, "trace: "); i < 0 || j < i {
		t.Errorf("error not printed before the trace line: %q", out)
	}
	if !strings.Contains(out, "vm.runs") {
		t.Errorf("failing run printed no metrics: %q", out)
	}
	if _, err := http.Get("http://" + c.tel.server.Addr() + "/metrics"); err == nil {
		t.Error("-serve still answering after a failing run")
	}
	if err := cfg.Artifacts.Put("s", 0, "k", []byte("x")); err == nil {
		t.Error("artifact store still open after a failing run")
	}
	// Close runs once: a second close writes nothing.
	os.Remove(tracePath)
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tracePath); err == nil {
		t.Error("second close rewrote the trace")
	}
	if n := strings.Count(stderr.String(), "trace: "); n != 1 {
		t.Errorf("trace announced %d times, want 1", n)
	}
}

// TestRunFlushesPanickingRun: a panicking body still gets its trace.
func TestRunFlushesPanickingRun(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.json")
	c := &CLI{tel: &telemetryFlags{TracePath: tracePath, MetricsFormat: FormatText}, stderr: io.Discard}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed")
			}
		}()
		c.run(harness.Config{}, func(harness.Config) error { panic("boom") }) //nolint:errcheck
	}()
	if data, err := os.ReadFile(tracePath); err != nil || !json.Valid(data) {
		t.Fatalf("panicking run left no valid trace: %v", err)
	}
}
