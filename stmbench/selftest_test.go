package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload at its tiny size, untraced and traced,
// and checks that each named metric of BENCHMARK.json is emitted with its
// unit, that layers.json covers exactly the per-layer metrics, and that a
// corrupted reference digest or fleet oracle drives the error rate above
// zero. Run it from this directory with `go test`.

// TestMain lets the test binary serve as its own set-up child, as the
// stmbench program does.
func TestMain(m *testing.M) {
	if size := os.Getenv(setupChildEnv); size != "" {
		os.Exit(setupChild(os.Args[1:], size))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildBins builds the binaries the workloads start.
func buildBins(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "stmdiag/cmd/fleetd", "stmdiag/cmd/trialworker")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return dir
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// figures are the per-workload names printed for people above the result
// line, each with its unit.
var figures = map[string]map[string]string{
	"batch": {"error_rate": "ratio", "setup_s": "s", "diagnoses_per_s": "1/s", "trials_per_s": "1/s",
		"sim_mips": "instr/us", "cpu_s": "s", "alloc_kb_per_trial": "KiB", "peak_rss_mb": "MB", "diag_accuracy": "ratio"},
	"fleet-ingest": {"error_rate": "ratio", "setup_s": "s", "ingest_p50_ms": "ms", "ingest_p99_ms": "ms",
		"report_p50_ms": "ms", "report_p90_ms": "ms", "sustained_profiles_per_s": "1/s", "cpu_s": "s",
		"peak_rss_mb": "MB", "diag_accuracy": "ratio", "loadgen.cpu_s": "s", "loadgen.peak_rss_mb": "MB",
		"loadgen.lag_p99_ms": "ms", "loadgen.backlog_max": "count"},
}

// printed parses the "name value unit" lines above the result line.
func printed(out string) map[string]string {
	got := map[string]string{}
	for _, ln := range strings.Split(out, "\n") {
		if f := strings.Fields(ln); len(f) == 3 {
			got[f[0]] = f[2]
		}
	}
	return got
}

// runTiny runs one workload at the self-test size and returns its exit code,
// its parsed result line and the figures printed above it.
func runTiny(t *testing.T, bin, workload string, traced bool, mutate func(*options)) (int, result, map[string]string) {
	t.Helper()
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	o := &options{workload: workload, seed: defaultSeed, seconds: time.Second, traced: traced,
		tiny: true, root: root, bin: bin, jobs: runtime.NumCPU(), refs: refs}
	if mutate != nil {
		mutate(o)
	}
	f, err := os.Create(filepath.Join(root, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	code := execute(o, workloads[workload], f)
	f.Close()
	b, err := os.ReadFile(filepath.Join(root, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, b)
	}
	return code, r, printed(string(b))
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	bin := buildBins(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			code, r, figs := runTiny(t, bin, w.Name, traced, nil)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%t: exit %d, correct %t, %d/%d failed", w.Name, traced, code, r.Correct, r.Failed, r.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v (present %t), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			want2 := figures["batch"]
			if w.Name == "fleet-ingest" {
				want2 = figures[w.Name]
			}
			for name, unit := range want2 {
				if figs[name] != unit {
					t.Errorf("%s traced=%t: printed figure %s has unit %q, want %q", w.Name, traced, name, figs[name], unit)
				}
			}
		}
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	bin := buildBins(t)
	for _, w := range []string{"seq-lbr", "conc-lcr-durable", "corpus-rank"} {
		code, r, _ := runTiny(t, bin, w, false, func(o *options) {
			refs := map[string]string{}
			for k, v := range o.refs {
				refs[k] = v
			}
			refs[o.refKey()] = strings.Repeat("0", 64)
			o.refs = refs
		})
		if code == 0 || r.Correct || r.Failed == 0 {
			t.Errorf("%s with a corrupted reference: exit %d, correct %t, failed %d; want a failure", w, code, r.Correct, r.Failed)
		}
	}
	code, r, _ := runTiny(t, bin, "fleet-ingest", false, func(o *options) { o.corruptOracle = true })
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Errorf("fleet-ingest with a corrupted oracle: exit %d, correct %t, failed %d; want a failure", code, r.Correct, r.Failed)
	}
}

func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	spec := loadSpec(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers []struct {
			Metric string   `json:"metric"`
			Moves  []string `json:"moves"`
			NoMove []string `json:"no_move"`
			Also   []string `json:"also"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &lm); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range spec.PerLayer {
		names[m.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range spec.Workloads {
		wl[w.Name] = true
	}
	seen := map[string]bool{}
	for _, l := range lm.Layers {
		if !names[l.Metric] {
			t.Errorf("layers.json names %s, which BENCHMARK.json does not list", l.Metric)
		}
		seen[l.Metric] = true
		for _, p := range append(append([]string(nil), l.Moves...), l.NoMove...) {
			metric, workload, ok := strings.Cut(p, "@")
			if !ok || !e2e[metric] || !wl[workload] {
				t.Errorf("%s: prediction %q names no end-to-end metric@workload", l.Metric, p)
			}
		}
		for _, p := range l.Also {
			if _, workload, ok := strings.Cut(p, "@"); !ok || !wl[workload] {
				t.Errorf("%s: figure %q names no figure@workload", l.Metric, p)
			}
		}
	}
	for n := range names {
		if !seen[n] {
			t.Errorf("per-layer metric %s has no entry in layers.json", n)
		}
	}
}
