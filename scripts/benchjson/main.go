// Command benchjson records the repository's wall-clock benchmarks. It runs
// one fixed list of Go benchmarks, repeated, and writes each figure as a
// median with its interquartile range to BENCH_vm.json and
// BENCH_harness.json:
//
//	go run ./scripts/benchjson          # make bench: full run, rewrites the committed files
//	go run ./scripts/benchjson -smoke   # make bench-smoke: short run, writes under $TMPDIR
//
// It judges no change against an earlier record: deterministic costs
// (allocations, wire bytes, VM cycles) are gated exactly by go test, and a
// speed claim needs parent and change samples interleaved on one machine
// (stmbench), which a spread committed from an earlier run is not. A full
// run fails if a median misses one of the floors below. Run it from the
// repository root.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// count is how many samples each benchmark contributes.
const count = 7

// packages holds every package with a recorded benchmark.
var packages = []string{".", "./internal/harness", "./internal/fleet", "./internal/synth", "./internal/artifact", "./internal/spectrum"}

// metric is one recorded figure: a benchmark's value in one unit. A ratio
// metric divides each sample of bench by the same-numbered sample of over.
// go test takes all samples of one benchmark before the next, so such pairs
// are seconds apart; a gated ratio is measured inside one benchmark instead.
type metric struct {
	file, key   string
	bench, unit string
	over        string
}

var metrics = []metric{
	{file: "vm", key: "instrs_per_sec", bench: "BenchmarkVMTrial", unit: "instrs/sec"},
	{file: "vm", key: "ns_per_trial", bench: "BenchmarkVMTrial", unit: "ns/op"},
	{file: "vm", key: "bytes_per_trial", bench: "BenchmarkVMTrial", unit: "B/op"},
	{file: "vm", key: "allocs_per_trial", bench: "BenchmarkVMTrial", unit: "allocs/op"},
	{file: "vm", key: "profiled_ns_per_trial", bench: "BenchmarkVMTrialProfiled", unit: "ns/op"},
	{file: "vm", key: "profiled_allocs_per_trial", bench: "BenchmarkVMTrialProfiled", unit: "allocs/op"},
	{file: "vm", key: "cache_access_ns", bench: "BenchmarkCacheAccess", unit: "ns/op"},
	{file: "vm", key: "lbr_record_ns", bench: "BenchmarkLBRRecord", unit: "ns/op"},

	{file: "harness", key: "table7_jobs1_ns", bench: "BenchmarkTable7Concurrency/jobs=1", unit: "ns/op"},
	{file: "harness", key: "table7_jobs2_ns", bench: "BenchmarkTable7Concurrency/jobs=2", unit: "ns/op"},
	{file: "harness", key: "table7_jobs4_ns", bench: "BenchmarkTable7Concurrency/jobs=4", unit: "ns/op"},
	{file: "harness", key: "table7_subprocess_run_ns", bench: "BenchmarkTable7Served", unit: "sub-ns/run"},
	{file: "harness", key: "table7_served_run_ns", bench: "BenchmarkTable7Served", unit: "served-ns/run"},
	{file: "harness", key: "federation_overhead_ratio", bench: "BenchmarkTable7Served", unit: "served/sub"},
	{file: "harness", key: "trial_profile_inproc_ns", bench: "BenchmarkTrial/profile/inproc", unit: "ns/op"},
	{file: "harness", key: "trial_profile_subprocess_ns", bench: "BenchmarkTrial/profile/subprocess", unit: "ns/op"},
	{file: "harness", key: "trial_profile_federated_ns", bench: "BenchmarkTrial/profile/federated", unit: "ns/op"},
	{file: "harness", key: "trial_federation_ratio", bench: "BenchmarkTrial/profile/federated", unit: "ns/op", over: "BenchmarkTrial/profile/subprocess"},
	{file: "harness", key: "trial_empty_inproc_ns", bench: "BenchmarkTrial/empty/inproc", unit: "ns/op"},
	{file: "harness", key: "trial_empty_subprocess_ns", bench: "BenchmarkTrial/empty/subprocess", unit: "ns/op"},
	{file: "harness", key: "fleet_ingest_profiles_per_sec", bench: "BenchmarkFleetIngest", unit: "profiles/sec"},
	{file: "harness", key: "fleet_shard_wait_ns_per_batch", bench: "BenchmarkFleetIngest", unit: "shard-wait-ns/op"},
	{file: "harness", key: "synth_programs_per_sec", bench: "BenchmarkSynthBug", unit: "programs/sec"},
	{file: "harness", key: "artifact_commit_trials_per_sec", bench: "BenchmarkArtifactCommit", unit: "trials/sec"},
	{file: "harness", key: "artifact_replay_recs_per_sec", bench: "BenchmarkArtifactResume", unit: "replay-recs/sec"},
	{file: "harness", key: "rank_cbi_ns_per_op", bench: "BenchmarkSpectrumRank/cbi", unit: "ns/op"},
	{file: "harness", key: "rank_ochiai_ns_per_op", bench: "BenchmarkSpectrumRank/ochiai", unit: "ns/op"},
	{file: "harness", key: "rank_tarantula_ns_per_op", bench: "BenchmarkSpectrumRank/tarantula", unit: "ns/op"},
}

// floors are the acceptance bounds a full run holds the medians to.
var floors = []struct {
	key      string
	min, max float64
}{
	// The fleet aggregator sustains 10k profile submissions/sec end to end
	// (HTTP + gzip + sharded merge).
	{key: "fleet_ingest_profiles_per_sec", min: 10000},
	// Generating a corpus program stays cheap next to running it.
	{key: "synth_programs_per_sec", min: 1000},
	// A served run (-serve federating every worker's telemetry over the
	// trial wire) costs at most 25% over the same run with telemetry off.
	{key: "federation_overhead_ratio", max: 1.25},
}

// stat is one recorded figure.
type stat struct {
	Median  float64    `json:"median"`
	IQR     [2]float64 `json:"iqr"`
	Samples int        `json:"samples"`
}

func main() {
	smoke := flag.Bool("smoke", false, "short run that writes under $TMPDIR and judges no floors")
	flag.Parse()
	if err := run(*smoke, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(smoke bool, w io.Writer) error {
	benchtime := "1s"
	if smoke {
		benchtime = "20ms"
	}
	args := []string{"test", "-run", "^$", "-bench", benchRegexp(), "-benchmem",
		"-count", strconv.Itoa(count), "-benchtime", benchtime}
	cmd := exec.Command("go", append(args, packages...)...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	samples, err := parse(&out)
	if err != nil {
		return err
	}
	stats, err := record(metrics, samples)
	if err != nil {
		return err
	}
	cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	desc := "go " + strings.Join(append(args, packages...), " ")
	for _, file := range []string{"vm", "harness"} {
		name := "BENCH_" + file + ".json"
		doc := map[string]any{"bench": desc, "cpus": cpus, "gomaxprocs": procs}
		for _, m := range metrics {
			if m.file == file {
				doc[m.key] = stats[m.key]
			}
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		path := name
		if smoke {
			path = filepath.Join(os.TempDir(), "stmdiag-bench-"+file+".json")
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "benchjson: wrote %s\n", path)
	}
	if smoke {
		return nil
	}
	var missed []string
	for _, f := range floors {
		m := stats[f.key].Median
		bound := fmt.Sprintf("%s median %g (min %g, max %g; 0 is none)", f.key, m, f.min, f.max)
		fmt.Fprintln(w, "benchjson:", bound)
		if (f.min != 0 && m < f.min) || (f.max != 0 && m > f.max) {
			missed = append(missed, bound+" misses its bound")
		}
	}
	if len(missed) > 0 {
		return errors.New(strings.Join(missed, "; "))
	}
	return nil
}

// benchRegexp selects the recorded top-level benchmarks; each one's
// sub-benchmarks all run.
func benchRegexp() string {
	seen := map[string]bool{}
	var tops []string
	for _, m := range metrics {
		top, _, _ := strings.Cut(m.bench, "/")
		if !seen[top] {
			seen[top] = true
			tops = append(tops, top)
		}
	}
	return "^(" + strings.Join(tops, "|") + ")$"
}

// procSuffix is the -GOMAXPROCS suffix go test appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads go test -bench output into samples by benchmark name (the
// GOMAXPROCS suffix dropped) and unit, in output order.
func parse(r io.Reader) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result line
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		if out[name] == nil {
			out[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: value %q: %w", f[0], f[i], err)
			}
			out[name][f[i+1]] = append(out[name][f[i+1]], v)
		}
	}
	return out, sc.Err()
}

// record reduces the samples of each metric in ms to a stat. A benchmark or
// unit missing from the output is an error, never a zero.
func record(ms []metric, samples map[string]map[string][]float64) (map[string]stat, error) {
	get := func(bench, unit string) ([]float64, error) {
		vs := samples[bench][unit]
		if len(vs) == 0 {
			return nil, fmt.Errorf("no %s samples for %s in the benchmark output", unit, bench)
		}
		return vs, nil
	}
	out := map[string]stat{}
	for _, m := range ms {
		vs, err := get(m.bench, m.unit)
		if err != nil {
			return nil, err
		}
		vs = append([]float64(nil), vs...)
		if m.over != "" {
			den, err := get(m.over, m.unit)
			if err != nil {
				return nil, err
			}
			if len(den) != len(vs) {
				return nil, fmt.Errorf("%s: %d samples over %d", m.key, len(vs), len(den))
			}
			for i := range vs {
				vs[i] /= den[i]
			}
		}
		out[m.key] = summarize(vs)
	}
	return out, nil
}

// summarize returns the median and quartiles of vs (linear interpolation
// between order statistics), rounded to three decimals.
func summarize(vs []float64) stat {
	sort.Float64s(vs)
	q := func(p float64) float64 {
		h := p * float64(len(vs)-1)
		lo := int(h)
		v := vs[lo]
		if lo+1 < len(vs) {
			v += (h - float64(lo)) * (vs[lo+1] - vs[lo])
		}
		return math.Round(v*1000) / 1000
	}
	return stat{Median: q(0.5), IQR: [2]float64{q(0.25), q(0.75)}, Samples: len(vs)}
}
