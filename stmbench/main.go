// Command stmbench is stmdiag's benchmark. It drives the program from the
// outside, through harness.RunSequential, harness.RunConcurrent,
// harness.Table9 and the cmd/fleetd HTTP API, on one of four workloads, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as one JSON line. See README.md for the workloads, the metrics and the
// layer each metric belongs to.
//
//	python3 stmbench/run.py --workload seq-lbr --seed 1 --seconds 15 --trace 0
//
// run.py builds this program and the binaries it starts; run it directly
// only with --bin pointing at a directory holding fleetd and trialworker.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"stmdiag/internal/obs"
)

// defaultSeed is the seed the committed reference digests were taken at.
const defaultSeed = 1

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tiny     bool   // self-test sizes
	root     string // checkout root
	bin      string // directory holding fleetd and trialworker
	work     string // scratch directory for stores, removed at exit
	jobs     int
	// refs are the reference digests by refKey; a workload whose key is
	// present must reproduce it.
	refs map[string]string
	// corruptOracle makes the fleet oracle expect different bytes (self-test
	// only).
	corruptOracle bool
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	invalid           string // non-empty: the run could not offer its load
	e2e, layer        *metrics
	info              *metrics // per-workload figures printed for people
	executor          string
	digest            string // rendered output's digest (batch workloads)
	spans             *spanLog
}

// batches maps each batch workload to its description.
var batches = map[string]func(*options) batch{
	"seq-lbr":          seqBatch,
	"conc-lcr-durable": concBatch,
	"corpus-rank":      corpusBatch,
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*options) (*outcome, error){
	"seq-lbr":          func(o *options) (*outcome, error) { return runBatch(o, seqBatch(o)) },
	"conc-lcr-durable": func(o *options) (*outcome, error) { return runBatch(o, concBatch(o)) },
	"corpus-rank":      func(o *options) (*outcome, error) { return runBatch(o, corpusBatch(o)) },
	"fleet-ingest":     runFleet,
}

func main() {
	if size := os.Getenv(setupChildEnv); size != "" {
		os.Exit(setupChild(os.Args[1:], size))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "usage: stmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bin <dir>")
		os.Exit(2)
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	o.refs = refs
	os.Exit(execute(o, workloads[o.workload], os.Stdout))
}

// parseFlags reads a command line into options.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	var secs, trace int
	fs := flag.NewFlagSet("stmbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: seq-lbr, conc-lcr-durable, corpus-rank or fleet-ingest")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&secs, "seconds", 15, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	fs.StringVar(&o.bin, "bin", "", "directory holding the fleetd and trialworker binaries")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if workloads[o.workload] == nil || secs < 1 || (trace != 0 && trace != 1) || o.bin == "" {
		return nil, errors.New("bad arguments")
	}
	o.seconds = time.Duration(secs) * time.Second
	o.traced = trace == 1
	o.jobs = runtime.NumCPU()
	return o, nil
}

// setupChildEnv, when set (to "full" or "tiny", the parent's size), makes
// the process a set-up child: it makes one cold start of its workload (see
// setupOnce), prints "ready", tears the set-up down and exits. Timing
// set-ups in fresh processes makes every one cold: process start, package
// initialisation, app load and the first builds.
const setupChildEnv = "STMBENCH_SETUP_CHILD"

// setupChild is a set-up child's main; it returns the exit code.
func setupChild(args []string, size string) int {
	o, err := parseFlags(args)
	if err == nil {
		o.tiny = size == "tiny"
		err = withWorkDir(o, func() error {
			teardown, err := setupOnce(o)
			if err != nil {
				return err
			}
			defer teardown()
			_, err = fmt.Println("ready")
			return err
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench: set-up child:", err)
		return 1
	}
	return 0
}

// setupOnce makes a cold start: it sets the workload up and, on a batch
// workload, runs a sweep's first row, inside which the program builds what
// its rows share. It returns the function that tears the set-up down.
func setupOnce(o *options) (teardown func(), err error) {
	if o.workload == "fleet-ingest" {
		srv, _, err := setupFleet(o, &obs.Sink{Metrics: obs.NewRegistry()}, nil)
		if err != nil {
			return nil, err
		}
		return srv.stop, nil
	}
	b := batches[o.workload](o)
	if err := b.setup(obs.NewRegistry()); err != nil {
		return nil, err
	}
	if err := b.first(); err != nil {
		b.close()
		return nil, err
	}
	return b.close, nil
}

// timeSetups makes reps cold starts, each in a fresh set-up child, and
// returns how long each took from the child's start until it was ready.
func timeSetups(o *options, reps int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", "1", "--trace", "0", "--root", o.root, "--bin", o.bin}
	var out []float64
	for i := 0; i < reps; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), setupChildEnv+"="+size)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		io.Copy(io.Discard, stdout) //nolint:errcheck // drained so the child can exit
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up child %d failed: %v", i+1, errors.Join(rerr, werr))
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// withWorkDir runs fn with o.work set to a fresh scratch directory under
// .bench_build, removed afterwards.
func withWorkDir(o *options, fn func() error) error {
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "work-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work
	return fn()
}

// execute runs one workload and prints its report; it returns the exit
// code.
func execute(o *options, run func(*options) (*outcome, error), w *os.File) int {
	var out *outcome
	err := withWorkDir(o, func() (err error) {
		out, err = run(o)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", o.workload+":", err)
		return 1
	}
	if out.invalid != "" {
		fmt.Fprintln(os.Stderr, "stmbench: run invalid, not reported:", out.invalid)
		return 3
	}
	ctx := runContext(o, out.executor)
	cb, _ := json.Marshal(ctx) // a map of strings and numbers always encodes
	fmt.Fprintf(w, "context %s\n", cb)
	if out.digest != "" {
		fmt.Fprintf(w, "digest %s %s\n", o.refKey(), out.digest)
	}
	errRate := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "%-34s %14.6g %s\n", "error_rate", errRate, "ratio")
	for _, n := range out.info.names {
		m := out.info.vals[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if out.spans != nil {
		self := out.spans.selfTimes()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "%-34s %14.6g ms\n", "self_time."+l, float64(self[l])/1e6)
		}
		path := filepath.Join(o.root, ".bench_build", "out",
			fmt.Sprintf("%s-seed%d-trace.json", o.workload, o.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench: write trace:", err)
		} else {
			fmt.Fprintf(w, "trace written to %s\n", path)
		}
	}
	ms := out.e2e
	if o.traced {
		ms = out.layer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms.vals}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// runContext records what the numbers were taken on, so figures from
// machines of different sizes are never compared blind.
func runContext(o *options, executor string) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       o.seed,
		"jobs":       o.jobs,
		"executor":   executor,
		"commit":     commitOf(o.root),
		"seconds":    o.seconds.Seconds(),
		"traced":     o.traced,
	}
}

// commitOf names the source the benchmark ran against: the git HEAD when
// the checkout is a repository, otherwise a digest of its Go sources.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path[len(root):], len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// errIncorrect marks a wrong output; it is counted, not fatal.
var errIncorrect = errors.New("output differs from the reference")

// digest hashes a rendered output.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// refKey names a reference digest: workload, size and seed.
func (o *options) refKey() string {
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	return fmt.Sprintf("%s/%s/seed%d", o.workload, size, o.seed)
}

// checkDigest compares an operation's output digest with the stored
// reference for this seed, or else with the first operation's digest.
func (o *options) checkDigest(first *string, got string) error {
	if want, ok := o.refs[o.refKey()]; ok && got != want {
		return fmt.Errorf("%w: digest %.12s, reference %.12s", errIncorrect, got, want)
	}
	if *first == "" {
		*first = got
		return nil
	}
	if got != *first {
		return fmt.Errorf("%w: digest %.12s, first operation %.12s", errIncorrect, got, *first)
	}
	return nil
}
