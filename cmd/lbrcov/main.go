// Command lbrcov computes THeME-style branch coverage (paper §8 related
// work): it runs a benchmark or a synthetic program while draining the LBR
// every -period retired instructions, and reports the coverage recovered
// and the sampling cost — demonstrating why coverage needs whole-run
// profiling while failure diagnosis does not.
//
// Usage:
//
//	lbrcov -app sort [-period N] [-periods N,N,...] [-seed N] [-jobs N]
//	       [-faults spec] [-trace out.json] [-metrics] [-metrics-format f] [-v]
//	       [-serve addr] [-serve-addr-file f] [-flightrec] [-profile-report K]
//	lbrcov -synth [-funcs N] [-stmts N] [-period N] [same flags]
//
// -periods sweeps several sampling periods in one invocation; the
// measurements fan out across -jobs workers (default NumCPU) and print in
// period order regardless of the worker count.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"stmdiag/internal/apps"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
	"stmdiag/internal/synth"
)

func main() {
	cli := cliobs.New()
	app := flag.String("app", "", "benchmark to cover (success workload)")
	useSynth := flag.Bool("synth", false, "cover a generated synthetic program instead")
	funcs := flag.Int("funcs", 12, "synthetic program functions")
	stmts := flag.Int("stmts", 40, "synthetic statements per function")
	period := flag.Int("period", 500, "steps between LBR drains")
	periodList := flag.String("periods", "", "comma-separated periods to sweep (overrides -period)")
	cli.Seed(1, "seed")
	cli.Jobs("sweep workers (0 = NumCPU, 1 = sequential)")
	flag.Parse()
	periods, perr := parsePeriods(*period, *periodList)
	cli.Check(
		cliobs.Require(!*useSynth || *app == "", "-synth and -app are mutually exclusive"),
		cliobs.Require(*useSynth || *app != "", "%w", flag.ErrHelp),
		perr,
	)

	cli.Run(harness.Config{}, func(cfg harness.Config) error {
		src := harness.CoverageSource{App: *app, Seed: cfg.Seed}
		if *useSynth {
			src = harness.CoverageSource{Seed: cfg.Seed, Synth: &synth.Config{
				Seed: cfg.Seed, Funcs: *funcs, StmtsPerFunc: *stmts,
			}}
		} else if apps.ByName(*app) == nil {
			return fmt.Errorf("unknown benchmark %q", *app)
		}
		prog, _, err := src.Program()
		if err != nil {
			return err
		}
		results, err := harness.CoverageSweep(src, periods, cfg.Pool())
		if err != nil {
			return err
		}
		fmt.Printf("program:           %s (%d instructions, %d source branches)\n",
			prog.Name, len(prog.Instrs), len(prog.Branches))
		for i, res := range results {
			fmt.Printf("sampling period:   every %d steps (%d drains)\n", periods[i], res.Samples)
			fmt.Printf("edges executed:    %d\n", res.ExecutedEdges)
			fmt.Printf("edges recovered:   %d (%.1f%% coverage)\n", res.CoveredEdges, 100*res.Coverage)
			fmt.Printf("sampling overhead: %.1f%%\n", 100*res.Overhead)
		}
		return nil
	})
}

// parsePeriods returns the sampling periods to sweep: the -periods list
// when given, else the single -period.
func parsePeriods(period int, list string) ([]int, error) {
	if list == "" {
		return []int{period}, nil
	}
	var periods []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -periods entry %q", f)
		}
		periods = append(periods, n)
	}
	return periods, nil
}
