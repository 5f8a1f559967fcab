// Command stmdiag runs one benchmark of the re-authored Table 4 suite
// through the paper's diagnosis pipeline and reports what the short-term
// memory of the hardware saw.
//
// Usage:
//
//	stmdiag -list
//	stmdiag -app sort [-failruns N] [-succruns N] [-seed N]
//	        [-jobs N] [-ranker name] [-executor inproc|subprocess] [-resume dir]
//	        [-faults spec] [-trace out.json] [-metrics] [-metrics-format f] [-v]
//	        [-serve addr] [-serve-addr-file f] [-flightrec] [-profile-report K]
//	stmdiag -all [same flags]
//
// For a sequential benchmark it prints the Table 6 row (LBRLOG entry ranks
// with and without toggling, LBRA and CBI predictor ranks, patch distances,
// overheads); for a concurrency benchmark the Table 7 row (LCRLOG entry
// ranks under both configurations and LCRA's verdict).
package main

import (
	"flag"
	"fmt"

	"stmdiag/internal/apps"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
	"stmdiag/internal/source"
)

func main() {
	cli := cliobs.New()
	list := flag.Bool("list", false, "list the benchmark suite")
	all := flag.Bool("all", false, "diagnose every benchmark (summary lines)")
	app := flag.String("app", "", "benchmark to diagnose (see -list)")
	failRuns := flag.Int("failruns", 10, "failure runs for automatic diagnosis")
	succRuns := flag.Int("succruns", 10, "success runs for automatic diagnosis")
	cbiRuns := flag.Int("cbiruns", 400, "CBI baseline runs per class")
	cli.Seed(0, "base seed")
	cli.Jobs("trial-execution workers (0 = NumCPU, 1 = sequential)")
	cli.Ranker()
	cli.Exec()
	flag.Parse()
	cli.Check(
		cliobs.Require(!*all || *app == "", "-all and -app are mutually exclusive"),
		cliobs.Require(!*list || (!*all && *app == ""), "-list takes no benchmark selection"),
		cliobs.Require(*list || *all || *app != "", "%w", flag.ErrHelp),
	)

	cli.Run(harness.Config{FailRuns: *failRuns, SuccRuns: *succRuns, CBIRuns: *cbiRuns}, func(cfg harness.Config) error {
		switch {
		case *list:
			fmt.Printf("%-12s %-9s %8s  %-22s %s\n", "name", "version", "KLOC", "root cause", "symptom")
			for _, a := range apps.All() {
				fmt.Printf("%-12s %-9s %8.1f  %-22s %s\n", a.Name, a.Paper.Version, a.Paper.KLOC, a.Class, a.Symptom)
			}
			return nil
		case *all:
			for _, a := range apps.All() {
				if err := summary(a, cfg); err != nil {
					return fmt.Errorf("%s: %w", a.Name, err)
				}
			}
			return nil
		}
		a := apps.ByName(*app)
		if a == nil {
			return fmt.Errorf("unknown benchmark %q; try -list", *app)
		}
		return diagnose(a, cfg)
	})
}

// summary prints one benchmark's -all line.
func summary(a *apps.App, cfg harness.Config) error {
	if a.Class.Concurrent() {
		row, err := harness.RunConcurrent(a, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s LCRLOG conf1=%s conf2=%s LCRA=%s\n",
			a.Name, rank(row.RankConf1), rank(row.RankConf2), rank(row.LCRARank))
		return nil
	}
	row, err := harness.RunSequential(a, cfg)
	if err != nil {
		return err
	}
	star := ""
	if row.RelatedTog {
		star = "*"
	}
	fmt.Printf("%-12s LBRLOG tog=%s%s notog=%s LBRA=%s CBI=%s\n",
		a.Name, rank(row.RankTog), star, rank(row.RankNoTog),
		rank(row.LBRARank), cbiRank(row.CBIRank))
	return nil
}

// diagnose prints one benchmark's Table 6 or Table 7 row.
func diagnose(a *apps.App, cfg harness.Config) error {
	fmt.Printf("%s %s (%.1f KLOC): %s bug, symptom: %s\n\n",
		a.Name, a.Paper.Version, a.Paper.KLOC, a.Class, a.Symptom)
	if a.Class.Concurrent() {
		row, err := harness.RunConcurrent(a, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("observed failure rate:              %.2f\n", row.FailRate)
		fmt.Printf("LCRLOG, space-saving config (Conf1): %s\n", rank(row.RankConf1))
		fmt.Printf("LCRLOG, space-consuming (Conf2):     %s\n", rank(row.RankConf2))
		fmt.Printf("LCRA best-predictor rank:            %s\n", rank(row.LCRARank))
		return nil
	}
	row, err := harness.RunSequential(a, cfg)
	if err != nil {
		return err
	}
	star := ""
	if row.RelatedTog {
		star = "* (related branch; root cause itself evicted)"
	}
	fmt.Printf("LBRLOG root-cause entry, toggling on:  %s%s\n", rank(row.RankTog), star)
	fmt.Printf("LBRLOG root-cause entry, toggling off: %s\n", rank(row.RankNoTog))
	fmt.Printf("LBRA predictor rank:                   %s\n", rank(row.LBRARank))
	fmt.Printf("CBI predictor rank:                    %s\n", cbiRank(row.CBIRank))
	fmt.Printf("patch distance from failure site:      %s lines\n", dist(row.DistFailureSite))
	fmt.Printf("patch distance from LBR branches:      %s lines\n", dist(row.DistLBR))
	fmt.Printf("overhead: LBRLOG %.2f%% (toggling) / %.2f%% (no toggling), LBRA %.2f%% (reactive) / %.2f%% (proactive), CBI %.2f%%\n",
		100*row.OvLogTog, 100*row.OvLogNoTog,
		100*row.OvReactive, 100*row.OvProactive, 100*row.OvCBI)
	return nil
}

func rank(n int) string {
	if n <= 0 {
		return "missed"
	}
	return fmt.Sprintf("%d", n)
}

func cbiRank(n int) string {
	if n < 0 {
		return "N/A (C++)"
	}
	return rank(n)
}

func dist(d int) string {
	if d >= source.Infinite {
		return "inf (different file)"
	}
	return fmt.Sprintf("%d", d)
}
