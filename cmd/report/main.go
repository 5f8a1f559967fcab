// Command report produces the privacy-preserving failure-report bundle an
// end user's machine would ship to developers (paper §5.3): it runs one
// benchmark's failure workload under LBRLOG/LCRLOG instrumentation, audits
// the resulting bundle, and writes the JSON to stdout.
//
// Usage:
//
//	report -app sort [-seed N] [-jobs N] [-faults spec]
//	       [-trace out.json] [-metrics] [-metrics-format f] [-v]
//	       [-serve addr] [-serve-addr-file f] [-flightrec] [-profile-report K] > bundle.json
//
// The seed search fans out across -jobs workers (default NumCPU) and always
// reports the first failing seed at or after -seed, independent of the
// worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"stmdiag/internal/apps"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
	"stmdiag/internal/trace"
)

func main() {
	cli := cliobs.New()
	app := flag.String("app", "", "benchmark to crash and report (see stmdiag -list)")
	cli.Seed(0, "starting scheduler seed")
	cli.Jobs("seed-search workers (0 = NumCPU, 1 = sequential)")
	flag.Parse()
	cli.Check(cliobs.Require(*app != "", "%w", flag.ErrHelp))

	cli.Run(harness.Config{}, func(cfg harness.Config) error {
		a := apps.ByName(*app)
		if a == nil {
			return fmt.Errorf("unknown benchmark %q", *app)
		}
		prog, err := harness.ReportProgram(a.Name)
		if err != nil {
			return err
		}
		// The search scans seeds -seed, -seed+1, ... and keeps the first
		// failing run in seed order, whatever the worker count.
		b, idx, err := harness.FirstKind[harness.ReportBundle](cfg.Pool(), 400, a.Name+"/report", "report-bundle",
			harness.ReportParams{App: a.Name, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		if idx < 0 {
			return errors.New("no failing run within 400 seeds")
		}
		if v := trace.Audit(prog, b.Data); len(v) > 0 {
			return fmt.Errorf("privacy audit failed: %v", v)
		}
		fmt.Fprintf(os.Stderr, "failure at seed %d; bundle audited clean (%d bytes)\n", b.Seed, len(b.Data))
		os.Stdout.Write(b.Data)
		fmt.Println()
		return nil
	})
}
