// Command experiments regenerates the tables of the paper's evaluation
// section (Tables 1–7) from the re-authored benchmark suite, plus the
// repo-added Table 8 robustness sweep over the fault injectors and
// Table 9, the generated-bug-corpus ranking bake-off.
//
// Usage:
//
//	experiments [-table N] [-failruns N] [-succruns N] [-cbiruns N] [-overhead N] [-seed N]
//	            [-jobs N] [-ranker name] [-corpus] [-corpus-n N]
//	            [-executor inproc|subprocess] [-resume dir] [-worker-bin bin]
//	            [-faults spec] [-trace out.json] [-metrics] [-metrics-format f] [-v]
//	            [-serve addr] [-serve-addr-file f] [-flightrec] [-profile-report K]
//
// Without -table it regenerates every table. The defaults follow the
// paper's experiment configuration (10 failure + 10 success runs for
// LBRA/LCRA, 1000+1000 runs for CBI at 1/100 sampling); lower -cbiruns for
// a faster, noisier pass. -jobs fans independent trials across worker
// goroutines (default NumCPU; 1 forces sequential execution) — stdout is
// byte-identical for every value. -ranker swaps the diagnosis scoring
// formula (cbi, ochiai, tarantula) for the diagnosis-driving tables;
// -corpus renders only Table 9 and -corpus-n resizes its per-cell program
// count. -executor subprocess isolates trial execution in worker
// subprocesses (crash containment); -resume persists each committed trial
// into a durable artifact store and skips already-committed trials when the
// same command is re-run after a kill — stdout stays byte-identical in
// every combination. After each table a one-line summary on stderr reports
// the rows computed, app runs driven, simulated cycles and wall time; it
// exits non-zero on any table-generation error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
)

func main() {
	cli := cliobs.New()
	table := flag.Int("table", 0, fmt.Sprintf("table number 1-%d; 0 regenerates all", harness.NumTables))
	failRuns := flag.Int("failruns", 10, "failure runs per LBRA/LCRA diagnosis")
	succRuns := flag.Int("succruns", 10, "success runs per LBRA/LCRA diagnosis")
	cbiRuns := flag.Int("cbiruns", 1000, "CBI runs per class (paper default 1000)")
	overhead := flag.Int("overhead", 10, "runs averaged per overhead figure")
	cli.Seed(0, "base seed")
	cli.Jobs("trial-execution workers (0 = NumCPU, 1 = sequential)")
	corpus := flag.Bool("corpus", false, "render only Table 9, the generated-bug-corpus ranking bake-off")
	corpusN := flag.Int("corpus-n", 0, "Table 9 programs per (bug class x distance) cell (0 = default 13)")
	cli.Ranker()
	cli.Exec()
	flag.Parse()
	cli.Check(
		cliobs.Require(*corpusN >= 0, "-corpus-n must be >= 0 (0 = default), got %d", *corpusN),
		cliobs.Require(!*corpus || *table == 0, "-corpus and -table are mutually exclusive"),
		cliobs.Require(*table >= 0 && *table <= harness.NumTables,
			"-table must be 0 (all) or 1..%d, got %d", harness.NumTables, *table),
	)

	tables := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	switch {
	case *corpus:
		tables = []int{9}
	case *table != 0:
		tables = []int{*table}
	}
	cli.Run(harness.Config{
		FailRuns:      *failRuns,
		SuccRuns:      *succRuns,
		CBIRuns:       *cbiRuns,
		OverheadRuns:  *overhead,
		CorpusPerCell: *corpusN,
		// The per-table summaries need the metrics registry even when the
		// telemetry flags are off.
		Obs: obs.NewSink(),
	}, func(cfg harness.Config) error {
		for _, n := range tables {
			before := cfg.Obs.Metrics.Snapshot()
			start := time.Now()
			out, err := harness.RenderTable(n, cfg)
			if err != nil {
				return fmt.Errorf("table %d: %w", n, err)
			}
			fmt.Println(out)
			// The summary is a diagnostic (wall time varies run to run), so
			// it goes to stderr: stdout stays byte-identical across -jobs.
			d := cfg.Obs.Metrics.Snapshot().Delta(before)
			fmt.Fprintf(os.Stderr, "table %d: rows=%d runs=%d cycles=%d wall=%v\n\n",
				n, d.Counter("harness.rows"), d.Counter("vm.runs"),
				d.Counter("vm.cycles"), time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
}
