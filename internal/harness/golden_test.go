package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stmdiag/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenConfig is a reduced but fully deterministic experiment
// configuration: small run counts keep the suite fast, and a fixed Jobs
// value exercises the parallel pool path (the output is identical for any
// Jobs value — TestTablesJobsInvariance locks that separately).
func goldenConfig() Config {
	return Config{
		FailRuns:     4,
		SuccRuns:     4,
		CBIRuns:      40,
		OverheadRuns: 2,
		MaxAttempts:  200,
		Seed:         0,
		Jobs:         2,
	}
}

// TestGoldenTables locks the byte-exact output of every paper table against
// checked-in golden files, rendered as every binary renders it without
// telemetry flags. A second render with a metrics sink armed must print
// the same bytes, and beside each table the deterministic metrics that run
// recorded (tableN.metrics.json) are locked too: VM instructions and
// cycles, the cache/MESI, PMU and kernel counts, and the committed trials.
// Those counts are the model's cost figures, so they are gated exactly even
// where a drift would not change the rendered table. Regenerate after an
// intended change with
//
//	go test ./internal/harness -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for n := 1; n <= NumTables; n++ {
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			cfg := goldenConfig()
			out, err := RenderTable(n, cfg)
			if err != nil {
				t.Fatalf("RenderTable(%d): %v", n, err)
			}
			base := filepath.Join("testdata", "golden", fmt.Sprintf("table%d", n))
			checkGolden(t, base+".txt", out)

			cfg.Obs = &obs.Sink{Metrics: obs.NewRegistry()}
			armed, err := RenderTable(n, cfg)
			if err != nil {
				t.Fatalf("RenderTable(%d) with metrics armed: %v", n, err)
			}
			if armed != out {
				t.Errorf("table %d differs with metrics armed:\n%s", n, firstDiff(out, armed))
			}
			metrics, err := cfg.Obs.Metrics.Snapshot().Deterministic().JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, base+".metrics.json", string(metrics)+"\n")
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test ./internal/harness -update`): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden output.\n%s\nregenerate with -update if the change is intended",
			path, firstDiff(string(want), got))
	}
}

// firstDiff locates the first differing line for a readable failure report.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first difference at line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "outputs differ only in length"
}
