package harness

import (
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/cbi"
)

func TestAdaptiveFindsRootCause(t *testing.T) {
	// sort's root-cause branch executes (with contrasting outcomes) in both
	// run classes, so the adaptive expansion converges once the layer
	// containing it is instrumented; dense per-layer sampling means far
	// fewer runs than vanilla CBI's 1000+1000.
	a := apps.ByName("sort")
	res, err := RunAdaptive(a, 1.0, 10, 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sort adaptive: %+v", res)
	if !res.Found {
		t.Fatal("adaptive CBI did not converge on sort")
	}
	if res.RunsUsed >= 2000 {
		t.Errorf("adaptive used %d runs, should undercut vanilla CBI's 2000", res.RunsUsed)
	}
	if res.EvaluatedFraction <= 0 || res.EvaluatedFraction > 1 {
		t.Errorf("EvaluatedFraction = %v", res.EvaluatedFraction)
	}
}

func TestAdaptiveIterationGrowth(t *testing.T) {
	// ln's root cause sits many branch layers before the failure site, so
	// adaptive needs more expansion iterations than sort — the
	// iteration-count pathology paper §8 describes.
	sortRes, err := RunAdaptive(apps.ByName("sort"), 1.0, 10, 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lnRes, err := RunAdaptive(apps.ByName("ln"), 1.0, 10, 40, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sort: %d iters (%.0f%% predicates); ln: %d iters (%.0f%% predicates)",
		sortRes.Iterations, 100*sortRes.EvaluatedFraction,
		lnRes.Iterations, 100*lnRes.EvaluatedFraction)
	if !lnRes.Found {
		t.Fatal("adaptive CBI did not converge on ln")
	}
	if lnRes.Iterations <= sortRes.Iterations {
		t.Errorf("ln (deep root cause) took %d iters, sort took %d; want ln > sort",
			lnRes.Iterations, sortRes.Iterations)
	}
}

func TestAdaptiveCannotFixContextOnePredicates(t *testing.T) {
	// Apache2's failing region executes only in failing runs; no amount of
	// adaptive expansion gives its predicates Increase > 0.
	res, err := RunAdaptive(apps.ByName("Apache2"), 1.0, 6, 12, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("adaptive CBI claimed the Apache2 root cause; Context=1 predicates cannot be ranked")
	}
	if res.Iterations != 12 {
		t.Errorf("iterations = %d, want the full budget", res.Iterations)
	}
}

// TestCBIRunEmptyActiveSetRestricts pins the cbi-run contract adaptive CBI
// relies on: its first branch layer can be empty, and an empty active set
// must still restrict sampling (to nothing) after the params' JSON round
// trip, while a nil set samples every branch.
func TestCBIRunEmptyActiveSetRestricts(t *testing.T) {
	observed := func(active []string) int {
		P := cbiRunParams{App: "sort", WantFail: true, Rate: 1, Seed: 1, Salt: 4242, Active: active}
		runs, _, err := CollectKind[cbi.RunObs](NewPool(1, nil), 20, 1, "sort/active", "cbi-run", P)
		if err != nil || len(runs) != 1 {
			t.Fatalf("active=%v: %d runs, %v", active, len(runs), err)
		}
		return len(runs[0].Observed)
	}
	if n := observed([]string{}); n != 0 {
		t.Errorf("empty active set observed %d predicates, want 0", n)
	}
	if n := observed(nil); n == 0 {
		t.Error("unrestricted run observed no predicates")
	}
}
