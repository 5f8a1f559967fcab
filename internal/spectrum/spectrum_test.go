package spectrum

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"stmdiag/internal/stats"
)

// runsFromSpec decodes a compact byte spec into a run set over small string
// events: each byte contributes one run whose failure bit is bit 7 and
// whose event set is the low 5 bits (event i present when bit i is set).
// Shared with the property tests so permutations of the same spec denote
// permutations of the same run multiset.
func runsFromSpec(spec []byte) []stats.Run[string] {
	runs := make([]stats.Run[string], 0, len(spec))
	for _, b := range spec {
		r := stats.Run[string]{Failed: b&0x80 != 0}
		for i := 0; i < 5; i++ {
			if b&(1<<i) != 0 {
				r.Events = append(r.Events, fmt.Sprintf("e%d", i))
			}
		}
		runs = append(runs, r)
	}
	return runs
}

func TestFormulaString(t *testing.T) {
	if Ochiai.String() != "ochiai" || Tarantula.String() != "tarantula" {
		t.Fatalf("formula names: %q %q", Ochiai, Tarantula)
	}
}

// TestScoreKnownValues pins both formulas to hand-computed points.
func TestScoreKnownValues(t *testing.T) {
	cases := []struct {
		f              Formula
		ef, ep, nf, np int
		want           float64
	}{
		{Ochiai, 4, 0, 4, 4, 1},            // perfect predictor
		{Ochiai, 2, 2, 4, 4, 0.5},          // 2/sqrt(4*4)
		{Ochiai, 0, 3, 4, 4, 0},            // never in a failing run
		{Ochiai, 1, 0, 4, 0, 0.5},          // 1/sqrt(4*1)
		{Tarantula, 4, 0, 4, 4, 1},         // fr=1, pr=0
		{Tarantula, 2, 2, 4, 4, 0.5},       // fr=0.5, pr=0.5
		{Tarantula, 0, 3, 4, 4, 0},         // fr=0
		{Tarantula, 2, 1, 4, 4, 2.0 / 3.0}, // 0.5/(0.5+0.25)
		{Tarantula, 1, 0, 4, 0, 1},         // no success runs: pr=0
	}
	for _, c := range cases {
		got := c.f.Score(c.ef, c.ep, c.nf, c.np)
		if diff := got - c.want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s.Score(%d,%d,%d,%d) = %v, want %v", c.f, c.ef, c.ep, c.nf, c.np, got, c.want)
		}
	}
}

// TestScoreBounded: both formulas stay in [0, 1] and return 0 for events
// absent from every failing run, for any consistent counter combination
// (an event cannot appear in more failing/successful runs than exist).
func TestScoreBounded(t *testing.T) {
	check := func(ef, ep, nfExtra, npExtra uint8) bool {
		f, p := int(ef%16), int(ep%16)
		nf, np := f+int(nfExtra%16), p+int(npExtra%16)
		for _, formula := range []Formula{Ochiai, Tarantula} {
			s := formula.Score(f, p, nf, np)
			if s < 0 || s > 1+1e-12 {
				return false
			}
			if f == 0 && s != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestScoreMonotoneInFailureCorrelation mirrors the stats order tests'
// monotonicity contract: with the other counters held fixed, more failing
// occurrences never lower a score and more successful occurrences never
// raise it.
func TestScoreMonotoneInFailureCorrelation(t *testing.T) {
	check := func(ef, ep, nf, np uint8) bool {
		f, p := int(ef%10), int(ep%10)
		tf, tp := int(nf%10)+f+1, int(np%10)+p+1
		for _, formula := range []Formula{Ochiai, Tarantula} {
			if f+1 <= tf && formula.Score(f+1, p, tf, tp) < formula.Score(f, p, tf, tp)-1e-12 {
				return false
			}
			if formula.Score(f, p+1, tf, tp+1) > formula.Score(f, p, tf, tp+1)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRankPermutationInvariant mirrors TestRankOrderIndependentMerge in
// internal/stats: the ranking must depend only on the run multiset, not on
// the order runs are visited in, because counts are plain sums.
func TestRankPermutationInvariant(t *testing.T) {
	check := func(spec []byte, seed int64) bool {
		if len(spec) > 24 {
			spec = spec[:24]
		}
		runs := runsFromSpec(spec)
		shuffled := append([]stats.Run[string](nil), runs...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, f := range []Formula{Ochiai, Tarantula} {
			a := fmt.Sprint(Rank(runs, f))
			b := fmt.Sprint(Rank(shuffled, f))
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRankDuplicationInvariant is a metamorphic property in the spirit of
// Abreu et al.'s spectrum-quality work: duplicating every run doubles each
// count, and doubling is exact in float64, so stats.Rank and both spectrum
// formulas must return the same order with bit-identical scores.
func TestRankDuplicationInvariant(t *testing.T) {
	scores := func(ranked []stats.Scored[string]) string {
		var b strings.Builder
		for _, s := range ranked {
			fmt.Fprintf(&b, "%s %x %x %x\n", s.Event,
				math.Float64bits(s.Precision), math.Float64bits(s.Recall), math.Float64bits(s.Score))
		}
		return b.String()
	}
	rankers := []func([]stats.Run[string]) []stats.Scored[string]{
		stats.Rank[string],
		func(runs []stats.Run[string]) []stats.Scored[string] { return Rank(runs, Ochiai) },
		func(runs []stats.Run[string]) []stats.Scored[string] { return Rank(runs, Tarantula) },
	}
	check := func(spec []byte) bool {
		if len(spec) > 24 {
			spec = spec[:24]
		}
		runs := runsFromSpec(spec)
		doubled := append(append([]stats.Run[string](nil), runs...), runs...)
		for _, rank := range rankers {
			if scores(rank(runs)) != scores(rank(doubled)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRankSharesCountingWithStats: for any run set, the spectrum ranking
// covers exactly the events stats.Rank covers, with identical InFail/InSucc
// counters — the "same counts, different arithmetic" contract.
func TestRankSharesCountingWithStats(t *testing.T) {
	check := func(spec []byte) bool {
		if len(spec) > 24 {
			spec = spec[:24]
		}
		runs := runsFromSpec(spec)
		base := stats.Rank(runs)
		want := make(map[string][2]int, len(base))
		for _, s := range base {
			want[s.Event] = [2]int{s.InFail, s.InSucc}
		}
		for _, f := range []Formula{Ochiai, Tarantula} {
			ranked := Rank(runs, f)
			if len(ranked) != len(base) {
				return false
			}
			got := make(map[string][2]int, len(ranked))
			for _, s := range ranked {
				got[s.Event] = [2]int{s.InFail, s.InSucc}
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRankTieBreakDeterministic mirrors TestSortScoredTieBreakTotalOrder:
// events with identical spectra tie on every numeric key, so the ranking
// must fall back to the formatted-event order and come out byte-identical
// from any visiting order.
func TestRankTieBreakDeterministic(t *testing.T) {
	// Four events, all present in exactly the failing run: identical
	// counters, so only the event name can order them.
	mk := func(events ...string) []stats.Run[string] {
		return []stats.Run[string]{
			{Failed: true, Events: events},
			{Failed: false, Events: nil},
		}
	}
	perms := [][]string{
		{"a", "b", "c", "d"},
		{"d", "c", "b", "a"},
		{"b", "d", "a", "c"},
		{"c", "a", "d", "b"},
	}
	for _, f := range []Formula{Ochiai, Tarantula} {
		var want string
		for i, p := range perms {
			got := fmt.Sprint(Rank(mk(p...), f))
			if i == 0 {
				want = got
				ranked := Rank(mk(p...), f)
				for j, s := range ranked {
					if s.Event != []string{"a", "b", "c", "d"}[j] {
						t.Fatalf("%s: tie-break order %v, want name order", f, ranked)
					}
				}
				continue
			}
			if got != want {
				t.Fatalf("%s: permutation %d ranked %s, want %s", f, i, got, want)
			}
		}
	}
}

// TestRankBestFirst: rankings are sorted under the shared stats.Less order.
func TestRankBestFirst(t *testing.T) {
	check := func(spec []byte) bool {
		if len(spec) > 24 {
			spec = spec[:24]
		}
		runs := runsFromSpec(spec)
		for _, f := range []Formula{Ochiai, Tarantula} {
			ranked := Rank(runs, f)
			for i := 1; i < len(ranked); i++ {
				if stats.Less(ranked[i], ranked[i-1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpectrumRank(b *testing.B) {
	// A corpus-scale ranking problem: 8 runs over 64 events with mixed
	// overlap, the shape Table 9 scores per generated program.
	spec := make([]byte, 0, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		spec = append(spec, byte(rng.Intn(256)))
	}
	runs := runsFromSpec(spec)
	b.Run("cbi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.Rank(runs)
		}
	})
	b.Run("ochiai", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Rank(runs, Ochiai)
		}
	})
	b.Run("tarantula", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Rank(runs, Tarantula)
		}
	})
}
