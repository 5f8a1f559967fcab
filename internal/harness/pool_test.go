package harness

import (
	"errors"
	"fmt"
	"testing"

	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

func testPoolJobs() []int { return []int{1, 2, 4, 9} }

func TestTrialSeedProperties(t *testing.T) {
	if TrialSeed(0, "sort/fail", 3) != TrialSeed(0, "sort/fail", 3) {
		t.Error("TrialSeed not deterministic")
	}
	seen := make(map[int64]string)
	for _, base := range []int64{0, 1, 12345} {
		for _, stream := range []string{"sort/fail", "sort/succ", "FFT/conf2-fail"} {
			for trial := 0; trial < 64; trial++ {
				s := TrialSeed(base, stream, trial)
				if s < 0 {
					t.Fatalf("TrialSeed(%d, %q, %d) = %d < 0", base, stream, trial, s)
				}
				key := fmt.Sprintf("%d/%s/%d", base, stream, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestCollectJobsInvariance pins CollectKind's contract: accepted values,
// attempt counts and merged telemetry are identical for every worker count
// and executor, and exactly the sequential prefix of trials is committed.
func TestCollectJobsInvariance(t *testing.T) {
	const (
		max  = 30
		need = 4
	)
	var wantVals []int
	wantAttempts := 0
	for i := 0; i < max && len(wantVals) < need; i++ {
		if i%3 == 0 {
			wantVals = append(wantVals, i*10)
		}
		wantAttempts = i + 1
	}
	P := script()
	P.Scale, P.AcceptMod, P.Counter = 10, 3, "test.trials"
	for _, v := range poolVariants() {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		p := v.pool(t, sink)
		out, attempts, err := CollectKind[int](p, max, need, "test", "test-script", P)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if attempts != wantAttempts {
			t.Errorf("%s: attempts = %d, want %d", v.name, attempts, wantAttempts)
		}
		if fmt.Sprint(out) != fmt.Sprint(wantVals) {
			t.Errorf("%s: out = %v, want %v", v.name, out, wantVals)
		}
		snap := sink.Metrics.Snapshot()
		if got := snap.Counter("test.trials"); got != uint64(wantAttempts) {
			t.Errorf("%s: committed trial telemetry = %d, want exactly the sequential prefix %d",
				v.name, got, wantAttempts)
		}
		if got := snap.Counter("harness.pool.committed"); got != uint64(wantAttempts) {
			t.Errorf("%s: pool.committed = %d, want %d", v.name, got, wantAttempts)
		}
		executed := snap.Counter("harness.pool.trials")
		discarded := snap.Counter("harness.pool.discarded")
		if executed < uint64(wantAttempts) {
			t.Errorf("%s: pool.trials = %d < attempts %d", v.name, executed, wantAttempts)
		}
		if executed != uint64(wantAttempts)+discarded {
			t.Errorf("%s: trials(%d) != committed(%d) + discarded(%d)",
				v.name, executed, wantAttempts, discarded)
		}
		if p.Jobs() == 1 && discarded != 0 {
			t.Errorf("sequential path did speculative work: discarded = %d", discarded)
		}
	}
}

func TestCollectExhaustsBudget(t *testing.T) {
	P := script()
	P.AcceptMod = 4
	for _, jobs := range testPoolJobs() {
		out, attempts, err := CollectKind[int](NewPool(jobs, nil), 6, 5, "test", "test-script", P)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if attempts != 6 {
			t.Errorf("jobs=%d: attempts = %d, want the full budget 6", jobs, attempts)
		}
		if len(out) != 2 || out[0] != 0 || out[1] != 4 {
			t.Errorf("jobs=%d: out = %v, want [0 4]", jobs, out)
		}
	}
}

func TestCollectErrorAborts(t *testing.T) {
	P := script()
	P.ErrAt, P.AcceptMod, P.AcceptRem = 5, 100, 8
	for _, jobs := range testPoolJobs() {
		out, attempts, err := CollectKind[int](NewPool(jobs, nil), 20, 3, "test", "test-script", P)
		if !errors.Is(err, errScript) {
			t.Fatalf("jobs=%d: err = %v, want %v", jobs, err, errScript)
		}
		if attempts != 6 {
			t.Errorf("jobs=%d: attempts = %d, want 6 (abort at trial 5)", jobs, attempts)
		}
		if len(out) != 0 {
			t.Errorf("jobs=%d: out = %v, want empty", jobs, out)
		}
	}
}

func TestCollectDegenerate(t *testing.T) {
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	p := NewPool(4, sink)
	P := script()
	P.Counter = "test.calls"
	if out, n, err := CollectKind[int](p, 0, 3, "test", "test-script", P); out != nil || n != 0 || err != nil {
		t.Errorf("CollectKind(max=0) = %v, %d, %v", out, n, err)
	}
	if out, n, err := CollectKind[int](p, 3, 0, "test", "test-script", P); out != nil || n != 0 || err != nil {
		t.Errorf("CollectKind(need=0) = %v, %d, %v", out, n, err)
	}
	if out, err := MapKind[int](p, 0, "test", "test-script", P); out != nil || err != nil {
		t.Errorf("MapKind(n=0) = %v, %v", out, err)
	}
	snap := sink.Metrics.Snapshot()
	if calls, trials := snap.Counter("test.calls"), snap.Counter("harness.pool.trials"); calls != 0 || trials != 0 {
		t.Errorf("degenerate fan-outs ran trials: calls=%d pool.trials=%d", calls, trials)
	}
}

func TestMapOrderAndAbort(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		P := script()
		P.Scale = 7
		out, err := MapKind[int](p, 7, "test", "test-script", P)
		if err != nil || len(out) != 7 {
			t.Fatalf("jobs=%d: MapKind = %v, %v", jobs, out, err)
		}
		for i, v := range out {
			if v != 7*i {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, 7*i)
			}
		}
		P.ErrAt = 3
		if _, err = MapKind[int](p, 7, "test", "test-script", P); !errors.Is(err, errScript) {
			t.Errorf("jobs=%d: MapKind error = %v, want %v", jobs, err, errScript)
		}
	}
}

func TestFirstIndexSemantics(t *testing.T) {
	for _, jobs := range testPoolJobs() {
		p := NewPool(jobs, nil)
		P := script()
		P.Scale, P.AcceptMod, P.AcceptRem = 10, 100, 7
		v, idx, err := FirstKind[int](p, 20, "test", "test-script", P)
		if err != nil || idx != 7 || v != 70 {
			t.Errorf("jobs=%d: FirstKind = %d, %d, %v; want 70, 7", jobs, v, idx, err)
		}
		P.AcceptMod = 0
		_, idx, err = FirstKind[int](p, 5, "test", "test-script", P)
		if err != nil || idx != -1 {
			t.Errorf("jobs=%d: FirstKind(no match) idx = %d, err = %v; want -1, nil", jobs, idx, err)
		}
	}
}

// TestCollectSurvivesPanickingTrial is the graceful-degradation regression
// test: a trial whose every attempt panics must not abort the run or
// swallow any other trial's result — it is simply rejected, and the
// degradation is visible in the merged telemetry, identically for every
// worker count.
func TestCollectSurvivesPanickingTrial(t *testing.T) {
	const (
		max    = 12
		need   = 11
		victim = 4
	)
	P := script()
	P.PanicAt = victim
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		out, attempts, err := CollectKind[int](NewPool(jobs, sink), max, need, "test", "test-script", P)
		if err != nil {
			t.Fatalf("jobs=%d: err = %v, want nil (degraded trial is not fatal)", jobs, err)
		}
		if attempts != max {
			t.Errorf("jobs=%d: attempts = %d, want %d", jobs, attempts, max)
		}
		want := make([]int, 0, max-1)
		for i := 0; i < max; i++ {
			if i != victim {
				want = append(want, i)
			}
		}
		if fmt.Sprint(out) != fmt.Sprint(want) {
			t.Errorf("jobs=%d: out = %v, want every trial but %d: %v", jobs, out, victim, want)
		}
		snap := sink.Metrics.Snapshot()
		wantAttempts := uint64(faultinj.DefaultRetries + 1)
		if got := snap.Counter("harness.pool.panics"); got != wantAttempts {
			t.Errorf("jobs=%d: pool.panics = %d, want %d", jobs, got, wantAttempts)
		}
		if got := snap.Counter("harness.pool.retries"); got != wantAttempts-1 {
			t.Errorf("jobs=%d: pool.retries = %d, want %d", jobs, got, wantAttempts-1)
		}
		if got := snap.Counter("harness.pool.degraded"); got != 1 {
			t.Errorf("jobs=%d: pool.degraded = %d, want 1", jobs, got)
		}
	}
}

// TestRetryRecoversTransientPanic pins the retry contract: an attempt-0
// panic that clears on the retry yields the trial's value as if nothing
// happened, costing one retry and zero degradations.
func TestRetryRecoversTransientPanic(t *testing.T) {
	P := script()
	P.PanicAt, P.PanicAttempts = 2, 1
	for _, jobs := range testPoolJobs() {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		out, _, err := CollectKind[int](NewPool(jobs, sink), 5, 5, "test", "test-script", P)
		if err != nil || fmt.Sprint(out) != "[0 1 2 3 4]" {
			t.Fatalf("jobs=%d: CollectKind = %v, %v; want all 5 trials", jobs, out, err)
		}
		snap := sink.Metrics.Snapshot()
		if got := snap.Counter("harness.pool.retries"); got != 1 {
			t.Errorf("jobs=%d: pool.retries = %d, want 1", jobs, got)
		}
		if got := snap.Counter("harness.pool.degraded"); got != 0 {
			t.Errorf("jobs=%d: pool.degraded = %d, want 0", jobs, got)
		}
	}
}

// TestMapDegradedIsHardError: MapKind callers index results positionally,
// so a degraded trial must surface as a *TrialError, not silently go
// missing.
func TestMapDegradedIsHardError(t *testing.T) {
	P := script()
	P.PanicAt = 3
	for _, jobs := range testPoolJobs() {
		_, err := MapKind[int](NewPool(jobs, nil), 6, "maptest", "test-script", P)
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("jobs=%d: MapKind error = %v, want *TrialError", jobs, err)
		}
		if te.Trial != 3 || te.Label != "maptest" || te.Attempts != faultinj.DefaultRetries+1 {
			t.Errorf("jobs=%d: TrialError = %+v, want trial 3 of maptest after %d attempts",
				jobs, te, faultinj.DefaultRetries+1)
		}
	}
}

// TestWithFaultsInjectedPanicDeterminism: armed with a panic layer, the
// pool schedules crashes from the derived plan — which trials degrade, the
// surviving values, and every faultinj/pool counter must be identical for
// all worker counts, both executors and across repeated runs.
func TestWithFaultsInjectedPanicDeterminism(t *testing.T) {
	spec, err := faultinj.ParseSpec("panic=0.3,retries=1,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		vals     []int
		attempts int
		metrics  string
	}
	var want *outcome
	for _, v := range poolVariants() {
		for rep := 0; rep < 2; rep++ {
			sink := &obs.Sink{Metrics: obs.NewRegistry()}
			p := v.pool(t, sink).WithFaults(spec, 7)
			out, attempts, err := CollectKind[int](p, 40, 40, "faulttest", "test-script", script())
			if err != nil {
				t.Fatalf("%s rep=%d: %v", v.name, rep, err)
			}
			snap := sink.Metrics.Snapshot()
			got := &outcome{vals: out, attempts: attempts}
			for _, c := range []string{
				"harness.pool.panics", "harness.pool.retries", "harness.pool.degraded",
				"faultinj.injected.panic", "faultinj.injected",
			} {
				got.metrics += fmt.Sprintf("%s=%d ", c, snap.Counter(c))
			}
			if want == nil {
				want = got
				if snap.Counter("harness.pool.panics") == 0 {
					t.Fatal("panic layer at rate 0.3 never fired over 40 trials")
				}
				if len(out) == 40 {
					t.Log("no trial degraded (retry budget absorbed every panic)")
				}
				continue
			}
			if got.attempts != want.attempts || got.metrics != want.metrics ||
				fmt.Sprint(got.vals) != fmt.Sprint(want.vals) {
				t.Errorf("%s rep=%d: outcome diverged\n got: %v %d %s\nwant: %v %d %s",
					v.name, rep, got.vals, got.attempts, got.metrics,
					want.vals, want.attempts, want.metrics)
			}
		}
	}
}
