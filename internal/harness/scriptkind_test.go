package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"stmdiag/internal/obs"
)

// The pool-contract tests drive the engine with one test-only kind whose
// behavior is scripted by its params: what each trial returns, which
// trials are accepted, which one errors and which one panics (on which
// attempts). It is registered from this test file, and TestMain turns the
// test binary into a worker, so the kind runs under the subprocess
// executor too.

func init() { registerKind("test-script", scriptKind) }

// scriptParams scripts the test-script kind as a function of the trial's
// index and attempt.
type scriptParams struct {
	// Scale makes trial i's value i*Scale.
	Scale int `json:"scale"`
	// A trial is accepted when AcceptMod > 0 and index%AcceptMod ==
	// AcceptRem; AcceptMod 0 rejects every trial.
	AcceptMod int `json:"acceptMod"`
	AcceptRem int `json:"acceptRem"`
	// ErrAt is the trial that returns errScript (-1: none).
	ErrAt int `json:"errAt"`
	// PanicAt is the trial that panics (-1: none), on attempts below
	// PanicAttempts (0: on every attempt).
	PanicAt       int `json:"panicAt"`
	PanicAttempts int `json:"panicAttempts"`
	// Counter, when set, is bumped on the trial sink by every attempt.
	Counter string `json:"counter,omitempty"`
}

// script returns params that accept every trial with value = index.
func script() scriptParams {
	return scriptParams{Scale: 1, AcceptMod: 1, ErrAt: -1, PanicAt: -1}
}

var errScript = errors.New("scripted trial error")

func scriptKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P scriptParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	if P.Counter != "" {
		tc.Sink.Counter(P.Counter).Inc()
	}
	if tc.Index == P.PanicAt && (P.PanicAttempts == 0 || tc.Attempt < P.PanicAttempts) {
		panic(fmt.Sprintf("trial %d attempt %d exploded", tc.Index, tc.Attempt))
	}
	if tc.Index == P.ErrAt {
		return nil, false, errScript
	}
	return tc.Index * P.Scale, P.AcceptMod > 0 && tc.Index%P.AcceptMod == P.AcceptRem, nil
}

// poolVariant is one engine configuration the pool-contract tests hold
// to the same results: an in-process worker count, or subprocess workers.
type poolVariant struct {
	name string
	pool func(t *testing.T, sink *obs.Sink) *Pool
}

// poolVariants covers every testPoolJobs count in process plus the
// subprocess executor at 4 workers.
func poolVariants() []poolVariant {
	var vs []poolVariant
	for _, jobs := range testPoolJobs() {
		jobs := jobs
		vs = append(vs, poolVariant{fmt.Sprintf("jobs=%d", jobs), func(_ *testing.T, sink *obs.Sink) *Pool {
			return NewPool(jobs, sink)
		}})
	}
	return append(vs, poolVariant{"subprocess-jobs=4", func(t *testing.T, sink *obs.Sink) *Pool {
		e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return NewPool(4, sink).WithExecutor(e)
	}})
}
