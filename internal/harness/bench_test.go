package harness

import (
	"testing"

	"stmdiag/internal/core"
	"stmdiag/internal/obs"
	"stmdiag/internal/vm"
)

// BenchmarkTrial is the one-trial rung of the benchmark ladder: trials
// through the whole engine (pool dispatch, executor, result decode, commit),
// in process and over the subprocess worker wire, one trial per op.
// "profile" is a real capture (sort's failure run under LBRLOG with
// toggling); "federated" ships it with metrics, trace and flight ring armed,
// as -serve arms them (its ratio to "subprocess" is recorded with no floor:
// it is one telemetry-heavy trial, while the root package's
// BenchmarkTable7Served times what -serve adds to a whole run). "empty" is the test-script kind, which
// does no work, so it measures the engine's fixed cost per trial.
func BenchmarkTrial(b *testing.B) {
	prof := profileParams{App: "sort", Build: core.Options{LBR: true, Toggling: true}, WantFail: true, Seed: 1}
	for _, bc := range []struct {
		name              string
		kind              string
		params            any
		subprocess, armed bool
	}{
		{"profile/inproc", "profile", prof, false, false},
		{"profile/subprocess", "profile", prof, true, false},
		{"profile/federated", "profile", prof, true, true},
		{"empty/inproc", "test-script", script(), false, false},
		{"empty/subprocess", "test-script", script(), true, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sink *obs.Sink
			if bc.armed {
				sink = servedSink()
			}
			p := NewPool(1, sink)
			if bc.subprocess {
				e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				p = p.WithExecutor(e)
			}
			run := func(n int) {
				var err error
				var got int
				if bc.kind == "profile" {
					var out []vm.Profile
					out, err = MapKind[vm.Profile](p, n, "bench/"+bc.name, bc.kind, bc.params)
					got = len(out)
				} else {
					var out []int
					out, err = MapKind[int](p, n, "bench/"+bc.name, bc.kind, bc.params)
					got = len(out)
				}
				if err != nil || got != n {
					b.Fatalf("%d of %d trials accepted: %v", got, n, err)
				}
			}
			run(1) // spawn the worker and fill the build cache
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// servedSink is the sink a -serve run arms: metrics, trace and flight ring.
func servedSink() *obs.Sink {
	return &obs.Sink{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
}
