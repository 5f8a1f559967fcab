package harness

import "stmdiag/internal/obs"

// beginRow tags the start of one table row in the sink and freezes the
// registry so endRow can attach a per-row metrics delta. Safe with a nil
// or metrics-less sink (returns an empty snapshot).
func beginRow(cfg Config, app, mode string) obs.Snapshot {
	if cfg.Obs == nil {
		return obs.Snapshot{}
	}
	cfg.Obs.Counter("harness.rows").Inc()
	cfg.Obs.Counter("harness.rows." + mode).Inc()
	// Phase transition in the pipeline flight recorder: rows begin in a
	// deterministic order, so the ring stays jobs-invariant.
	cfg.Obs.RecordFlight(obs.FlightEvent{
		Cycle: cfg.Obs.Cycles(), Trial: -1,
		Kind: obs.FlightPhase, Detail: mode + ":" + app,
	})
	if tr := cfg.Obs.Tracer(); tr != nil {
		tr.SetProcessName(obs.PipelinePID, "pipeline")
		tr.Instant("row:"+app, "harness", 0, obs.PipelinePID, 0,
			map[string]any{"mode": mode})
	}
	if cfg.Obs.Metrics == nil {
		return obs.Snapshot{}
	}
	return cfg.Obs.Metrics.Snapshot()
}

// endRow returns this row's metrics delta, or nil without a registry.
func endRow(cfg Config, before obs.Snapshot) *obs.Snapshot {
	if cfg.Obs == nil || cfg.Obs.Metrics == nil {
		return nil
	}
	d := cfg.Obs.Metrics.Snapshot().Delta(before)
	return &d
}

// Pipeline phase names recorded by beginPhase. String literals rather than
// the internal/prof constants: harness code binds `prof` locally for VM
// profiles, so the package is only imported by this package's tests.
const (
	phaseCapture = "capture" // instrumented production runs (profile collection)
	phaseReplay  = "replay"  // CBI baseline and overhead re-execution
	phaseRank    = "rank"    // statistical diagnosis
)

// beginPhase opens one pipeline-phase span and returns its closer. The
// closer attributes the parent sink's cycle-clock and run-count deltas to
// "prof.phase.<phase>.*" and, with an app, "prof.app.<app>.<phase>.*".
// Reading the parent registry is race-free and jobs-invariant here: phases
// begin and end between pool fan-outs (CollectKind/MapKind are barriers), where the
// registry holds exactly the trials committed in trial order. No-op unless
// the sink arms profiling.
func beginPhase(cfg Config, app, phase string) func() {
	s := cfg.Obs
	if !s.Profiled() || s.Metrics == nil {
		return func() {}
	}
	c0 := s.Cycles()
	r0 := s.Counter("vm.runs").Value()
	return func() {
		dc := s.Cycles() - c0
		dr := s.Counter("vm.runs").Value() - r0
		s.Counter("prof.phase." + phase + ".spans").Inc()
		s.Counter("prof.phase." + phase + ".cycles").Add(dc)
		s.Counter("prof.phase." + phase + ".runs").Add(dr)
		if app != "" {
			s.Counter("prof.app." + app + "." + phase + ".cycles").Add(dc)
			s.Counter("prof.app." + app + "." + phase + ".runs").Add(dr)
		}
	}
}
