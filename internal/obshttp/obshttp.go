// Package obshttp is the live half of the observability layer (DESIGN §6):
// a pure-stdlib HTTP server exposing the telemetry a running sweep
// accumulates in an obs.Sink, so a multi-hour experiment can be scraped,
// traced and profiled mid-run instead of only inspected post-mortem.
//
// Endpoints:
//
//	/metrics         OpenMetrics text exposition of the sink's registry
//	/healthz         liveness (200 while the process serves) + worker health
//	/readyz          readiness (503 until/unless marked ready, or when the
//	                 subprocess executor has lost every worker)
//	/trace           Chrome trace_event JSON download of the live tracer
//	/tracez          JSON per-lane summary of the live tracer
//	/flightrecorder  JSON dump of the pipeline flight-recorder ring
//	/profilez        JSON cost-attribution report (internal/prof)
//	/debug/pprof/    the net/http/pprof profiling handlers
//
// /healthz and /readyz surface subprocess-executor worker health when the
// sink's registry carries harness.executor.* instruments: spawn/respawn
// counts, live workers, and the most recent worker-crash reason recovered
// from the flight-recorder ring.
//
// Every handler snapshots live structures through their lock-free or
// read-locked views; scraping never blocks the trial workers.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"stmdiag/internal/obs"
	"stmdiag/internal/prof"
)

// Server serves one sink's telemetry. Build with New, attach the Handler
// to a test server, or Start a real listener.
type Server struct {
	sink  *obs.Sink
	ready atomic.Bool

	ln   net.Listener
	http *http.Server
}

// New returns a server over the sink (which may be nil: endpoints then
// serve the process-wide registry and empty trace/flight dumps). The
// server starts ready.
func New(sink *obs.Sink) *Server {
	s := &Server{sink: sink}
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz verdict: a long sweep can mark itself
// not-ready while it tears down.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// registry picks the registry /metrics exposes: the sink's, defaulting to
// the process-wide one so a bare -serve still exposes instrumentation-time
// counters.
func (s *Server) registry() *obs.Registry {
	if s.sink != nil && s.sink.Metrics != nil {
		return s.sink.Metrics
	}
	return obs.Default()
}

// readOnly guards a telemetry endpoint: every handler here only snapshots
// state, so anything but GET/HEAD is a caller bug (or a probe trying to
// write) and gets 405 with the allowed set announced.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "read-only telemetry endpoint", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// Handler returns the telemetry mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", readOnly(s.handleMetrics))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/trace", readOnly(s.handleTrace))
	mux.HandleFunc("/tracez", readOnly(s.handleTracez))
	mux.HandleFunc("/flightrecorder", readOnly(s.handleFlight))
	mux.HandleFunc("/profilez", readOnly(s.handleProfilez))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Connection timeouts of every server NewHTTPServer builds. A client that
// trickles its request headers, or parks an idle keep-alive connection,
// would otherwise hold a goroutine and a file descriptor forever. There is
// deliberately no write timeout: /debug/pprof/profile and /trace stream for
// seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h with bounded header-read and
// idle-connection time. Every listener in this repository serves through
// one.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Start listens on addr (host:port; port 0 picks a free one) and serves in
// a background goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = NewHTTPServer(s.Handler())
	go s.http.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "stmdiag telemetry")
	for _, ep := range []string{"/metrics", "/healthz", "/readyz", "/trace", "/tracez", "/flightrecorder", "/profilez", "/debug/pprof/"} {
		fmt.Fprintln(w, "  "+ep)
	}
}

// OpenMetricsContentType is the content type of the /metrics exposition.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	body := s.registry().Snapshot().OpenMetrics()
	w.Header().Set("Content-Type", OpenMetricsContentType)
	// Live telemetry: every scrape must reach the process, never a cache.
	w.Header().Set("Cache-Control", "no-store")
	fmt.Fprint(w, body)
}

// WorkerHealth is the subprocess-executor health view /healthz and /readyz
// derive from the sink: counters from the registry, the last crash reason
// from the flight-recorder ring (the most recent executor-crash event).
type WorkerHealth struct {
	// Armed reports whether a subprocess executor registered itself (any
	// spawn recorded); when false the other fields are meaningless.
	Armed bool
	// Spawns and Respawns count worker process starts (Respawns are the
	// subset replacing a crashed or timed-out worker).
	Spawns   uint64
	Respawns uint64
	// Live is the number of worker processes currently running.
	Live int64
	// Failures counts trials that exhausted the executor's retry budget.
	Failures uint64
	// LastCrash is the detail line of the most recent worker crash ("" if
	// none survives in the flight ring): worker ID, cause, stderr tail.
	LastCrash string
}

// workerHealth assembles the executor health view from the sink.
func (s *Server) workerHealth() WorkerHealth {
	snap := s.registry().Snapshot()
	h := WorkerHealth{
		Spawns:   snap.Counters["harness.executor.spawns"],
		Respawns: snap.Counters["harness.executor.respawns"],
		Live:     snap.Gauges["harness.executor.workers.live"],
		Failures: snap.Counters["harness.executor.failures"],
	}
	h.Armed = h.Spawns > 0
	if fr := s.sink.FlightRecorder(); fr != nil {
		for _, ev := range fr.Snapshot() {
			if ev.Kind == obs.FlightExecutorCrash {
				h.LastCrash = ev.Detail // keep scanning: ring is oldest-first
			}
		}
	}
	return h
}

func (h WorkerHealth) render(w http.ResponseWriter) {
	if !h.Armed {
		return
	}
	fmt.Fprintf(w, "executor: spawns=%d respawns=%d live=%d failures=%d\n",
		h.Spawns, h.Respawns, h.Live, h.Failures)
	if h.LastCrash != "" {
		// The stderr tail can span lines; indent so probes that read only
		// the first line still see the verdict.
		fmt.Fprintf(w, "last-crash: %s\n", strings.ReplaceAll(h.LastCrash, "\n", "\n  "))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	s.workerHealth().render(w)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	// A subprocess executor with no live workers and at least one exhausted
	// trial cannot make progress: not ready until a respawn succeeds.
	if h := s.workerHealth(); h.Armed && h.Live == 0 && h.Failures > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: executor lost all workers")
		h.render(w)
		return
	}
	fmt.Fprintln(w, "ready")
	s.workerHealth().render(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	data, err := s.sink.Tracer().ChromeJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="stmdiag-trace.json"`)
	w.Write(data)
}

// handleTracez serves the tracer's per-lane summary: event/span counts and
// time extents per (pid, tid) track — the quick "which lanes are live and
// how wide are they" view, where /trace is the full event download.
func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	sum := s.sink.Tracer().Summary()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sum) //nolint:errcheck // best-effort over HTTP
}

// FlightDump is the /flightrecorder response shape.
type FlightDump struct {
	Cap      int               `json:"cap"`
	Recorded uint64            `json:"recorded"`
	Dropped  uint64            `json:"dropped"`
	Events   []obs.FlightEvent `json:"events"`
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	fr := s.sink.FlightRecorder()
	dump := FlightDump{
		Cap:      fr.Cap(),
		Recorded: fr.Recorded(),
		Dropped:  fr.Dropped(),
		Events:   fr.Snapshot(),
	}
	if dump.Events == nil {
		dump.Events = []obs.FlightEvent{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(dump) //nolint:errcheck // best-effort over HTTP
}

// handleProfilez serves the cost-attribution report parsed from the live
// registry. Its deterministic sections (opcodes, phases, apps, tables,
// allocs) are jobs-invariant once a run completes; the workers/pool section
// is wall clock (see internal/prof).
func (s *Server) handleProfilez(w http.ResponseWriter, _ *http.Request) {
	data, err := prof.FromSnapshot(s.registry().Snapshot()).JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.Write(data)         //nolint:errcheck // best-effort over HTTP
	w.Write([]byte("\n")) //nolint:errcheck
}
