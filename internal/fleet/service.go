package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"stmdiag/internal/obs"
	"stmdiag/internal/obshttp"
)

// MaxBatchBytes bounds one ingest POST twice: the request body as sent,
// and the batch after gzip inflation (DecodeBatch). Batches are per-trial
// event sets — kilobytes each — so anything near this limit is a
// malfunctioning client, not load.
const MaxBatchBytes = 8 << 20

// batchLatencyBounds buckets ingest handler latency (ns): 10µs .. ~164ms
// in powers of four, matching the obs histogram convention.
var batchLatencyBounds = []uint64{
	10_000, 40_000, 160_000, 640_000, 2_560_000, 10_240_000, 40_960_000, 163_840_000,
}

// Service is the fleet ingestion endpoint set, layered over a base handler
// (normally internal/obshttp's telemetry mux) so one listener serves both
// the fleet API and live telemetry:
//
//	POST /fleet/ingest   commit one profile batch (JSON, optionally gzip)
//	GET  /fleet/stats    JSON aggregate summary per app
//	GET  /fleet/report   text diagnosis ranking (same rendering as the
//	                     monolithic path), ?app=NAME&k=N
type Service struct {
	store *Store
	base  http.Handler
	sink  *obs.Sink
	t0    time.Time

	batches  *obs.Counter
	profiles *obs.Counter
	bytes    *obs.Counter
	rejected *obs.Counter
	batchNS  *obs.Histogram

	// lanes maps client names to federated-trace thread IDs under
	// obs.FleetPID (the service owns tid 0; clients take 1, 2, ... in
	// arrival order).
	mu    sync.Mutex
	lanes map[string]int
}

// NewService wires the fleet routes over the store. base handles every
// non-/fleet path (nil = 404s outside /fleet/). sink receives
// fleet.ingest.* throughput metrics plus per-client federated telemetry
// (labeled metric families and trace lanes); nil disables them.
func NewService(store *Store, base http.Handler, sink *obs.Sink) *Service {
	s := &Service{store: store, base: base, sink: sink, t0: time.Now()}
	if sink != nil {
		s.batches = sink.Counter("fleet.ingest.batches")
		s.profiles = sink.Counter("fleet.ingest.profiles")
		s.bytes = sink.Counter("fleet.ingest.bytes")
		s.rejected = sink.Counter("fleet.ingest.rejected")
		s.batchNS = sink.Histogram("fleet.ingest.batch_ns", batchLatencyBounds)
	}
	return s
}

// Handler returns the service mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/ingest", s.handleIngest)
	mux.HandleFunc("/fleet/stats", obshttp.ReadOnly(s.handleStats))
	mux.HandleFunc("/fleet/report", obshttp.ReadOnly(s.handleReport))
	if s.base != nil {
		mux.Handle("/", s.base)
	}
	return mux
}

// handleIngest commits one batch. Only POST mutates the store; anything
// else is 405 so proxies and probes cannot write by accident.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "ingest accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	body := http.MaxBytesReader(w, r.Body, MaxBatchBytes)
	gzipped := strings.Contains(r.Header.Get("Content-Encoding"), "gzip")
	batch, err := DecodeBatch(countingReader{body, s.bytes}, gzipped)
	if err != nil {
		s.rejected.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := s.store.AddBatch(batch)
	s.batches.Inc()
	s.profiles.Add(uint64(n))
	s.batchNS.Observe(uint64(time.Since(t0)))
	s.ingestTelemetry(batch)
	if s.sink != nil && s.sink.Trace != nil {
		s.mu.Lock()
		s.laneInit()
		s.mu.Unlock()
		s.sink.Trace.Complete("ingest", "fleet.service",
			uint64(t0.Sub(s.t0)/time.Microsecond), uint64(time.Since(t0)/time.Microsecond),
			obs.FleetPID, 0, map[string]any{"client": batch.Client, "profiles": n})
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"accepted\": %d}\n", n)
}

// ingestTelemetry folds a batch's client-side telemetry into the service
// sink: per-client counter families (the client: name segment renders as a
// client="..." label on /metrics) and one federated trace lane per client
// under obs.FleetPID. The batches family is minted on every ingest — even
// a client that never ships a TelemetrySummary (it posted exactly one
// batch; telemetry trails by one) shows up labeled on /metrics.
func (s *Service) ingestTelemetry(b *Batch) {
	if s.sink == nil {
		return
	}
	client := b.Client
	if client == "" && b.Telemetry != nil {
		client = b.Telemetry.Ctx.Client
	}
	if client == "" {
		client = "unknown"
	}
	seg := "fleet.ingest.client:" + sanitizeClient(client) + "."
	s.sink.Counter(seg + "batches").Inc()
	t := b.Telemetry
	if t == nil {
		return
	}
	s.sink.Counter(seg + "profiles").Add(t.Profiles)
	s.sink.Counter(seg + "retries").Add(t.Retries)
	s.sink.Counter(seg + "backoff_ns").Add(t.BackoffNS)
	s.sink.Counter(seg + "wire_bytes").Add(t.WireBytes)
	s.sink.Counter(seg + "encode_ns").Add(t.EncodeNS)
	s.sink.Counter(seg + "post_ns").Add(t.PostNS)
	if s.sink.Trace == nil || len(t.Spans) == 0 {
		return
	}
	lane := s.lane(client)
	for _, ev := range t.Spans {
		ev.PID = obs.FleetPID
		ev.TID = lane
		s.sink.Trace.Emit(ev)
	}
}

// lane returns the client's federated-trace thread ID, assigning the next
// free one (1, 2, ...) on first sight.
func (s *Service) lane(client string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.laneInit()
	id, ok := s.lanes[client]
	if !ok {
		id = len(s.lanes) + 1
		s.lanes[client] = id
		s.sink.Trace.SetThreadName(obs.FleetPID, id, "client "+client)
	}
	return id
}

// laneInit names the fleet trace track group on first use. Caller holds
// s.mu.
func (s *Service) laneInit() {
	if s.lanes == nil {
		s.lanes = map[string]int{}
		s.sink.Trace.SetProcessName(obs.FleetPID, "fleet")
		s.sink.Trace.SetThreadName(obs.FleetPID, 0, "service")
	}
}

// sanitizeClient maps a client name into one metric-name segment: dots
// would split the segment, so they and whitespace become underscores.
func sanitizeClient(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', ' ', '\t', '\n', '\r':
			return '_'
		}
		return r
	}, name)
}

// countingReader feeds the ingest byte counter as the body streams through
// (compressed size: the wire cost, not the inflated one).
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

// StatsDump is the /fleet/stats response shape.
type StatsDump struct {
	Shards   int         `json:"shards"`
	Batches  uint64      `json:"batches"`
	Profiles uint64      `json:"profiles"`
	Bytes    uint64      `json:"bytes"`
	Rejected uint64      `json:"rejected"`
	Apps     []AppTotals `json:"apps"`
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	dump := StatsDump{
		Shards:   s.store.Shards(),
		Batches:  s.batches.Value(),
		Profiles: s.profiles.Value(),
		Bytes:    s.bytes.Value(),
		Rejected: s.rejected.Value(),
		Apps:     []AppTotals{},
	}
	for _, app := range s.store.Apps() {
		dump.Apps = append(dump.Apps, s.store.Totals(app))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(dump) //nolint:errcheck // best-effort over HTTP
}

// handleReport renders one app's diagnosis ranking — core.Report.Render,
// the exact text the monolithic pipeline prints, so fleet-vs-monolithic
// convergence can be compared byte for byte.
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	app := r.URL.Query().Get("app")
	if app == "" {
		apps := s.store.Apps()
		if len(apps) != 1 {
			http.Error(w, fmt.Sprintf("?app= required (have %v)", apps), http.StatusBadRequest)
			return
		}
		app = apps[0]
	}
	k := 10
	if kq := r.URL.Query().Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n < 1 {
			http.Error(w, "?k= must be a positive integer", http.StatusBadRequest)
			return
		}
		k = n
	}
	rep := s.store.Report(app)
	if rep == nil {
		http.Error(w, fmt.Sprintf("no failure profiles for app %q", app), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	io.WriteString(w, rep.Render(k)) //nolint:errcheck // best-effort over HTTP
}
