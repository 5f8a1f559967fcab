// Package fleet is the cooperative, fleet-scale half of the diagnosis
// pipeline. The paper's deployment model (§2, §5) is CBI-style cooperative
// sampling: many production machines each capture the short-term memory of
// their own failures and successes, and a central service aggregates those
// per-run LBR/LCR profiles into one statistical diagnosis. This package
// provides that service end to end:
//
//   - a versioned wire format for per-run profile submissions (wire.go),
//   - a sharded, lock-striped profile store whose diagnosis ranking updates
//     incrementally per committed batch (store.go),
//   - an HTTP ingestion service — /fleet/ingest, /fleet/stats,
//     /fleet/report — layered over the internal/obshttp telemetry server
//     (service.go),
//   - a batching, gzip-compressing, retrying client plus an N-machine
//     fleet simulation (client.go).
//
// The whole design preserves the repo's core invariant: because profile
// statistics are order-independent counter merges (internal/stats
// ScoreCounts/SortScored), the fleet path converges to a ranking
// byte-identical to the monolithic core.Diagnose over the same runs — for
// any client count, batch size, arrival order, or -jobs value.
package fleet

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"stmdiag/internal/core"
	"stmdiag/internal/obs"
)

// WireVersion is the submission wire-format version this build speaks.
// Ingest rejects other versions with HTTP 400 so a mixed-version fleet
// fails loudly instead of skewing counters. Version 2 added the per-batch
// TelemetrySummary.
const WireVersion = 2

// Submission is one run's diagnosis contribution: which app it ran, which
// record type it profiled, whether the run failed, and the profile reduced
// to its event set. It is self-sufficient — the server needs no access to
// the binary or the raw LBR/LCR rings — matching the paper's
// privacy-preserving failure-report bundle (§5.3): code positions and
// coherence states only.
type Submission struct {
	// App names the application the profile came from.
	App string `json:"app"`
	// Mode is the record type diagnosed (core.ModeLBR or core.ModeLCR).
	Mode core.Mode `json:"mode"`
	// Failed reports whether the run failed.
	Failed bool `json:"failed"`
	// Events is the run's profile as a presence set (duplicates collapsed,
	// first occurrence kept — the paper's §5.2 presence semantics).
	Events []core.Event `json:"events"`
}

// Batch is the unit one ingest POST carries.
type Batch struct {
	// Version must equal WireVersion.
	Version int `json:"v"`
	// Client identifies the submitting machine (diagnostics only; the
	// statistics are client-anonymous like CBI's).
	Client string `json:"client,omitempty"`
	// Subs are the batched submissions.
	Subs []Submission `json:"subs"`
	// Telemetry federates the client's own transport telemetry: the costs
	// it paid since its previous batch. The service folds it into
	// per-client-labeled metrics and the federated trace. Absent on a
	// client's first batch (telemetry trails its batch by one — a batch's
	// own encode/post cost is only known after it is sealed).
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`
}

// TelemetrySummary is the client-side telemetry delta one batch carries:
// counter deltas since the previous flush plus the client's span timings
// (wall-clock microseconds since the client was built — fleet transport
// telemetry is volatile by definition, unlike trial telemetry, which is
// cycle-clocked and deterministic).
type TelemetrySummary struct {
	// Ctx correlates the client's telemetry (Client name, RunID when the
	// pushing pipeline stamped one).
	Ctx obs.Context `json:"ctx"`
	// Batches/Profiles count what the previous flush shipped.
	Batches  uint64 `json:"batches,omitempty"`
	Profiles uint64 `json:"profiles,omitempty"`
	// Retries and BackoffNS are the re-send cost of the previous flush.
	Retries   uint64 `json:"retries,omitempty"`
	BackoffNS uint64 `json:"backoffNS,omitempty"`
	// WireBytes/EncodeNS/PostNS are the previous flush's encoded size and
	// encode/POST wall costs.
	WireBytes uint64 `json:"wireBytes,omitempty"`
	EncodeNS  uint64 `json:"encodeNS,omitempty"`
	PostNS    uint64 `json:"postNS,omitempty"`
	// Spans are the client's trace spans since the previous flush; the
	// service re-homes them onto its federated trace, one lane per client.
	Spans []obs.Event `json:"spans,omitempty"`
}

// DedupEvents collapses duplicate events preserving first-occurrence order,
// turning a raw profile event list into the presence set the statistical
// model counts. Safe on nil (returns nil).
func DedupEvents(events []core.Event) []core.Event {
	if len(events) == 0 {
		return nil
	}
	seen := make(map[core.Event]bool, len(events))
	out := make([]core.Event, 0, len(events))
	for _, e := range events {
		if seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// SubmissionsFromRuns converts captured diagnosis profiles into wire
// submissions for one app: the exact event extraction core.Diagnose applies
// (BranchEvents/CoherenceEvents via the run's own program build), deduped
// to presence sets client-side so the wire carries no redundancy.
func SubmissionsFromRuns(app string, mode core.Mode, failed bool, runs []core.ProfiledRun) []Submission {
	out := make([]Submission, 0, len(runs))
	for _, r := range runs {
		out = append(out, Submission{
			App:    app,
			Mode:   mode,
			Failed: failed,
			Events: DedupEvents(core.RunEvents(mode, r)),
		})
	}
	return out
}

// EncodeBatch serializes a batch (JSON, no compression). The version field
// is stamped here so callers cannot forget it.
func EncodeBatch(b *Batch) ([]byte, error) {
	b.Version = WireVersion
	data, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode batch: %w", err)
	}
	return data, nil
}

// EncodeBatchGzip serializes a batch and gzip-compresses it for transport
// (Content-Encoding: gzip).
func EncodeBatchGzip(b *Batch) ([]byte, error) {
	data, err := EncodeBatch(b)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		return nil, fmt.Errorf("fleet: gzip batch: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("fleet: gzip batch: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeBatch reads one batch off the wire, transparently inflating gzip
// when the transport said so, and validates the version and submission
// shape. The inflated stream is capped at MaxBatchBytes, so a small
// compressed body cannot expand without bound. Malformed or oversized
// input maps to an error the server reports as HTTP 400.
func DecodeBatch(r io.Reader, gzipped bool) (*Batch, error) {
	if gzipped {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad gzip body: %w", err)
		}
		defer zr.Close()
		r = &inflateCap{r: zr, left: MaxBatchBytes}
	}
	var b Batch
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("fleet: decode batch: %w", err)
	}
	if b.Version != WireVersion {
		return nil, fmt.Errorf("fleet: wire version %d, want %d", b.Version, WireVersion)
	}
	for i := range b.Subs {
		if b.Subs[i].App == "" {
			return nil, fmt.Errorf("fleet: submission %d has no app", i)
		}
		if m := b.Subs[i].Mode; m != core.ModeLBR && m != core.ModeLCR {
			return nil, fmt.Errorf("fleet: submission %d has unknown mode %d", i, m)
		}
	}
	return &b, nil
}

// inflateCap fails a read once more than left inflated bytes have been
// consumed, rather than truncating silently: an oversized batch surfaces
// as its own decode error instead of a confusing unexpected EOF.
type inflateCap struct {
	r    io.Reader
	left int64
}

func (c *inflateCap) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, fmt.Errorf("fleet: inflated batch exceeds %d bytes", MaxBatchBytes)
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}
