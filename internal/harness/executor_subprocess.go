package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"stmdiag/internal/obs"
)

// SubprocExecutor runs portable trials in a fleet of worker subprocesses —
// the multi-process executor of the durable-trial pipeline. Process
// isolation means a trial that takes its worker down (a real segfault, an
// OOM kill, a hung loop) costs one worker, not the coordinating run: the
// executor kills and respawns the worker and retries the trial with capped
// exponential backoff, and only a trial that keeps killing workers is
// surfaced as an execution failure (which the pool degrades onto the
// insufficient-evidence path).
//
// Protocol: JSON lines over stdin/stdout, strictly one request then one
// response per worker at a time. There are no message IDs — any protocol
// error (bad JSON, EOF, timeout) is grounds for killing the worker, so a
// stream can never desynchronize. Trial results are byte-identical to the
// in-process executor's by construction: both funnel through executeWire.
type SubprocExecutor struct {
	opts SubprocOptions

	mu      sync.Mutex
	idle    []*subprocWorker
	closed  bool
	spawned int // total workers ever spawned; the next worker's ordinal

	spawns, respawns, timeouts, retries, failures, trials *obs.Counter
	// live tracks currently running worker processes; /healthz reads it to
	// tell a healthy pool from one whose workers keep dying.
	live *obs.Gauge
}

// WorkerStderrTail is how much of a worker's most recent stderr the
// executor retains — the crash-debugging analogue of the paper's bounded
// short-term records: small, always-on, read only after the failure.
const WorkerStderrTail = 2 << 10

// SubprocOptions configures the subprocess executor.
type SubprocOptions struct {
	// Bin is the worker binary; "" uses the current executable (every
	// harness binary doubles as a worker via cliobs.New).
	Bin string
	// Args are extra arguments passed to the worker binary.
	Args []string
	// Workers caps concurrently live worker processes; <= 0 means no cap
	// beyond the pool's own parallelism (one worker per concurrent trial).
	Workers int
	// Timeout bounds one trial round trip; 0 means DefaultTrialTimeout.
	Timeout time.Duration
	// Retries is how many times a failed round trip (worker crash,
	// timeout, protocol error) is retried on a fresh worker before the
	// trial is reported failed; 0 means DefaultSubprocRetries.
	Retries int
	// Backoff is the initial delay between retries, doubling per attempt
	// and capped at BackoffCap; 0 means DefaultSubprocBackoff.
	Backoff time.Duration
	// BackoffCap caps the doubled backoff; 0 means DefaultSubprocBackoffCap.
	BackoffCap time.Duration
	// Env is extra environment for workers (beyond the inherited one and
	// the WorkerEnv marker).
	Env []string
	// Sink receives executor counters ("harness.executor.*"); may be nil.
	Sink *obs.Sink
}

// Subprocess executor defaults.
const (
	DefaultTrialTimeout      = 2 * time.Minute
	DefaultSubprocRetries    = 2
	DefaultSubprocBackoff    = 50 * time.Millisecond
	DefaultSubprocBackoffCap = 2 * time.Second
)

// NewSubprocExecutor builds the executor; workers spawn lazily, one per
// concurrent Run call (bounded by the pool's worker count and Workers).
func NewSubprocExecutor(opts SubprocOptions) (*SubprocExecutor, error) {
	if opts.Bin == "" {
		bin, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("harness: locate worker binary: %w", err)
		}
		opts.Bin = bin
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTrialTimeout
	}
	if opts.Retries <= 0 {
		opts.Retries = DefaultSubprocRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultSubprocBackoff
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultSubprocBackoffCap
	}
	e := &SubprocExecutor{opts: opts}
	s := opts.Sink
	e.spawns = s.Counter("harness.executor.spawns")
	e.respawns = s.Counter("harness.executor.respawns")
	e.timeouts = s.Counter("harness.executor.timeouts")
	e.retries = s.Counter("harness.executor.retries")
	e.failures = s.Counter("harness.executor.failures")
	e.trials = s.Counter("harness.executor.trials")
	e.live = s.Gauge("harness.executor.workers.live")
	return e, nil
}

// tailWriter retains the last max bytes written through it (and tees every
// write to out, preserving the worker's live stderr passthrough).
type tailWriter struct {
	out io.Writer
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailWriter) Write(p []byte) (int, error) {
	if t.out != nil {
		_, _ = t.out.Write(p)
	}
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	t.mu.Unlock()
	return len(p), nil
}

// Tail returns the retained window.
func (t *tailWriter) Tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// subprocWorker is one live worker process and its pipes.
type subprocWorker struct {
	id     int // spawn ordinal; labels per-worker counters and trace lanes
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	enc    *json.Encoder
	stderr *tailWriter
	dead   sync.Once
	live   *obs.Gauge
}

// spawn starts one worker process, stamping its ordinal into the
// environment so the worker's telemetry context knows which lane it is.
func (e *SubprocExecutor) spawn() (*subprocWorker, error) {
	e.mu.Lock()
	id := e.spawned
	e.spawned++
	e.mu.Unlock()
	cmd := exec.Command(e.opts.Bin, e.opts.Args...)
	cmd.Env = append(append(os.Environ(),
		WorkerEnv+"=1",
		fmt.Sprintf("%s=%d", WorkerIDEnv, id)), e.opts.Env...)
	stderr := &tailWriter{out: os.Stderr, max: WorkerStderrTail}
	cmd.Stderr = stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		in.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		in.Close()
		return nil, fmt.Errorf("harness: start worker %s: %w", e.opts.Bin, err)
	}
	e.spawns.Inc()
	e.live.Add(1)
	return &subprocWorker{
		id: id, cmd: cmd, in: in,
		out: bufio.NewReader(outPipe), enc: json.NewEncoder(in),
		stderr: stderr, live: e.live,
	}, nil
}

// kill terminates a worker and reaps it; idempotent.
func (w *subprocWorker) kill() {
	w.dead.Do(func() {
		w.in.Close()
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		_ = w.cmd.Wait()
		w.live.Add(-1)
	})
}

// checkout hands the caller an idle worker, spawning when none is free.
func (e *SubprocExecutor) checkout() (*subprocWorker, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("harness: executor is closed")
	}
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return w, nil
	}
	e.mu.Unlock()
	return e.spawn()
}

// checkin returns a healthy worker to the freelist (or kills it if the
// executor closed, or the freelist is already at the worker cap).
func (e *SubprocExecutor) checkin(w *subprocWorker) {
	e.mu.Lock()
	if !e.closed && (e.opts.Workers <= 0 || len(e.idle) < e.opts.Workers) {
		e.idle = append(e.idle, w)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	w.kill()
}

// roundTrip sends one request to w and reads its response, bounded by the
// per-trial timeout. On any failure the worker is killed (the response
// stream cannot be trusted after an error) and the error returned.
func (e *SubprocExecutor) roundTrip(w *subprocWorker, req *TrialRequest) (*TrialResponse, error) {
	type result struct {
		resp *TrialResponse
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		if err := w.enc.Encode(req); err != nil {
			ch <- result{nil, fmt.Errorf("send trial: %w", err)}
			return
		}
		line, err := w.out.ReadBytes('\n')
		if err != nil {
			ch <- result{nil, fmt.Errorf("read response: %w", err)}
			return
		}
		var resp TrialResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			ch <- result{nil, fmt.Errorf("decode response: %w", err)}
			return
		}
		ch <- result{&resp, nil}
	}()
	timer := time.NewTimer(e.opts.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			w.kill()
			return nil, r.err
		}
		return r.resp, nil
	case <-timer.C:
		e.timeouts.Inc()
		// Killing the worker unblocks the reader goroutine via pipe EOF.
		w.kill()
		return nil, fmt.Errorf("trial %q/%d timed out after %v", req.Stream, req.Index, e.opts.Timeout)
	}
}

// ExecutorError is a trial the execution infrastructure could not complete:
// every worker attempt crashed, hung or broke protocol. It carries the
// last crashed worker's stderr tail and the crash flight events, so the
// TrialError the pool degrades it into is debuggable instead of silent.
type ExecutorError struct {
	Stream     string
	Trial      int
	Attempts   int
	StderrTail string
	Events     []obs.FlightEvent
	Err        error // last underlying round-trip error
}

func (e *ExecutorError) Error() string {
	msg := fmt.Sprintf("harness: trial %q/%d failed after %d worker attempts: %v",
		e.Stream, e.Trial, e.Attempts, e.Err)
	if e.StderrTail != "" {
		msg += fmt.Sprintf("\nworker stderr tail (%d bytes):\n%s", len(e.StderrTail), e.StderrTail)
	}
	return msg
}

func (e *ExecutorError) Unwrap() error { return e.Err }

// noteCrash records one worker death: a flight event on the executor's
// sink (kind executor-crash, stderr tail in the detail) that /healthz and
// the flight-recorder endpoint surface as the last-crash reason. Crash
// events exist only when infrastructure actually fails, so they are exempt
// from the ring's cross-jobs identity rule.
func (e *SubprocExecutor) noteCrash(w *subprocWorker, req *TrialRequest, attempt int, err error) obs.FlightEvent {
	detail := fmt.Sprintf("worker %d: %v", w.id, err)
	if tail := w.stderr.Tail(); tail != "" {
		detail += "; stderr: " + tail
	}
	ev := obs.FlightEvent{
		Cycle: e.opts.Sink.Cycles(), Trial: req.Index, Attempt: attempt,
		Kind: obs.FlightExecutorCrash, Detail: detail,
	}
	e.opts.Sink.RecordFlight(ev)
	return ev
}

// Run executes one trial on a worker, retrying on a fresh worker with
// capped exponential backoff when the worker crashes, hangs or breaks
// protocol. Trial-level failures (rejects, degradations) are not executor
// failures — they ride inside the TrialResponse. An infrastructure failure
// comes back as an *ExecutorError carrying the last worker's stderr tail.
func (e *SubprocExecutor) Run(req *TrialRequest) (*TrialResponse, error) {
	e.trials.Inc()
	var (
		lastErr  error
		lastTail string
		crashes  []obs.FlightEvent
	)
	backoff := e.opts.Backoff
	for attempt := 0; attempt <= e.opts.Retries; attempt++ {
		if attempt > 0 {
			e.retries.Inc()
			e.respawns.Inc()
			time.Sleep(backoff)
			backoff *= 2
			if backoff > e.opts.BackoffCap {
				backoff = e.opts.BackoffCap
			}
		}
		w, err := e.checkout()
		if err != nil {
			lastErr = err
			continue
		}
		e.opts.Sink.Counter(fmt.Sprintf("harness.executor.worker%d.trials", w.id)).Inc()
		resp, err := e.roundTrip(w, req)
		if err != nil {
			lastErr = err
			lastTail = w.stderr.Tail()
			crashes = append(crashes, e.noteCrash(w, req, attempt, err))
			continue
		}
		e.checkin(w)
		return resp, nil
	}
	e.failures.Inc()
	return nil, &ExecutorError{
		Stream: req.Stream, Trial: req.Index, Attempts: e.opts.Retries + 1,
		StderrTail: lastTail, Events: crashes, Err: lastErr,
	}
}

// Close kills every idle worker. Workers checked out by in-flight Run
// calls are killed or reaped by their own round trips.
func (e *SubprocExecutor) Close() error {
	e.mu.Lock()
	workers := e.idle
	e.idle = nil
	e.closed = true
	e.mu.Unlock()
	for _, w := range workers {
		w.kill()
	}
	return nil
}

var _ Executor = (*SubprocExecutor)(nil)
