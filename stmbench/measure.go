package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement with its unit, as the result line prints
// it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named measurements. The set is an ordered map so the
// human-readable listing follows insertion order.
type metrics struct {
	names []string
	vals  map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// cpuTime is user+sys CPU consumed so far by this process and all its
// children: reaped children through RUSAGE_CHILDREN, live ones (subprocess
// workers, fleetd) through /proc, so a delta across an operation counts
// the work of processes that outlive it.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // nor for RUSAGE_CHILDREN
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	total := tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
	for _, pid := range childPIDs() {
		total += procCPU(pid)
	}
	return total
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

// procStat returns the fields of /proc/<pid>/stat after the command name.
func procStat(pid int) []string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(s[i+1:])
}

func procCPU(pid int) time.Duration {
	f := procStat(pid)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) // utime: field 14 of stat
	st, _ := strconv.ParseInt(f[12], 10, 64) // stime: field 15
	return time.Duration(ut+st) * time.Second / clockTick
}

// childPIDs lists this process's live children.
func childPIDs() []int {
	self := strconv.Itoa(os.Getpid())
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f := procStat(pid); len(f) > 1 && f[1] == self {
			out = append(out, pid)
		}
	}
	return out
}

func procHWM(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// resetPeakRSS returns this process's free heap to the OS and restarts the
// peak-RSS count (VmHWM) of the process and its live children, so the next
// peakRSSMB covers one operation only, from a baseline that does not depend
// on when the runtime last scavenged.
func resetPeakRSS() {
	debug.FreeOSMemory()
	for _, pid := range append(childPIDs(), os.Getpid()) {
		clearPeakRSS(pid)
	}
}

// clearPeakRSS restarts a process's VmHWM count. Best effort: a child that
// just exited has nothing to reset.
func clearPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB returns the peak RSS since the last resetPeakRSS, in MiB: this
// process plus its largest live child (a subprocess worker or fleetd).
func peakRSSMB() float64 {
	var child int64
	for _, pid := range childPIDs() {
		child = max(child, procHWM(pid))
	}
	return float64(procHWM(os.Getpid())+child) / 1024
}

// selfCPU is the user+sys CPU this process has consumed so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAlloc returns the bytes and objects this process has allocated so
// far.
func heapAlloc() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// span is one timed interval the benchmark recorded around a call into the
// program: a row or table call, an HTTP request, or a layer call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // operation this span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the benchmark started
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; it is written out once, at the end. A nil
// *spanLog records nothing (the untraced runs).
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (l *spanLog) begin(name string, parent, op int) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.t0).Nanoseconds()
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// add records a span whose interval the caller measured.
func (l *spanLog) add(name string, parent, op int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
}

// spanCtx is where new spans go: the log (nil records nothing), the
// operation they belong to and their parent span.
type spanCtx struct {
	log        *spanLog
	op, parent int
}

// begin opens a child span and returns the context for its own children
// and the function that closes it.
func (c spanCtx) begin(name string) (spanCtx, func()) {
	id, end := c.log.begin(name, c.parent, c.op)
	return spanCtx{log: c.log, op: c.op, parent: id}, end
}

// add records a child span the caller timed.
func (c spanCtx) add(name string, start, end time.Time) {
	c.log.add(name, c.parent, c.op, start, end)
}

// layerOf maps a span name ("fleet.ingest", "harness.row:sort") to its
// layer, the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span its child spans cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		cur, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// durations returns the durations of every span with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as Chrome trace_event JSON (complete events, one
// track per operation) beside their raw form.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, event{Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "spans": l.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
