package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified; it may hold
// +Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) || pos == float64(lo) || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the tail latency every workload reports as tail_ms: the 99th
// percentile, or, with fewer than 1000 samples, the highest percentile
// that still has at least ten samples beyond it.
func tail(xs []float64) float64 {
	q := 0.99
	if n := float64(len(xs)); n < 1000 {
		q = max(0.5, 1-10/n)
	}
	return quantile(xs, q)
}

// peakTracker takes the median, over a run's operations, of the peak RSS
// each reached: one operation's peak depends on where the garbage
// collector happened to run, the median over many does not.
type peakTracker struct{ peaks []float64 }

// begin resets the kernel's peak-RSS mark before an operation.
func (t *peakTracker) begin() { resetPeakRSS(false) }

// end records the operation's peak.
func (t *peakTracker) end() error {
	p, err := peakRSSMB()
	t.peaks = append(t.peaks, p)
	return err
}

func (t *peakTracker) median() float64 { return median(t.peaks) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM), so peak_rss_mb
// covers the workload and not the input generation before it; release
// first returns freed heap to the OS.
func resetPeakRSS(release bool) {
	if release {
		runtime.GC()
		debug.FreeOSMemory()
	}
	// Best effort: without /proc/self/clear_refs the peak includes
	// preparation, which only overstates it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// stealTicks reads the CPU time the host has stolen from this machine's
// CPUs since boot, in clock ticks (the steal column of /proc/stat): time a
// virtual CPU had work while the host ran another guest. It reads 0 where
// the kernel does not report steal.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// clockTicks is the rate of the /proc/stat counters, USER_HZ, which Linux
// fixes at 100 a second for user space.
const clockTicks = 100

// stealShare is the share of the machine's CPU time over wall that the
// host stole, given the steal ticks counted over it.
func stealShare(ticks int64, wall time.Duration) float64 {
	return float64(ticks) / (wall.Seconds() * clockTicks * float64(runtime.NumCPU()))
}

// quietSlack is how far an operation's steal share may exceed the run's
// median share before the operation counts as slowed by the host. Steal is
// counted in whole ticks, so an operation of a second or two reads a few
// ticks more or less than the next one for no reason but rounding.
const quietSlack = 0.02

// quiet returns the indices of the operations that ran while the host
// stole the least CPU, given each one's steal share: those whose share is
// at most the median plus quietSlack, so at least half. A spell in which
// other guests take CPU from this one slows the kept operations much less
// than the whole set, and when there is no such spell every operation is
// kept.
func quiet(share []float64) []int {
	limit := median(share) + quietSlack
	var kept []int
	for i, s := range share {
		if s <= limit {
			kept = append(kept, i)
		}
	}
	return kept
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = xs[i]
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// rtSample is a reading of the Go runtime's cumulative GC CPU time, total
// CPU time and allocated bytes.
type rtSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: val(s[0]), totalCPU: val(s[1]), allocBytes: val(s[2])}
}

// plus adds the change from before to after to r.
func (r rtSample) plus(before, after rtSample) rtSample {
	return rtSample{
		gcCPU:      r.gcCPU + after.gcCPU - before.gcCPU,
		totalCPU:   r.totalCPU + after.totalCPU - before.totalCPU,
		allocBytes: r.allocBytes + after.allocBytes - before.allocBytes,
	}
}

// runtimeMetrics sets runtime.gc_cpu_share and runtime.alloc_bytes_per_op
// from the runtime's work over ops untraced operations.
func runtimeMetrics(out *outcome, r rtSample, ops float64) {
	out.values["runtime.gc_cpu_share"] = ratio(r.gcCPU, r.totalCPU)
	out.values["runtime.alloc_bytes_per_op"] = ratio(r.allocBytes, ops)
}

// digest hashes named documents in order; two repositories with equal
// digests hold the same names and byte-identical XML.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(name string, xml []byte) {
	fmt.Fprintf(d.h, "%s\x00%d\x00", name, len(xml))
	d.h.Write(xml)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// spanRec is one recorded span. Start and End are nanoseconds since the
// recorder's origin; Parent indexes the same log (-1 for a root); Trace is
// the document index, request number or cycle the span belongs to.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
}

// recorder keeps spans in memory, one log per goroutine so recording
// takes no lock, and writes them out when the run ends. Between
// operations, fold moves the logs' spans into per-name totals and keeps
// the first keepSpans of them for writing, so a long run's memory and
// span file stay bounded.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	logs   []*spanLog
	totals map[string]*layerTotal
	kept   []keptSpan
}

// keepSpans bounds the spans a run writes out.
const keepSpans = 100000

// keptSpan is a span with the log it came from.
type keptSpan struct {
	Log int `json:"log"`
	spanRec
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), totals: make(map[string]*layerTotal)}
}

// spanLog is one goroutine's spans.
type spanLog struct {
	r     *recorder
	id    int
	spans []spanRec
}

// log returns a new span log; use it from one goroutine only.
func (r *recorder) log() *spanLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &spanLog{r: r, id: len(r.logs)}
	r.logs = append(r.logs, l)
	return l
}

// start opens a span and returns its index for end.
func (l *spanLog) start(name string, parent int, trace int64) int {
	l.spans = append(l.spans, spanRec{Name: name, Start: int64(time.Since(l.r.origin)), End: -1, Parent: parent, Trace: trace})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.r.origin)) }

// timed records fn as one span.
func (l *spanLog) timed(name string, parent int, trace int64, fn func()) {
	i := l.start(name, parent, trace)
	fn()
	l.end(i)
}

// layerTotal aggregates the closed spans of one name.
type layerTotal struct {
	ns float64
	n  int
}

// fold moves every log's spans into the totals and the kept spans. No log
// may be recording while it runs.
func (r *recorder) fold() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.logs {
		for _, s := range l.spans {
			if s.End < 0 {
				continue
			}
			t := r.totals[s.Name]
			if t == nil {
				t = &layerTotal{}
				r.totals[s.Name] = t
			}
			t.ns += float64(s.End - s.Start)
			t.n++
			if len(r.kept) < keepSpans {
				r.kept = append(r.kept, keptSpan{l.id, s})
			}
		}
		l.spans = l.spans[:0]
	}
}

// layerTotals folds and returns the per-name totals.
func (r *recorder) layerTotals() map[string]*layerTotal {
	r.fold()
	return r.totals
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.logs {
		l.spans = l.spans[:0]
	}
	r.totals = make(map[string]*layerTotal)
	r.kept = nil
}

// sumNs returns the total nanoseconds of the named spans.
func sumNs(t map[string]*layerTotal, names ...string) float64 {
	var ns float64
	for _, n := range names {
		if lt := t[n]; lt != nil {
			ns += lt.ns
		}
	}
	return ns
}

// write stores the kept spans, one JSON object a line.
func (r *recorder) write(path string) error {
	if path == "" {
		return nil
	}
	r.fold()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
