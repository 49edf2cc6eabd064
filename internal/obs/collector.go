package obs

import (
	"sync"
	"time"
)

// StageStats aggregates the recorded durations of one named stage.
type StageStats struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Avg returns the mean duration per recorded span.
func (s StageStats) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// add folds one duration into the aggregate.
func (s *StageStats) add(d time.Duration) {
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Count++
	s.Total += d
}

// Collector is the recording Tracer: a registry of stage timings, counters
// and gauges. Safe for concurrent use; a single mutex suffices because
// recorded events are coarse (per stage or per document, not per node).
type Collector struct {
	mu       sync.Mutex
	stages   map[string]*StageStats
	counters map[string]int64
	gauges   map[string]int64
}

// NewCollector returns an empty recording tracer.
func NewCollector() *Collector {
	return &Collector{
		stages:   make(map[string]*StageStats),
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
	}
}

// span is one in-flight Collector timing; monotonic because time.Now
// carries Go's monotonic clock reading.
type span struct {
	c     *Collector
	name  string
	start time.Time
}

func (s *span) End() {
	if s == nil || s.c == nil {
		return
	}
	s.c.Observe(s.name, time.Since(s.start))
	s.c = nil // idempotent: double End records once
}

// StartSpan begins a named timed region.
func (c *Collector) StartSpan(name string) Span {
	return &span{c: c, name: name, start: time.Now()}
}

// Observe folds an externally measured duration into the named stage.
func (c *Collector) Observe(name string, d time.Duration) {
	c.mu.Lock()
	st := c.stages[name]
	if st == nil {
		st = &StageStats{}
		c.stages[name] = st
	}
	st.add(d)
	c.mu.Unlock()
}

// Add increments the named counter.
func (c *Collector) Add(name string, delta int64) {
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Set sets the named gauge.
func (c *Collector) Set(name string, v int64) {
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// Enabled reports that this tracer records.
func (c *Collector) Enabled() bool { return true }

// Stage returns a copy of the named stage's aggregate and whether it was
// ever recorded.
func (c *Collector) Stage(name string) (StageStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stages[name]
	if !ok {
		return StageStats{}, false
	}
	return *st, true
}

// Counter returns the named counter's value (0 when never incremented).
func (c *Collector) Counter(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Gauge returns the named gauge's value (0 when never set).
func (c *Collector) Gauge(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gauges[name]
}

// SetMax raises the named gauge to v if v is larger — the high-water-mark
// update used by the serving layer's peak in-flight gauge. Atomic under
// the collector's lock, so concurrent workers cannot lose a peak.
func (c *Collector) SetMax(name string, v int64) {
	c.mu.Lock()
	if v > c.gauges[name] {
		c.gauges[name] = v
	}
	c.mu.Unlock()
}

// Reset clears all recorded stages, counters and gauges.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.stages = make(map[string]*StageStats)
	c.counters = make(map[string]int64)
	c.gauges = make(map[string]int64)
	c.mu.Unlock()
}

// StagesOf extracts the per-stage aggregates from a tracer when it is a
// recording Collector, and nil otherwise — how the pipeline surfaces
// StageStats on its Repository without forcing collection on.
func StagesOf(t Tracer) map[string]StageStats {
	c, ok := t.(*Collector)
	if !ok {
		return nil
	}
	return c.Snapshot().Stages
}
