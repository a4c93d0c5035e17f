// Package telemetry is the analyzer's observability substrate: named
// atomic counters, histogram timers and callback gauges on the analysis
// hot paths, a JSON metrics snapshot, a Prometheus text exposition
// (prometheus.go), and structured convergence tracing (trace.go) for the
// fixed-point iterations of Algorithms 1 and 2. Request-scoped span
// tracing lives in the telemetry/span subpackage.
//
// The package is zero-dependency (stdlib only, modeled on the Go
// runtime/metrics style) and near-zero-overhead when disabled: every
// counter and timer operation first checks one process-global atomic
// flag and returns without allocating, so instrumented hot paths cost a
// single atomic load per event unless telemetry has been switched on
// with Enable. Instrumented packages declare their instruments as
// package-level variables via NewCounter/NewTimer, which registers them
// for Snapshot and Reset; registration is the only locking path.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-global switch every instrument checks on its
// fast path. Off by default: production analyses pay one atomic load
// per instrumented event.
var enabled atomic.Bool

// Enable turns metric collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns metric collection off. Accumulated values are kept
// (call Reset to zero them).
func Disable() { enabled.Store(false) }

// Enabled reports whether metric collection is on. Hot paths whose
// instrumentation needs more than a counter update (e.g. reading the
// clock) should gate that work on Enabled themselves.
func Enabled() bool { return enabled.Load() }

// registry holds every instrument created by NewCounter/NewTimer/
// NewGaugeFunc. The mutex guards registration and snapshotting only —
// never the update fast path.
var registry struct {
	mu       sync.Mutex
	counters []*Counter
	timers   []*Timer
	gauges   map[string]func() float64
}

// Counter is a monotonically increasing event count. The zero value is
// usable but unregistered; use NewCounter so Snapshot and Reset see it.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter creates and registers a named counter. Call once per name,
// at package init.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	registry.mu.Lock()
	registry.counters = append(registry.counters, c)
	registry.mu.Unlock()
	return c
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when telemetry is enabled. It never
// allocates.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// NewGaugeFunc registers a callback gauge: fn is evaluated at snapshot
// and exposition time and must be cheap, non-blocking and must not call
// back into this package (the registry lock is not held during the
// call, but a gauge that snapshots would recurse). Re-registering a
// name replaces the previous callback, so components that are rebuilt
// within one process (servers in tests) can re-point their gauges.
func NewGaugeFunc(name string, fn func() float64) {
	registry.mu.Lock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]func() float64)
	}
	registry.gauges[name] = fn
	registry.mu.Unlock()
}

// RegisterRuntimeGauges registers the process-health gauges every
// long-running binary wants on its metrics surface: goroutine count,
// heap bytes in use, and the most recent GC pause. Idempotent.
func RegisterRuntimeGauges() {
	NewGaugeFunc("runtime.goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	NewGaugeFunc("runtime.heap_alloc_bytes", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	})
	NewGaugeFunc("runtime.gc_pause_last_ns", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.NumGC == 0 {
			return 0
		}
		return float64(m.PauseNs[(m.NumGC+255)%256])
	})
}

// Timer histogram geometry: fixed exponential buckets with upper bounds
// 2^(timerMinShift+i) nanoseconds. The first bound is ~1µs (nothing on
// the analysis path that is worth a histogram resolves faster) and the
// last ~8.6s; slower observations land in the implicit +Inf bucket.
// Fixed bounds keep Observe allocation-free and make histograms from
// different processes mergeable.
const (
	timerMinShift = 10 // first upper bound: 2^10 ns ≈ 1µs
	timerBuckets  = 24 // finite buckets; bounds up to 2^33 ns ≈ 8.6s
)

// bucketIndex maps a duration in nanoseconds to its bucket: the
// smallest i with ns <= 2^(timerMinShift+i), or timerBuckets (the +Inf
// slot) when it exceeds the last finite bound.
func bucketIndex(ns int64) int {
	if ns <= 1<<timerMinShift {
		return 0
	}
	idx := bits.Len64(uint64(ns-1)) - timerMinShift
	if idx >= timerBuckets {
		return timerBuckets
	}
	return idx
}

// Timer accumulates observed durations into a fixed-bucket histogram
// (count, total nanoseconds, and one atomic cell per bucket), from
// which Snapshot derives percentiles and WritePrometheus a histogram
// exposition.
type Timer struct {
	name    string
	count   atomic.Int64
	total   atomic.Int64
	buckets [timerBuckets + 1]atomic.Int64 // last cell is +Inf
}

// NewTimer creates and registers a named timer. Call once per name, at
// package init.
func NewTimer(name string) *Timer {
	t := &Timer{name: name}
	registry.mu.Lock()
	registry.timers = append(registry.timers, t)
	registry.mu.Unlock()
	return t
}

// Name returns the timer's registered name.
func (t *Timer) Name() string { return t.name }

// Observe records one duration when telemetry is enabled. It never
// allocates.
func (t *Timer) Observe(d time.Duration) {
	if !enabled.Load() {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.total.Add(ns)
	t.buckets[bucketIndex(ns)].Add(1)
}

// counts copies the bucket cells (finite buckets then +Inf).
func (t *Timer) counts() [timerBuckets + 1]int64 {
	var c [timerBuckets + 1]int64
	for i := range t.buckets {
		c[i] = t.buckets[i].Load()
	}
	return c
}

// percentile estimates the q-quantile (0 < q <= 1) in nanoseconds from
// bucket counts by linear interpolation inside the containing bucket.
// Observations beyond the last finite bound are reported at that bound.
func percentile(counts [timerBuckets + 1]int64, count int64, q float64) int64 {
	if count <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum, lower int64
	for i, c := range counts {
		if i == timerBuckets {
			// +Inf bucket: no finite upper bound to interpolate toward.
			return lower
		}
		upper := int64(1) << (timerMinShift + i)
		if cum+c >= rank {
			frac := float64(rank-cum) / float64(c)
			return lower + int64(frac*float64(upper-lower))
		}
		cum += c
		lower = upper
	}
	return lower
}

// TimerStats is one timer's accumulated state in a snapshot. The
// percentiles are histogram estimates (linear interpolation within the
// fixed buckets), deterministic for a given sequence of observations.
// Buckets holds the per-bucket (non-cumulative) counts — timerBuckets
// finite cells in bucket-bound order plus one +Inf cell — which is what
// makes snapshots from different processes mergeable bucket-wise
// (MergeMetrics): the geometry is fixed, so merge is element-wise
// addition.
type TimerStats struct {
	Count   int64   `json:"count"`
	TotalNs int64   `json:"totalNs"`
	P50Ns   int64   `json:"p50Ns"`
	P90Ns   int64   `json:"p90Ns"`
	P99Ns   int64   `json:"p99Ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Metrics is a point-in-time copy of every registered instrument — the
// JSON metrics schema (see docs/OBSERVABILITY.md). Map keys serialise
// in sorted order, and Snapshot itself iterates instruments in name
// order, so two snapshots of the same state are byte-identical.
type Metrics struct {
	Enabled  bool                  `json:"enabled"`
	Counters map[string]int64      `json:"counters"`
	Timers   map[string]TimerStats `json:"timers"`
	Gauges   map[string]float64    `json:"gauges,omitempty"`
}

// sortRegistry orders the instrument lists by name; called with
// registry.mu held. Registration order depends on package-init order,
// so every iteration-exposing path sorts first to stay deterministic.
func sortRegistry() {
	sort.Slice(registry.counters, func(i, j int) bool {
		return registry.counters[i].name < registry.counters[j].name
	})
	sort.Slice(registry.timers, func(i, j int) bool {
		return registry.timers[i].name < registry.timers[j].name
	})
}

// Snapshot copies the current value of every registered instrument.
// Gauge callbacks are evaluated outside the registry lock.
func Snapshot() Metrics {
	registry.mu.Lock()
	sortRegistry()
	m := Metrics{
		Enabled:  enabled.Load(),
		Counters: make(map[string]int64, len(registry.counters)),
		Timers:   make(map[string]TimerStats, len(registry.timers)),
	}
	for _, c := range registry.counters {
		m.Counters[c.name] = c.v.Load()
	}
	for _, t := range registry.timers {
		n := t.count.Load()
		cs := t.counts()
		m.Timers[t.name] = TimerStats{
			Count:   n,
			TotalNs: t.total.Load(),
			P50Ns:   percentile(cs, n, 0.50),
			P90Ns:   percentile(cs, n, 0.90),
			P99Ns:   percentile(cs, n, 0.99),
			Buckets: append([]int64(nil), cs[:]...),
		}
	}
	gauges := make(map[string]func() float64, len(registry.gauges))
	for name, fn := range registry.gauges {
		gauges[name] = fn
	}
	registry.mu.Unlock()
	if len(gauges) > 0 {
		m.Gauges = make(map[string]float64, len(gauges))
		for name, fn := range gauges {
			m.Gauges[name] = fn()
		}
	}
	return m
}

// WriteSnapshot serialises Snapshot as indented JSON.
func WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Snapshot())
}

// Reset zeroes every registered instrument (telemetry state is
// process-global; benchmarks and the CLI reset between runs). Gauges
// are live callbacks and have nothing to reset.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, t := range registry.timers {
		t.count.Store(0)
		t.total.Store(0)
		for i := range t.buckets {
			t.buckets[i].Store(0)
		}
	}
}
