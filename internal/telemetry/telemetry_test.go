package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndTimerRespectEnable(t *testing.T) {
	c := NewCounter("test.counter")
	tm := NewTimer("test.timer")
	Disable()
	c.Inc()
	tm.Observe(time.Millisecond)
	if c.v.Load() != 0 {
		t.Fatalf("disabled counter advanced: %d", c.v.Load())
	}
	Enable()
	defer Disable()
	c.Add(3)
	tm.Observe(2 * time.Millisecond)
	if c.v.Load() != 3 {
		t.Fatalf("counter = %d, want 3", c.v.Load())
	}
	m := Snapshot()
	if m.Counters["test.counter"] != 3 {
		t.Fatalf("snapshot counter = %d", m.Counters["test.counter"])
	}
	ts := m.Timers["test.timer"]
	if ts.Count != 1 || ts.TotalNs != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("snapshot timer = %+v", ts)
	}
	if !m.Enabled {
		t.Fatal("snapshot not marked enabled")
	}
	Reset()
	if c.v.Load() != 0 || Snapshot().Timers["test.timer"].Count != 0 {
		t.Fatal("reset did not zero instruments")
	}
}

// TestHotPathNeverAllocates: the per-sweep instrumentation budget is
// zero allocations whether telemetry is on or off (the CLI promises a
// no-alloc disabled path; enabled counters are plain atomics).
func TestHotPathNeverAllocates(t *testing.T) {
	c := NewCounter("test.counter.alloc")
	tm := NewTimer("test.timer.alloc")
	for _, on := range []bool{false, true} {
		if on {
			Enable()
		} else {
			Disable()
		}
		n := testing.AllocsPerRun(1000, func() {
			c.Add(1)
			tm.Observe(time.Microsecond)
		})
		Disable()
		if n != 0 {
			t.Fatalf("enabled=%v: %v allocs per op, want 0", on, n)
		}
	}
}

func TestWriteSnapshotJSON(t *testing.T) {
	c := NewCounter("test.counter.json")
	Enable()
	defer func() { Disable(); Reset() }()
	c.Add(7)
	var sb strings.Builder
	if err := WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"enabled": true`, `"counters"`, `"test.counter.json": 7`, `"timers"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot JSON lacks %q:\n%s", want, out)
		}
	}
}

func TestTracerEmitsStructuredLines(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	tr.Sweep(SweepEvent{Iteration: "forward", Sweep: 2, Moved: 5, Recomputed: 3, WorstSlackPs: -120})
	line := sb.String()
	for _, want := range []string{"msg=sweep", "iteration=forward", "sweep=2", "moved=5", "recomputed=3", "worst_slack_ps=-120"} {
		if !strings.Contains(line, want) {
			t.Fatalf("trace line lacks %q: %s", want, line)
		}
	}
	if strings.Contains(line, "time=") {
		t.Fatalf("trace line not deterministic: %s", line)
	}
}

func TestTimerHistogramPercentiles(t *testing.T) {
	tm := NewTimer("test.timer.hist")
	Enable()
	defer func() { Disable(); Reset() }()
	// 90 fast observations and 10 slow ones: p50 must land in the fast
	// bucket's range, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		tm.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		tm.Observe(80 * time.Millisecond)
	}
	ts := Snapshot().Timers["test.timer.hist"]
	if ts.Count != 100 {
		t.Fatalf("count = %d", ts.Count)
	}
	// 100µs falls in the (65.536µs, 131.072µs] bucket.
	if ts.P50Ns <= 65_536 || ts.P50Ns > 131_072 {
		t.Fatalf("p50 = %dns, want within (65536, 131072]", ts.P50Ns)
	}
	// 80ms falls in the (67.1ms, 134.2ms] bucket.
	if ts.P99Ns <= 67_108_864 || ts.P99Ns > 134_217_728 {
		t.Fatalf("p99 = %dns, want within (67108864, 134217728]", ts.P99Ns)
	}
	if ts.P50Ns > ts.P90Ns || ts.P90Ns > ts.P99Ns {
		t.Fatalf("percentiles not monotonic: %+v", ts)
	}
}

func TestTimerOverflowBucket(t *testing.T) {
	tm := NewTimer("test.timer.overflow")
	Enable()
	defer func() { Disable(); Reset() }()
	tm.Observe(time.Hour) // beyond the last finite bound
	ts := Snapshot().Timers["test.timer.overflow"]
	if ts.Count != 1 || ts.TotalNs != time.Hour.Nanoseconds() {
		t.Fatalf("overflow observation lost: %+v", ts)
	}
	// Percentiles of overflow-only data report the last finite bound.
	if want := int64(1) << (timerMinShift + timerBuckets - 1); ts.P99Ns != want {
		t.Fatalf("p99 = %d, want capped at %d", ts.P99Ns, want)
	}
}

// TestSnapshotDeterministic: two snapshots of the same state must be
// byte-identical JSON, whatever order instruments registered in.
func TestSnapshotDeterministic(t *testing.T) {
	NewCounter("test.det.zz")
	NewCounter("test.det.aa")
	NewTimer("test.det.ztimer")
	NewTimer("test.det.atimer")
	a, err := json.Marshal(Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
	if !reflect.DeepEqual(Snapshot(), Snapshot()) {
		t.Fatal("snapshot structs differ")
	}
}

func TestGaugeFunc(t *testing.T) {
	v := 41.0
	NewGaugeFunc("test.gauge", func() float64 { return v })
	v = 42.0
	if got := Snapshot().Gauges["test.gauge"]; got != 42.0 {
		t.Fatalf("gauge = %v, want 42 (live callback)", got)
	}
	// Re-registration replaces.
	NewGaugeFunc("test.gauge", func() float64 { return 7 })
	if got := Snapshot().Gauges["test.gauge"]; got != 7 {
		t.Fatalf("re-registered gauge = %v, want 7", got)
	}
}

func TestWritePrometheusValidExposition(t *testing.T) {
	c := NewCounter("test.prom.counter")
	tm := NewTimer("test.prom.timer")
	NewGaugeFunc("test.prom.gauge", func() float64 { return 1.5 })
	RegisterRuntimeGauges()
	Enable()
	defer func() { Disable(); Reset() }()
	c.Add(5)
	tm.Observe(3 * time.Millisecond)
	tm.Observe(2 * time.Second)
	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"hb_test_prom_counter_total 5",
		"# TYPE hb_test_prom_counter_total counter",
		"# TYPE hb_test_prom_timer_seconds histogram",
		`hb_test_prom_timer_seconds_bucket{le="+Inf"} 2`,
		"hb_test_prom_timer_seconds_count 2",
		"hb_test_prom_gauge 1.5",
		"hb_runtime_goroutines",
		"hb_runtime_heap_alloc_bytes",
		"hb_runtime_gc_pause_last_ns",
		"hb_telemetry_enabled 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, out)
	}
}

func TestCheckExpositionRejectsGarbage(t *testing.T) {
	for name, text := range map[string]string{
		"empty":          "",
		"untyped sample": "some_metric 1\n",
		"bad value":      "# TYPE m counter\nm one\n",
		"bad name":       "# TYPE 9bad counter\n9bad 1\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf":    "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n",
	} {
		if err := CheckExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

// TestConcurrentSnapshotIncObserve hammers the registry from many
// goroutines; run under -race this is the satellite guarantee that
// Snapshot/Inc/Observe never data-race.
func TestConcurrentSnapshotIncObserve(t *testing.T) {
	c := NewCounter("test.conc.counter")
	tm := NewTimer("test.conc.timer")
	Enable()
	defer func() { Disable(); Reset() }()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				tm.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = Snapshot()
				var sb strings.Builder
				if err := WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.v.Load(); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
	if ts := Snapshot().Timers["test.conc.timer"]; ts.Count != 2000 {
		t.Fatalf("timer count = %d, want 2000", ts.Count)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Sweep(SweepEvent{Iteration: "forward"}) // must not panic
	if n := testing.AllocsPerRun(100, func() {
		tr.Sweep(SweepEvent{Iteration: "forward"})
	}); n != 0 {
		t.Fatalf("nil tracer allocates: %v", n)
	}
}
