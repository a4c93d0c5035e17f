package sta

import (
	"bytes"
	"strings"
	"testing"

	"hummingbird/internal/telemetry"
)

// TestParallelWorkerTelemetry: the scheduler's utilisation surface — the
// per-worker busy timer and the steal counter — must render on the
// Prometheus exposition (the /metrics endpoint serves exactly this
// writer's output) and the whole exposition must stay parseable.
func TestParallelWorkerTelemetry(t *testing.T) {
	withProcs(t, 4)
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	cd := socFixture(t, 48, 6, 2, 0x7E1)
	st := NewState(cd)
	steals0 := count(mSteals)
	// A worker that drains its own queue pulls from the others' cursors;
	// with several workers over a finite chunk list at least one steal is
	// all but certain per run. Loop a few runs to make it deterministic.
	for i := 0; i < 10 && count(mSteals) == steals0; i++ {
		AnalyzeParallel(cd, st, 4)
	}
	if count(mSteals) == steals0 {
		t.Fatal("no steal recorded across 10 parallel runs")
	}

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"hb_sta_worker_busy_seconds", // per-worker utilisation histogram
		"hb_sta_steals_total",        // chunks executed off another worker's queue
		"hb_sta_parallel_runs_total",
		"hb_sta_parallel_worker_busy_ns_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// count reads a counter's value from a metrics snapshot.
func count(c *telemetry.Counter) int64 { return telemetry.Snapshot().Counters[c.Name()] }
