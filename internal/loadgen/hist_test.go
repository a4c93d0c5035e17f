package loadgen

import (
	"math/rand"
	"testing"
	"time"
)

func TestHistIndexMonotone(t *testing.T) {
	prev := 0
	for ns := int64(0); ns < int64(10*time.Second); ns = ns*5/4 + 1 {
		idx := histIndex(ns)
		if idx < prev {
			t.Fatalf("index not monotone at %d: %d < %d", ns, idx, prev)
		}
		if idx >= histBuckets {
			t.Fatalf("index %d out of range at %d", idx, ns)
		}
		prev = idx
	}
	if histIndex(-5) != 0 {
		t.Fatalf("negative values must land in bucket 0")
	}
	if histIndex(1<<62) != histBuckets-1 {
		t.Fatalf("huge values must saturate into the last bucket")
	}
}

func TestHistBoundCoversIndex(t *testing.T) {
	// Every value must be at or below the upper bound of its bucket, and
	// bounds must strictly increase.
	for ns := int64(1); ns < int64(time.Minute); ns = ns*3/2 + 7 {
		idx := histIndex(ns)
		if b := histBound(idx); ns > b {
			t.Fatalf("value %d above its bucket bound %d (bucket %d)", ns, b, idx)
		}
	}
	prev := int64(0)
	for i := 0; i < histBuckets; i++ {
		b := histBound(i)
		if b <= prev {
			t.Fatalf("bound %d at bucket %d not increasing (prev %d)", b, i, prev)
		}
		prev = b
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// Uniform latencies 1..100ms: quantile estimates must land within the
	// histogram's ~6% relative resolution (plus one bucket's slack).
	var h hist
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		h.record(time.Duration(1+rnd.Int63n(100)) * time.Millisecond)
	}
	s := h.stats()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"p50", s.P50, 50e6},
		{"p90", s.P90, 90e6},
		{"p99", s.P99, 99e6},
		{"p999", s.P999, 100e6},
	}
	for _, c := range checks {
		ratio := float64(c.got) / float64(c.want)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%s = %d, want within 10%% of %d", c.name, c.got, c.want)
		}
	}
	if s.Count != 100_000 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Max > int64(100*time.Millisecond) || s.Max < int64(99*time.Millisecond) {
		t.Fatalf("max %d", s.Max)
	}
	// The p999 estimate can never exceed the recorded maximum.
	if s.P999 > s.Max {
		t.Fatalf("p999 %d above max %d", s.P999, s.Max)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h hist
	s := h.stats()
	if s.P50 != 0 || s.P999 != 0 || s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty histogram stats: %+v", s)
	}
}

func TestMixTable(t *testing.T) {
	classes, cum := mixTable(map[string]float64{
		OpEditDelay: 3, OpReport: 1, OpEditTopo: 0,
	})
	if len(classes) != 2 {
		t.Fatalf("zero-weight class kept: %v", classes)
	}
	// Deterministic class order (sorted), cumulative weights normalised.
	if classes[0] != OpEditDelay || classes[1] != OpReport {
		t.Fatalf("classes %v", classes)
	}
	if cum[1] < 0.999 || cum[1] > 1.001 {
		t.Fatalf("cum %v", cum)
	}
	if got := pickClass(classes, cum, 0.5); got != OpEditDelay {
		t.Fatalf("0.5 -> %s", got)
	}
	if got := pickClass(classes, cum, 0.9); got != OpReport {
		t.Fatalf("0.9 -> %s", got)
	}
}

func TestPoissonMeanInterval(t *testing.T) {
	// The Poisson schedule's mean inter-arrival must approximate 1/rate.
	rnd := rand.New(rand.NewSource(42))
	rate := 1000.0
	interval := float64(time.Second) / rate
	const n = 20_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += rnd.ExpFloat64() * interval
	}
	m := sum / n
	if m < interval*0.95 || m > interval*1.05 {
		t.Fatalf("poisson mean gap %.0fns, want ~%.0fns", m, interval)
	}
}
