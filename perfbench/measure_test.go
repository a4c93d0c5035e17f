package main

import (
	"os"
	"testing"
	"time"

	"hummingbird/internal/telemetry/span"
)

func TestPercentileInterpolatesExactSamples(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestSpanSumsSelfTime(t *testing.T) {
	root := &span.Node{Name: "root", DurNs: 100, Children: []*span.Node{
		{Name: "core.sweep", DurNs: 60, Children: []*span.Node{{Name: "sta.recompute", DurNs: 45}}},
		{Name: "sta.recompute", DurNs: 10},
	}}
	s := newSpanSums()
	s.add(root)
	s.add(root)
	if got := s.self["root"]; got != 2*30 {
		t.Errorf("root self = %v, want 60ns", got)
	}
	if got := s.self["core.sweep"]; got != 2*15 {
		t.Errorf("sweep self = %v, want 30ns", got)
	}
	if got, n := s.dur["sta.recompute"], s.count["sta.recompute"]; got != 2*55 || n != 4 {
		t.Errorf("recompute total = %v over %d spans, want 110ns over 4", got, n)
	}
}

func TestValidResponse(t *testing.T) {
	cases := []struct {
		class int
		body  string
		want  bool
	}{
		{opEditDelay, `{"incremental":true,"worst_slack":12}`, true},
		{opEditDelay, `{"incremental":false,"worst_slack":12}`, false},
		{opEditTopo, `{"incremental":false,"worst_slack":"inf"}`, true},
		{opEditTopo, `{"worst_slack":1}`, false},
		{opReport, "{\n  \"design\": \"des\",\n  \"ok\": true,\n  \"worstPs\": 4428\n}\n", true},
		{opReport, `{"error":"no such session"}` + "\n", false},
	}
	for _, c := range cases {
		if got := validResponse(c.class, []byte(c.body)); got != c.want {
			t.Errorf("validResponse(%s, %q) = %v, want %v", opNames[c.class], c.body, got, c.want)
		}
	}
}

func TestProcCPUReadsOwnProcess(t *testing.T) {
	for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); {
	}
	got, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > selfCPU()+time.Second {
		t.Errorf("procCPU = %v, self rusage %v", got, selfCPU())
	}
}
