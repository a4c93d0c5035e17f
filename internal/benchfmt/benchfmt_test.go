package benchfmt

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hummingbird/internal/report"
)

func sampleRun() *Run {
	r := NewRun("test", "2026-08-07")
	r.Rows = []Row{
		{Workload: "des", Cells: 3681, AnalysisNs: 810_000, PreProcessNs: 21_000_000, OK: true},
		{Workload: "alu", Cells: 899, AnalysisNs: 200_000, PreProcessNs: 5_000_000, OK: true},
	}
	r.Load = []LoadRow{
		{
			Workload: "sm1f", OpClass: "edit_delay", Arrivals: "poisson",
			TargetRate: 100, Sessions: 32, DurationNs: int64(10 * time.Second),
			Scheduled: 1000, Ops: 1000, Throughput: 99.7,
			P50Ns: 400_000, P90Ns: 900_000, P99Ns: 2_000_000, P999Ns: 5_000_000,
		},
	}
	r.Scaling = []ScalingRow{
		{Workload: "soc625", Cells: 103_380, Clusters: 814, Levels: 9,
			Workers: 1, AnalyzeNs: 40_000_000, Speedup: 1},
		{Workload: "soc625", Cells: 103_380, Clusters: 814, Levels: 9,
			Workers: 8, AnalyzeNs: 8_000_000, Speedup: 5,
			RecomputeNs: 3_000_000, DirtyClusters: 256},
	}
	return r
}

func TestMergeScalingReplacesByKey(t *testing.T) {
	run := sampleRun()
	run.MergeScaling([]ScalingRow{
		{Workload: "soc625", Cells: 103_380, Workers: 8, AnalyzeNs: 7_000_000, Speedup: 5.7},
		{Workload: "soc625", Cells: 1_030_000, Workers: 1, AnalyzeNs: 400_000_000, Speedup: 1},
	})
	if len(run.Scaling) != 3 {
		t.Fatalf("want 3 scaling rows after merge, got %d", len(run.Scaling))
	}
	// Sorted by (workload, cells, workers); the 8-worker row was replaced
	// in place and the 1M-cell row appended after the 100k rows.
	if run.Scaling[1].Workers != 8 || run.Scaling[1].AnalyzeNs != 7_000_000 {
		t.Fatalf("merge did not replace by key: %+v", run.Scaling)
	}
	if run.Scaling[2].Cells != 1_030_000 {
		t.Fatalf("merge order wrong: %+v", run.Scaling)
	}
}

func TestRoundTrip(t *testing.T) {
	run := sampleRun()
	var buf bytes.Buffer
	if err := Write(&buf, run); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", run, got)
	}
}

// TestScalingRowGOMAXPROCS: a scaling row's GOMAXPROCS survives a write
// and read, and a row recorded before the field existed reads as 0
// (unknown).
func TestScalingRowGOMAXPROCS(t *testing.T) {
	run := sampleRun()
	run.Scaling[1].GOMAXPROCS = 2
	var buf bytes.Buffer
	if err := Write(&buf, run); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"gomaxprocs": 2`) {
		t.Fatalf("written run lacks the gomaxprocs field:\n%s", buf.String())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scaling[0].GOMAXPROCS != 0 || got.Scaling[1].GOMAXPROCS != 2 {
		t.Fatalf("gomaxprocs read back as %d and %d, want 0 and 2",
			got.Scaling[0].GOMAXPROCS, got.Scaling[1].GOMAXPROCS)
	}
	old, err := Read(strings.NewReader(`{"schemaVersion": 1, "scaling": [
		{"workload": "soc625", "cells": 103380, "clusters": 814, "levels": 9,
		 "workers": 8, "analyzeNs": 11600000, "speedup": 0.99}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if n := old.Scaling[0].GOMAXPROCS; n != 0 {
		t.Fatalf("row without the field read gomaxprocs %d, want 0", n)
	}
}

func TestReadRejectsUnknownSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schemaVersion": 999}`)); err == nil {
		t.Fatal("want error for unknown schema version")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	run := sampleRun()
	if err := WriteFile(path, run); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "test" || got.Date != "2026-08-07" {
		t.Fatalf("metadata lost: %+v", got)
	}
	if len(got.Rows) != 2 || len(got.Load) != 1 {
		t.Fatalf("rows lost: %d rows, %d load", len(got.Rows), len(got.Load))
	}
}

func TestFromReportRow(t *testing.T) {
	row := FromReportRow(report.Row{
		Name: "des", Cells: 3681, Nets: 4000, Latches: 512,
		Clusters: 33, Passes: 40,
		PreProcess: 21 * time.Millisecond, Analysis: 810 * time.Microsecond,
		Sweeps: 3, Recomputes: 66, DelayEvals: 9000,
		IncrEdit: 42 * time.Microsecond, FullEdit: 22 * time.Millisecond,
		OpenCold: 9 * time.Millisecond, OpenShared: 4 * time.Millisecond,
		OK: true,
	})
	if row.Workload != "des" || row.AnalysisNs != 810_000 || row.IncrEditNs != 42_000 {
		t.Fatalf("conversion wrong: %+v", row)
	}
	if !row.OK || row.Cells != 3681 || row.OpenSharedNs != 4_000_000 {
		t.Fatalf("conversion wrong: %+v", row)
	}
}

func TestCompareFlagsLatencyRegression(t *testing.T) {
	old, new := sampleRun(), sampleRun()
	new.Rows[0].AnalysisNs = old.Rows[0].AnalysisNs * 2 // 2x slower analysis on des
	new.Load[0].P99Ns = old.Load[0].P99Ns * 3           // 3x p99 on the load row
	regs := Compare(old, new, 0.25)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %d: %v", len(regs), regs)
	}
	// Sorted worst-ratio first: the 3x p99 outranks the 2x analysis.
	if regs[0].Metric != "p99Ns" || regs[0].Where != "sm1f/edit_delay/poisson" {
		t.Fatalf("worst first: %+v", regs[0])
	}
	if regs[1].Metric != "analysisNs" || regs[1].Where != "des" {
		t.Fatalf("second: %+v", regs[1])
	}
	if !strings.Contains(regs[1].String(), "analysisNs") {
		t.Fatalf("String(): %s", regs[1])
	}
}

func TestCompareWithinNoiseIsClean(t *testing.T) {
	old, new := sampleRun(), sampleRun()
	new.Rows[0].AnalysisNs = old.Rows[0].AnalysisNs * 11 / 10 // +10%
	new.Load[0].Throughput = old.Load[0].Throughput * 0.95    // -5%
	if regs := Compare(old, new, 0.25); len(regs) != 0 {
		t.Fatalf("within noise, got %v", regs)
	}
}

func TestCompareFlagsThroughputAndErrors(t *testing.T) {
	old, new := sampleRun(), sampleRun()
	new.Load[0].Throughput = old.Load[0].Throughput / 2
	new.Load[0].Errors = map[string]int64{"503": 100}
	regs := Compare(old, new, 0.25)
	metrics := map[string]bool{}
	for _, r := range regs {
		metrics[r.Metric] = true
	}
	if !metrics["throughput"] || !metrics["errorRate"] {
		t.Fatalf("want throughput+errorRate regressions, got %v", regs)
	}
}

func TestCompareMissingRow(t *testing.T) {
	old, new := sampleRun(), sampleRun()
	new.Rows = new.Rows[:1]
	new.Load = nil
	regs := Compare(old, new, 0.25)
	missing := 0
	for _, r := range regs {
		if r.Metric == "missing" {
			missing++
		}
	}
	if missing != 2 {
		t.Fatalf("want 2 missing rows, got %v", regs)
	}
}

func TestCompareSkipsUntakenMeasurements(t *testing.T) {
	// A metric that is zero on either side (not measured) never flags.
	old, new := sampleRun(), sampleRun()
	old.Rows[0].IncrEditNs = 0
	new.Rows[0].IncrEditNs = 1_000_000_000
	if regs := Compare(old, new, 0.25); len(regs) != 0 {
		t.Fatalf("unmeasured metric flagged: %v", regs)
	}
}

func TestCompareOKFlip(t *testing.T) {
	old, new := sampleRun(), sampleRun()
	new.Rows[1].OK = false
	regs := Compare(old, new, 0.25)
	if len(regs) != 1 || regs[0].Metric != "ok" || regs[0].Where != "alu" {
		t.Fatalf("want ok flip on alu, got %v", regs)
	}
}

func TestMergeLoadReplacesByKey(t *testing.T) {
	run := sampleRun()
	run.MergeLoad([]LoadRow{
		{Workload: "sm1f", OpClass: "edit_delay", Arrivals: "poisson", P99Ns: 42},
		{Workload: "des", OpClass: "report", Arrivals: "const", P99Ns: 7},
	})
	if len(run.Load) != 2 {
		t.Fatalf("want 2 load rows after merge, got %d", len(run.Load))
	}
	// Sorted: des before sm1f; the sm1f row was replaced in place.
	if run.Load[0].Workload != "des" || run.Load[1].P99Ns != 42 {
		t.Fatalf("merge wrong: %+v", run.Load)
	}
}

func TestWriteComparison(t *testing.T) {
	old, new := sampleRun(), sampleRun()
	var buf bytes.Buffer
	if n := WriteComparison(&buf, old, new, 0.25); n != 0 {
		t.Fatalf("identical runs: %d regressions\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Fatalf("output: %s", buf.String())
	}
	buf.Reset()
	new.Load[0].P99Ns *= 10
	if n := WriteComparison(&buf, old, new, 0.25); n != 1 {
		t.Fatalf("want 1 regression, got %d\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("output: %s", buf.String())
	}
}
