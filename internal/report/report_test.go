package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

func loadFig1(t *testing.T) (*core.Analyzer, *core.Report) {
	t.Helper()
	lib := celllib.Default()
	a, err := core.Load(lib, workload.Figure1(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	return a, rep
}

func TestTable1Format(t *testing.T) {
	var sb strings.Builder
	Table1(&sb, []Row{
		{Name: "des", Cells: 3681, Nets: 3700, Latches: 512, Clusters: 17, Passes: 17,
			PreProcess: 12 * time.Millisecond, Analysis: 3 * time.Millisecond, Sweeps: 4, OK: true},
		{Name: "alu", Cells: 899, Nets: 901, Latches: 64, Clusters: 5, Passes: 5,
			PreProcess: 900 * time.Microsecond, Analysis: 120 * time.Microsecond, Sweeps: 3, OK: true},
	})
	out := sb.String()
	for _, want := range []string{"des", "3681", "alu", "899", "preprocess", "analysis", "12.00ms", "120.0µs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count %d", len(lines))
	}
}

func TestFmtDur(t *testing.T) {
	if got := fmtDur(500 * time.Nanosecond); got != "0.5µs" {
		t.Fatalf("fmtDur ns = %q", got)
	}
	if got := fmtDur(2500 * time.Millisecond); got != "2.500s" {
		t.Fatalf("fmtDur s = %q", got)
	}
}

func TestSummaryAndPlan(t *testing.T) {
	a, rep := loadFig1(t)
	var sb strings.Builder
	Summary(&sb, a, rep)
	out := sb.String()
	if !strings.Contains(out, "figure1") || !strings.Contains(out, "VERDICT") {
		t.Fatalf("summary:\n%s", out)
	}
	sb.Reset()
	Plan(&sb, a)
	out = sb.String()
	if !strings.Contains(out, "passes") || !strings.Contains(out, "break at") {
		t.Fatalf("plan:\n%s", out)
	}
	// The Figure 1 centre cluster shows two passes.
	if !strings.Contains(out, "2 passes") {
		t.Fatalf("no 2-pass cluster in plan:\n%s", out)
	}
}

func TestSlacksOutput(t *testing.T) {
	a, rep := loadFig1(t)
	var sb strings.Builder
	Slacks(&sb, a, rep.Result, 5)
	out := strings.TrimSpace(sb.String())
	lines := strings.Split(out, "\n")
	if len(lines) < 2 || len(lines) > 6 {
		t.Fatalf("slack lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "net") || !strings.Contains(lines[0], "slack") {
		t.Fatalf("header missing:\n%s", out)
	}
}

func TestSlowPathsOutput(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(`
design slow
clock phi period 1ns rise 0 fall 400ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g2b INV_X1 A=n2 Y=n2b
inst g2c INV_X1 A=n2b Y=n2c
inst f2 DFF_X1 D=n2c CK=phi Q=q2
inst g3 BUF_X1 A=q2 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("fixture should be slow")
	}
	var sb strings.Builder
	SlowPaths(&sb, a, rep, 3)
	out := sb.String()
	if !strings.Contains(out, "slow path 1:") || !strings.Contains(out, "slack") {
		t.Fatalf("slow paths:\n%s", out)
	}
	if !strings.Contains(out, "through g") {
		t.Fatalf("path instances missing:\n%s", out)
	}
	// Constraints dump.
	c, err := a.GenerateConstraints()
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	Constraints(&sb, a, c, []string{"n1", "nonexistent"})
	out = sb.String()
	if !strings.Contains(out, "n1") || !strings.Contains(out, "unknown net") {
		t.Fatalf("constraints:\n%s", out)
	}
}

func TestClockSkewReport(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(`
design skew
clock phi period 10ns rise 0 fall 4ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst cb1 BUF_X1 A=phi Y=ck1
inst cb2 BUF_X1 A=ck1 Y=ck2
inst l1 DLATCH_X1 D=IN G=phi Q=q1
inst l2 DLATCH_X1 D=q1 G=ck2 Q=q2
inst g1 BUF_X1 A=q2 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ClockSkew(&sb, a)
	out := sb.String()
	if !strings.Contains(out, "phi") || !strings.Contains(out, "skew") {
		t.Fatalf("skew report:\n%s", out)
	}
	// l1 sees zero control delay, l2 a two-buffer tree: nonzero skew.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("skew line count:\n%s", out)
	}
	if strings.Contains(lines[1], " 0ns") && strings.Count(lines[1], "0ns") > 2 {
		t.Fatalf("skew should be nonzero:\n%s", out)
	}
}

func TestEndpointsReport(t *testing.T) {
	a, rep := loadFig1(t)
	var sb strings.Builder
	Endpoints(&sb, a, rep.Result, 6)
	out := strings.TrimSpace(sb.String())
	lines := strings.Split(out, "\n")
	if len(lines) != 7 {
		t.Fatalf("endpoint lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "element") || !strings.Contains(lines[0], "terminal") {
		t.Fatalf("header:\n%s", out)
	}
	// Sorted tightest first: extract slacks? Just check both kinds appear.
	if !strings.Contains(out, "capture") || !strings.Contains(out, "launch") {
		t.Fatalf("terminal kinds missing:\n%s", out)
	}
}

func TestStatsLine(t *testing.T) {
	lib := celllib.Default()
	d := workload.SM1F()
	var sb strings.Builder
	Stats(&sb, d, d.Stats(lib))
	if !strings.Contains(sb.String(), "sm1f") {
		t.Fatal(sb.String())
	}
}

// TestNetCountMatchesNetTable: the reports take the net count from the
// elaborated network's net table instead of re-deriving it, so for every
// workload generator — SM1H's hierarchy included — Stats' count, the
// sorted NetNames list and the compiled design's Nets must agree.
func TestNetCountMatchesNetTable(t *testing.T) {
	lib := celllib.Default()
	gen := func(d *netlist.Design, err error) *netlist.Design {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	designs := []*netlist.Design{
		gen(workload.Pipeline(workload.PipeConfig{Name: "pipe", Stages: 8, Width: 6, Depth: 3, Seed: 7})),
		gen(workload.DES()), gen(workload.ALU()),
		workload.SM1F(), workload.SM1H(), workload.Figure1(),
		gen(workload.Scaling(2000, 1)),
		gen(workload.DESGated()), gen(workload.DESMultiFreq()),
		gen(workload.SoC(8, 8, 4, 3)), gen(workload.SoCCells(2000, 1)),
	}
	for _, d := range designs {
		a, err := core.Load(lib, d, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		stats, names, table := d.Stats(lib).Nets, len(d.NetNames()), len(a.CD.Nets)
		if stats != names || names != table {
			t.Errorf("%s: Stats counts %d nets, NetNames lists %d, the compiled net table %d", d.Name, stats, names, table)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	a, rep := loadFig1(t)
	var sb strings.Builder
	if err := WriteJSON(&sb, a, rep); err != nil {
		t.Fatal(err)
	}
	var back JSONResult
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Design != "figure1" || !back.OK {
		t.Fatalf("header: %+v", back)
	}
	if back.Clusters != 5 || back.Passes != 6 {
		t.Fatalf("plan summary: %+v", back)
	}
	if len(back.NetSlacks) == 0 || len(back.Endpoints) == 0 {
		t.Fatal("slack maps empty")
	}
	if len(back.SlowPaths) != 0 {
		t.Fatal("slow paths on a passing design")
	}
	// The 2-pass cluster appears in the plan.
	two := false
	for _, p := range back.PlanByID {
		if len(p.Passes) == 2 {
			two = true
		}
	}
	if !two {
		t.Fatal("two-pass cluster missing from JSON plan")
	}
	// Worst slack consistent with the endpoint minimum.
	min := int64(1) << 62
	for _, e := range back.Endpoints {
		if e.SlackPs < min {
			min = e.SlackPs
		}
	}
	if min != back.WorstPs {
		t.Fatalf("worst %d != endpoint min %d", back.WorstPs, min)
	}
}

func TestWriteJSONSlowDesign(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(`
design slow
clock phi period 1ns rise 0 fall 400ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst g4 INV_X1 A=n3 Y=n4
inst f2 DFF_X1 D=n4 CK=phi Q=q2
inst g5 BUF_X1 A=q2 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteJSON(&sb, a, rep); err != nil {
		t.Fatal(err)
	}
	var back JSONResult
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.OK || len(back.SlowPaths) == 0 || back.WorstPs >= 0 {
		t.Fatalf("slow export wrong: ok=%v paths=%d worst=%d", back.OK, len(back.SlowPaths), back.WorstPs)
	}
	p := back.SlowPaths[0]
	if p.From == "" || p.To == "" || len(p.Nets) < 2 || len(p.Insts) != len(p.Nets)-1 {
		t.Fatalf("path shape: %+v", p)
	}
}
