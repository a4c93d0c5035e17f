package hummingbird

// Integration tests: end-to-end flows across every subsystem — textual
// netlist in, analysis, constraint generation, database flagging, and
// format round-trips preserving analysis results.

import (
	"os"
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/octdb"
	"hummingbird/internal/workload"
)

// kitchenSink exercises, in one design: two frequencies (phi2 at 2×),
// a buffered clock tree, an inverted (active-low-effective) latch control,
// hierarchy, a tristate bus, transparent latches, flip-flops, and
// offset-carrying primary ports.
const kitchenSink = `
design kitchen
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 50ns rise 25ns fall 45ns
input A clock phi1 edge rise offset 1ns
input B clock phi1 edge rise offset 0
output Y clock phi1 edge fall offset -1ns
output Z clock phi2 edge fall offset 0
module DP
  input X0 X1
  output S C
  inst x1 XOR2_X1 A=X0 B=X1 Y=S
  inst a1 AND2_X1 A=X0 B=X1 Y=C
endmodule
inst ckb1 BUF_X2 A=phi1 Y=ck1
inst cki1 INV_X2 A=ck1 Y=ck1n
inst u1 DP X0=A X1=B S=s1 C=c1
inst l1 DLATCH_X1 D=s1 G=ck1 Q=q1
inst l2 DLATCH_X1 D=c1 G=ck1n Q=q2
inst t1 TBUF_X1 A=q1 EN=phi1 Y=bus
inst t2 TBUF_X1 A=q2 EN=phi2 Y=bus
inst g1 INV_X1 A=bus Y=n1
inst f1 DFF_X1 D=n1 CK=phi2 Q=qf
inst g2 BUF_X1 A=qf Y=Y
inst g3 INV_X1 A=qf Y=Z
end
`

func loadKitchen(t *testing.T) (*core.Analyzer, *core.Report) {
	t.Helper()
	d, err := netlist.ParseString(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	return a, rep
}

func TestKitchenSinkEndToEnd(t *testing.T) {
	a, rep := loadKitchen(t)

	// Hierarchy rolled up.
	if a.Lib.Cell("DP") == nil {
		t.Fatal("module DP not rolled up")
	}
	// phi2-controlled elements replicate (2 pulses per overall 100ns).
	if got := len(a.CD.ElemsOf("f1")); got != 2 {
		t.Fatalf("f1 elements = %d, want 2", got)
	}
	if got := len(a.CD.ElemsOf("t2")); got != 2 {
		t.Fatalf("t2 elements = %d, want 2", got)
	}
	// Inverted control detected on l2.
	for _, s := range a.CD.Sites {
		if s.Name == "l2" && !s.Inverted {
			t.Fatal("l2 control inversion missed")
		}
		if s.Name == "l1" && s.Inverted {
			t.Fatal("l1 spuriously inverted")
		}
		if (s.Name == "l1" || s.Name == "l2") && s.CtrlMax <= 0 {
			t.Fatalf("%s control delay = %v", s.Name, s.CtrlMax)
		}
	}
	if !rep.OK {
		t.Fatalf("kitchen sink slow: worst %v", rep.WorstSlack())
	}

	// Algorithm 2 produces coherent budgets for every data arc.
	c, err := a.GenerateConstraints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range a.CD.Clusters {
		for ai, arc := range cl.Arcs {
			if b := c.Allowed(arc.From, arc.To); b < arc.D.Max() {
				t.Fatalf("budget %v below arc delay %v on %s", b, arc.D.Max(), a.CD.ArcInst(cl, ai))
			}
		}
	}
}

// TestKitchenSinkDatabaseFlow: the §8 flags of the kitchen-sink design,
// whose verdict is ok, are the bytes in testdata/kitchensink.oct.
func TestKitchenSinkDatabaseFlow(t *testing.T) {
	a, rep := loadKitchen(t)
	d := a.Design
	db := octdb.New(d)
	octdb.FlagSlowPaths(db, a, rep)
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/kitchensink.oct")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("flags differ from testdata/kitchensink.oct:\n--- got\n%s--- want\n%s", sb.String(), want)
	}
}

// TestNetlistRoundTripPreservesAnalysis: writing and re-parsing the design
// must not change any analysis outcome.
func TestNetlistRoundTripPreservesAnalysis(t *testing.T) {
	d, err := netlist.ParseString(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	d2, err := netlist.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	lib := celllib.Default()
	a1, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.Load(lib, d2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a1.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a2.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if r1.OK != r2.OK || r1.WorstSlack() != r2.WorstSlack() {
		t.Fatalf("round trip changed verdict: %v/%v vs %v/%v",
			r1.OK, r1.WorstSlack(), r2.OK, r2.WorstSlack())
	}
	// Per-net slacks identical.
	for net := range r1.Result.NumNets() {
		s, name := r1.Result.NetSlack(net), a1.CD.Nets[net]
		id2, ok := a2.CD.NetIdx[name]
		if !ok {
			t.Fatalf("net %s lost in round trip", name)
		}
		if r2.Result.NetSlack(id2) != s {
			t.Fatalf("net %s slack %v vs %v", name, s, r2.Result.NetSlack(id2))
		}
	}
}

// TestLibraryRoundTripPreservesAnalysis: the same property for the cell
// library format.
func TestLibraryRoundTripPreservesAnalysis(t *testing.T) {
	lib := celllib.Default()
	var sb strings.Builder
	if err := celllib.WriteLibrary(&sb, lib); err != nil {
		t.Fatal(err)
	}
	lib2, err := celllib.ParseLibraryString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.ParseString(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.Load(lib2, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := a1.IdentifySlowPaths()
	r2, _ := a2.IdentifySlowPaths()
	if r1.WorstSlack() != r2.WorstSlack() {
		t.Fatalf("library round trip changed worst slack: %v vs %v",
			r1.WorstSlack(), r2.WorstSlack())
	}
}

// TestWorkloadAnalysisDeterministic: two independent full runs over the
// ALU workload agree on every element slack.
func TestWorkloadAnalysisDeterministic(t *testing.T) {
	runOnce := func() (*core.Analyzer, *core.Report) {
		d, err := workload.ALU()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Load(celllib.Default(), d, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatal(err)
		}
		return a, rep
	}
	a1, r1 := runOnce()
	a2, r2 := runOnce()
	if len(a1.CD.Elems) != len(a2.CD.Elems) {
		t.Fatal("element counts differ")
	}
	for i := range a1.CD.Elems {
		if r1.Result.InSlack(i) != r2.Result.InSlack(i) || r1.Result.OutSlack(i) != r2.Result.OutSlack(i) {
			t.Fatalf("element %s slacks differ across runs", a1.CD.Elems[i].Name())
		}
	}
	_ = a2
}

// TestMinPeriodThenVerify: the min-period search result is consistent with
// a direct re-analysis at the found period.
func TestMinPeriodThenVerify(t *testing.T) {
	lib := celllib.Default()
	d := workload.SM1F()
	base := d.Clocks[0].Period
	p, err := core.MinFeasiblePeriod(lib, d, core.DefaultOptions(), 1*clock.Ns, base, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > base {
		t.Fatalf("min period %v out of range", p)
	}
	ok, err := core.FeasibleAt(lib, d, core.DefaultOptions(), int64(p), int64(base))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("found period not feasible")
	}
}
