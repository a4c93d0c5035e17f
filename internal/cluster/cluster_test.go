package cluster

import (
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
)

var lib = celllib.Default()

func build(t *testing.T, text string) *Network {
	t.Helper()
	nw, err := tryBuild(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func tryBuild(text string) (*Network, error) {
	d, err := netlist.ParseString(text)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(lib); err != nil {
		return nil, err
	}
	cs, err := d.ClockSet()
	if err != nil {
		return nil, err
	}
	calc, err := delaycalc.New(lib, d, delaycalc.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return Build(lib, d, cs, calc)
}

const pipeText = `
design pipe
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -1ns
inst g1 INV_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=n2
inst g2 NAND2_X1 A=n2 B=n2 Y=n3
inst g3 INV_X1 A=n3 Y=n4
inst l2 DLATCH_X1 D=n4 G=phi2 Q=n5
inst g4 INV_X1 A=n5 Y=OUT
end
`

func TestBuildPipe(t *testing.T) {
	nw := build(t, pipeText)
	// Sites: l1, l2 plus ports IN, OUT.
	if len(nw.Sites) != 4 {
		t.Fatalf("sites = %d", len(nw.Sites))
	}
	if len(nw.Elems) != 4 {
		t.Fatalf("elems = %d", len(nw.Elems))
	}
	// Clusters: IN->l1.D; l1.Q->l2.D; l2.Q->OUT. Three clusters.
	if len(nw.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(nw.Clusters))
	}
	for _, cl := range nw.Clusters {
		if len(cl.Inputs) != 1 || len(cl.Outputs) != 1 {
			t.Fatalf("cluster %d endpoints: %d in, %d out", cl.ID, len(cl.Inputs), len(cl.Outputs))
		}
		if !cl.Reach[0][0] {
			t.Fatalf("cluster %d input does not reach output", cl.ID)
		}
		if cl.Plan.Passes() != 1 {
			t.Fatalf("cluster %d passes = %d, want 1", cl.ID, cl.Plan.Passes())
		}
	}
	if nw.TotalPasses() != 3 {
		t.Fatalf("total passes = %d", nw.TotalPasses())
	}
}

func TestControlPathDirect(t *testing.T) {
	nw := build(t, pipeText)
	var l1 *SyncSite
	for i := range nw.Sites {
		if nw.Sites[i].Name == "l1" {
			l1 = &nw.Sites[i]
		}
	}
	if l1 == nil {
		t.Fatal("l1 site missing")
	}
	if l1.CtrlMax != 0 || l1.CtrlMin != 0 || l1.Inverted {
		t.Fatalf("direct control path: %+v", l1)
	}
	if nw.Clocks.Signal(l1.Sig).Name != "phi1" {
		t.Fatal("wrong controlling clock")
	}
	e := nw.Elems[l1.Elems[0]]
	if e.LeadAt != 0 || e.TrailAt != 40*clock.Ns {
		t.Fatalf("element pulse %v..%v", e.LeadAt, e.TrailAt)
	}
}

const bufferedClockText = `
design bufclk
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst cb1 BUF_X2 A=phi Y=ck1
inst cb2 INV_X2 A=ck1 Y=ckn
inst l1 DLATCH_X1 D=IN G=ckn Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`

func TestControlPathBufferedInverted(t *testing.T) {
	nw := build(t, bufferedClockText)
	var l1 *SyncSite
	for i := range nw.Sites {
		if nw.Sites[i].Name == "l1" {
			l1 = &nw.Sites[i]
		}
	}
	if !l1.Inverted {
		t.Fatal("inversion parity not detected")
	}
	if l1.CtrlMax <= 0 || l1.CtrlMin <= 0 || l1.CtrlMax < l1.CtrlMin {
		t.Fatalf("control delays: max=%v min=%v", l1.CtrlMax, l1.CtrlMin)
	}
	// The inverted latch is transparent while phi is low: lead at 40ns.
	e := nw.Elems[l1.Elems[0]]
	if e.LeadAt != 40*clock.Ns || e.Width != 60*clock.Ns {
		t.Fatalf("effective pulse lead=%v width=%v", e.LeadAt, e.Width)
	}
	// Clock-cone gates must not appear in data clusters.
	for _, cl := range nw.Clusters {
		for ai := range cl.Arcs {
			if inst := nw.ArcInst(cl, ai); inst == "cb1" || inst == "cb2" {
				t.Fatalf("control gate %s leaked into cluster %d", inst, cl.ID)
			}
		}
	}
}

func TestControlPathErrors(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"PI drives control", `
design bad1
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
input EN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst l1 DLATCH_X1 D=IN G=EN Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`, "not a function of any clock"},
		{"enable path", `
design bad2
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst l0 DLATCH_X1 D=IN G=phi Q=en
inst l1 DLATCH_X1 D=IN G=en Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`, "not a function of any clock"},
		{"two clocks", `
design bad3
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 0
output OUT clock phi1 edge fall offset 0
inst ga AND2_X1 A=phi1 B=phi2 Y=gck
inst l1 DLATCH_X1 D=IN G=gck Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`, "more than one clock"},
		{"non-unate control", `
design bad4
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst gx XOR2_X1 A=phi B=phi Y=gck
inst l1 DLATCH_X1 D=IN G=gck Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`, "non-monotonic"},
		{"mixed parity", `
design bad5
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst gi INV_X1 A=phi Y=phin
inst gm AND2_X1 A=phi B=phin Y=gck
inst l1 DLATCH_X1 D=IN G=gck Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`, "both inversion parities"},
		{"clock as data", `
design bad6
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst l1 DLATCH_X1 D=phi G=phi Q=n1
inst g1 INV_X1 A=n1 Y=OUT
end
`, "data"},
	}
	for _, c := range cases {
		_, err := tryBuild(c.text)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCombCycleRejected(t *testing.T) {
	_, err := tryBuild(`
design cyc
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst g1 NAND2_X1 A=IN B=fb Y=x
inst g2 INV_X1 A=x Y=fb
inst g3 INV_X1 A=x Y=OUT
end
`)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("combinational cycle accepted: %v", err)
	}
}

func TestCycleThroughLatchAllowed(t *testing.T) {
	// A loop broken by a transparent latch is legal (§3: only portions of
	// combinational logic must be acyclic).
	nw := build(t, `
design latchloop
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 0
output OUT clock phi1 edge fall offset 0
inst g1 NAND2_X1 A=IN B=q2 Y=d1
inst l1 DLATCH_X1 D=d1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=d2
inst l2 DLATCH_X1 D=d2 G=phi2 Q=q2
inst g3 INV_X1 A=q1 Y=OUT
end
`)
	if len(nw.Clusters) == 0 {
		t.Fatal("no clusters")
	}
}

func TestDirectLatchToLatch(t *testing.T) {
	// l1.Q wired straight into l2.D: a single-net cluster with a
	// zero-length path.
	nw := build(t, `
design direct
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 0
output OUT clock phi1 edge fall offset 0
inst l1 DLATCH_X1 D=IN G=phi1 Q=q1
inst l2 DLATCH_X1 D=q1 G=phi2 Q=q2
inst g1 INV_X1 A=q2 Y=OUT
end
`)
	var single *Cluster
	for _, cl := range nw.Clusters {
		if len(cl.Nets) == 1 && nw.Nets[cl.Nets[0]] == "q1" {
			single = cl
		}
	}
	if single == nil {
		t.Fatal("no single-net cluster for q1")
	}
	if len(single.Inputs) != 1 || len(single.Outputs) != 1 {
		t.Fatalf("q1 cluster endpoints: %+v", single)
	}
	if !single.Reach[0][0] {
		t.Fatal("zero-length path not reachable")
	}
}

func TestMultifrequencyReplication(t *testing.T) {
	nw := build(t, `
design mfreq
clock slow period 100ns rise 0 fall 40ns
clock fast period 50ns rise 5ns fall 25ns
input IN clock slow edge fall offset 0
output OUT clock slow edge fall offset 0
inst l1 DLATCH_X1 D=IN G=fast Q=q1
inst g1 INV_X1 A=q1 Y=OUT
end
`)
	elems := nw.ElemsOf("l1")
	if len(elems) != 2 {
		t.Fatalf("fast latch elements = %d, want 2", len(elems))
	}
	if nw.Elems[elems[0]].IdealAssert != 5*clock.Ns || nw.Elems[elems[1]].IdealAssert != 55*clock.Ns {
		t.Fatalf("replica assert times %v %v",
			nw.Elems[elems[0]].IdealAssert, nw.Elems[elems[1]].IdealAssert)
	}
	// The cluster feeding OUT sees two input occurrences.
	for _, cl := range nw.Clusters {
		for _, o := range cl.Outputs {
			if nw.Elems[o.Elem].Inst == "OUT" {
				if len(cl.Inputs) != 2 {
					t.Fatalf("OUT cluster inputs = %d, want 2", len(cl.Inputs))
				}
			}
		}
	}
}

func TestPortsNeedClockRefs(t *testing.T) {
	_, err := tryBuild(`
design noref
clock phi period 100ns rise 0 fall 40ns
input IN
output OUT clock phi edge fall offset 0
inst g1 INV_X1 A=IN Y=OUT
end
`)
	if err == nil || !strings.Contains(err.Error(), "clock reference") {
		t.Fatalf("missing port clock ref accepted: %v", err)
	}
}

func TestEdgeTimesDistinctSorted(t *testing.T) {
	nw := build(t, pipeText)
	et := nw.EdgeTimes
	if len(et) != 4 {
		t.Fatalf("edge times = %v", et)
	}
	for i := 1; i < len(et); i++ {
		if et[i-1] >= et[i] {
			t.Fatalf("edge times not strictly sorted: %v", et)
		}
	}
}

// TestUnresolvedReferenceError checks the two ways elaboration meets a
// reference it cannot resolve: delaycalc.New, which binds every name,
// rejects the unresolved instance, and Build rejects a calculator built
// for another design rather than evaluate delays against its loads.
func TestUnresolvedReferenceError(t *testing.T) {
	d := netlist.New("u")
	d.AddClock(clock.Signal{Name: "phi", Period: 100, RiseAt: 0, FallAt: 40})
	d.AddInstance(netlist.Instance{Name: "x", Ref: "GHOST", Conns: map[string]string{}})
	cs, _ := d.ClockSet()
	if _, err := delaycalc.New(lib, d, delaycalc.DefaultOptions()); err == nil || !strings.Contains(err.Error(), `unresolved component "GHOST"`) {
		t.Fatalf("unresolved reference: error %v", err)
	}
	other, err := delaycalc.New(lib, netlist.New("empty-but-valid"), delaycalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(lib, d, cs, other); err == nil || !strings.Contains(err.Error(), "another design") {
		t.Fatalf("calculator of another design: error %v", err)
	}
}

func TestFigure1NetworkNeedsTwoPasses(t *testing.T) {
	// The Figure 1 configuration as a real netlist: latches on 4 phases
	// around one shared gate.
	nw := build(t, `
design fig1
clock phi1 period 200ns rise 0 fall 30ns
clock phi2 period 200ns rise 50ns fall 80ns
clock phi3 period 200ns rise 100ns fall 130ns
clock phi4 period 200ns rise 150ns fall 180ns
input A clock phi4 edge fall offset 0
input B clock phi2 edge fall offset 0
output Y1 clock phi3 edge rise offset 0
output Y2 clock phi1 edge rise offset 0
inst la DLATCH_X1 D=A G=phi1 Q=qa
inst lb DLATCH_X1 D=B G=phi3 Q=qb
inst g NAND2_X1 A=qa B=qb Y=m
inst lc DLATCH_X1 D=m G=phi2 Q=qc
inst ld DLATCH_X1 D=m G=phi4 Q=qd
inst gc INV_X1 A=qc Y=Y1
inst gd INV_X1 A=qd Y=Y2
end
`)
	// Find the cluster containing net m.
	var target *Cluster
	mid := nw.NetIdx["m"]
	for _, cl := range nw.Clusters {
		if cl.LocalIndex(mid) >= 0 {
			target = cl
		}
	}
	if target == nil {
		t.Fatal("cluster with net m not found")
	}
	if target.Plan.Passes() != 2 {
		t.Fatalf("Figure 1 cluster passes = %d, want 2", target.Plan.Passes())
	}
}

// TestEnablePathGatedClock: AND-gated clock — phi gated by a latch-driven
// enable. The clock side remains the control spine; the enable net becomes
// a virtual capture endpoint closing at the gated pulse's leading edge,
// advanced by the gating gate's delay.
func TestEnablePathGatedClock(t *testing.T) {
	nw := build(t, `
design gated
clock phi period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi edge fall offset 0
inst le DLATCH_X1 D=IN G=phi2 Q=en
inst ga AND2_X1 A=phi B=en Y=gck
inst l1 DLATCH_X1 D=IN G=gck Q=q1
inst g1 INV_X1 A=q1 Y=OUT
end
`)
	// l1's control spine resolves to phi, non-inverted, through the AND.
	var l1 *SyncSite
	for i := range nw.Sites {
		if nw.Sites[i].Name == "l1" {
			l1 = &nw.Sites[i]
		}
	}
	if l1 == nil {
		t.Fatal("l1 missing")
	}
	if nw.Clocks.Signal(l1.Sig).Name != "phi" || l1.Inverted {
		t.Fatalf("gated control spine wrong: %+v", l1)
	}
	if l1.CtrlMax <= 0 {
		t.Fatal("gating gate delay not accounted in Oat")
	}
	// One enable endpoint exists, capturing the en net.
	ids := nw.ElemsOf("l1.en0")
	if len(ids) != 1 {
		t.Fatalf("enable endpoint elements = %d, want 1", len(ids))
	}
	e := nw.Elems[ids[0]]
	if !e.Port || e.IdealClose != 0 {
		t.Fatalf("enable endpoint closes at %v (want the phi leading edge, 0)", e.IdealClose)
	}
	if e.PortOffset >= 0 {
		t.Fatalf("enable endpoint offset %v should be negative (gating depth)", e.PortOffset)
	}
	// The endpoint is a cluster output on net en.
	enNet := nw.NetIdx["en"]
	found := false
	for _, cl := range nw.Clusters {
		for _, o := range cl.Outputs {
			if o.Elem == ids[0] && o.Net == enNet {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("enable endpoint not a cluster output")
	}
	// The AND gate output (gck) stays out of data clusters.
	gck := nw.NetIdx["gck"]
	for _, cl := range nw.Clusters {
		if cl.LocalIndex(gck) >= 0 {
			t.Fatal("gating gate output leaked into a data cluster")
		}
	}
}

// TestEnablePathFromPI: a primary input may gate a clock; the PI becomes
// the enable launch.
func TestEnablePathFromPI(t *testing.T) {
	nw := build(t, `
design pigate
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
input EN clock phi edge rise offset 0
output OUT clock phi edge fall offset 0
inst ga AND2_X1 A=phi B=EN Y=gck
inst l1 DLATCH_X1 D=IN G=gck Q=q1
inst g1 INV_X1 A=q1 Y=OUT
end
`)
	ids := nw.ElemsOf("l1.en0")
	if len(ids) != 1 {
		t.Fatalf("enable endpoints = %d", len(ids))
	}
	// The EN cluster: PI launch (EN) -> enable capture, zero-length path.
	enNet := nw.NetIdx["EN"]
	var cl0 *Cluster
	for _, cl := range nw.Clusters {
		if cl.LocalIndex(enNet) >= 0 {
			cl0 = cl
		}
	}
	if cl0 == nil {
		t.Fatal("EN cluster missing")
	}
	if len(cl0.Inputs) != 1 || len(cl0.Outputs) != 1 || !cl0.Reach[0][0] {
		t.Fatalf("EN cluster endpoints wrong: %d in %d out", len(cl0.Inputs), len(cl0.Outputs))
	}
}

// TestEnablePathReplication: gating a fast clock replicates the enable
// endpoint per pulse.
func TestEnablePathReplication(t *testing.T) {
	nw := build(t, `
design gatedfast
clock slow period 100ns rise 0 fall 40ns
clock fast period 50ns rise 5ns fall 25ns
input IN clock slow edge fall offset 0
input EN clock slow edge rise offset 0
output OUT clock slow edge fall offset 0
inst ga AND2_X1 A=fast B=EN Y=gck
inst l1 DLATCH_X1 D=IN G=gck Q=q1
inst g1 INV_X1 A=q1 Y=OUT
end
`)
	ids := nw.ElemsOf("l1.en0")
	if len(ids) != 2 {
		t.Fatalf("enable endpoint replicas = %d, want 2", len(ids))
	}
	if nw.Elems[ids[0]].IdealClose != 5*clock.Ns || nw.Elems[ids[1]].IdealClose != 55*clock.Ns {
		t.Fatalf("replica closures %v %v", nw.Elems[ids[0]].IdealClose, nw.Elems[ids[1]].IdealClose)
	}
}

// TestThreeSettlingTimes: six equally spaced phases with three
// launch/capture pairs whose zones are pairwise disjoint force a shared
// cluster to three analysis passes — the "minimum number of settling
// times" generalises beyond Figure 1's two.
func TestThreeSettlingTimes(t *testing.T) {
	nw := build(t, `
design six
clock p1 period 300ns rise 0 fall 30ns
clock p2 period 300ns rise 50ns fall 80ns
clock p3 period 300ns rise 100ns fall 130ns
clock p4 period 300ns rise 150ns fall 180ns
clock p5 period 300ns rise 200ns fall 230ns
clock p6 period 300ns rise 250ns fall 280ns
input A clock p6 edge fall offset 0
input B clock p2 edge fall offset 0
input C clock p4 edge fall offset 0
output Y1 clock p3 edge rise offset 0
output Y2 clock p5 edge rise offset 0
output Y3 clock p1 edge rise offset 0
inst la DLATCH_X1 D=A G=p1 Q=qa
inst lb DLATCH_X1 D=B G=p3 Q=qb
inst lc DLATCH_X1 D=C G=p5 Q=qc
inst g1 NAND3_X1 A=qa B=qb C=qc Y=m
inst ld DLATCH_X1 D=m G=p2 Q=qd
inst le DLATCH_X1 D=m G=p4 Q=qe
inst lf DLATCH_X1 D=m G=p6 Q=qf
inst o1 INV_X1 A=qd Y=Y1
inst o2 INV_X1 A=qe Y=Y2
inst o3 INV_X1 A=qf Y=Y3
end
`)
	mid := nw.NetIdx["m"]
	for _, cl := range nw.Clusters {
		if cl.LocalIndex(mid) < 0 {
			continue
		}
		if cl.Plan.Passes() != 3 {
			t.Fatalf("six-phase shared cluster passes = %d, want 3", cl.Plan.Passes())
		}
		// Each capture lands in its own pass.
		seen := map[int]bool{}
		for oi := range cl.Outputs {
			seen[cl.Plan.Assign[oi]] = true
		}
		if len(seen) != 3 {
			t.Fatalf("captures share passes: %v", cl.Plan.Assign)
		}
		return
	}
	t.Fatal("shared cluster not found")
}
