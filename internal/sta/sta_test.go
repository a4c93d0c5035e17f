package sta

import (
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
)

// testLib builds a deliberately simple library: constant (zero-slope)
// delays and zero pin capacitance, so every expected number in these tests
// can be computed by hand.
func testLib() *celllib.Library {
	l := celllib.NewLibrary("sta-test")
	// Test fixture: a bad cell is a broken test, so panicking is fine here.
	mustAdd := func(c *celllib.Cell) {
		if err := l.Add(c); err != nil {
			panic(err)
		}
	}
	fixed := func(rise, fall clock.Time) celllib.ArcDelay {
		return celllib.ArcDelay{
			MaxRise: celllib.Linear{Intrinsic: rise},
			MaxFall: celllib.Linear{Intrinsic: fall},
			MinRise: celllib.Linear{Intrinsic: rise / 2},
			MinFall: celllib.Linear{Intrinsic: fall / 2},
		}
	}
	mustAdd(&celllib.Cell{
		Name: "BUFD", Kind: celllib.Comb, Function: "Y=A", Area: 1, Drive: 1,
		Pins: []celllib.Pin{{Name: "A", Dir: celllib.In}, {Name: "Y", Dir: celllib.Out}},
		Arcs: []celllib.Arc{{From: "A", To: "Y", Sense: celllib.PositiveUnate, Delay: fixed(100, 100)}},
	})
	mustAdd(&celllib.Cell{
		Name: "INVD", Kind: celllib.Comb, Function: "Y=!A", Area: 1, Drive: 1,
		Pins: []celllib.Pin{{Name: "A", Dir: celllib.In}, {Name: "Y", Dir: celllib.Out}},
		Arcs: []celllib.Arc{{From: "A", To: "Y", Sense: celllib.NegativeUnate, Delay: fixed(100, 60)}},
	})
	mustAdd(&celllib.Cell{
		Name: "XORD", Kind: celllib.Comb, Function: "Y=A^B", Area: 1, Drive: 1,
		Pins: []celllib.Pin{
			{Name: "A", Dir: celllib.In}, {Name: "B", Dir: celllib.In},
			{Name: "Y", Dir: celllib.Out},
		},
		Arcs: []celllib.Arc{
			{From: "A", To: "Y", Sense: celllib.NonUnate, Delay: fixed(100, 100)},
			{From: "B", To: "Y", Sense: celllib.NonUnate, Delay: fixed(100, 100)},
		},
	})
	zeroSync := &celllib.SyncTiming{Dsetup: 0, Ddz: 0, Dcz: 0}
	mustAdd(&celllib.Cell{
		Name: "LAT", Kind: celllib.Transparent, Function: "latch", Area: 2, Drive: 1,
		Pins: []celllib.Pin{
			{Name: "D", Dir: celllib.In},
			{Name: "G", Dir: celllib.In, Role: celllib.Control},
			{Name: "Q", Dir: celllib.Out},
		},
		Arcs: []celllib.Arc{{From: "D", To: "Q", Sense: celllib.PositiveUnate, Delay: fixed(0, 0)}},
		Sync: zeroSync,
	})
	mustAdd(&celllib.Cell{
		Name: "FFD", Kind: celllib.EdgeTriggered, Function: "dff", Area: 2, Drive: 1,
		Pins: []celllib.Pin{
			{Name: "D", Dir: celllib.In},
			{Name: "CK", Dir: celllib.In, Role: celllib.Control},
			{Name: "Q", Dir: celllib.Out},
		},
		Arcs: []celllib.Arc{{From: "D", To: "Q", Sense: celllib.PositiveUnate, Delay: fixed(0, 0)}},
		Sync: zeroSync,
	})
	return l
}

func buildNet(t *testing.T, lib *celllib.Library, text string) *cluster.Network {
	t.Helper()
	d, err := netlist.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(lib); err != nil {
		t.Fatal(err)
	}
	cs, err := d.ClockSet()
	if err != nil {
		t.Fatal(err)
	}
	calc, err := delaycalc.New(lib, d, delaycalc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := cluster.Build(lib, d, cs, calc)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func elemIdx(t *testing.T, nw *cluster.Network, name string) int {
	t.Helper()
	ids := nw.ElemsOf(name)
	if len(ids) == 0 {
		t.Fatalf("no elements for %s", name)
	}
	return ids[0]
}

const twoPhaseText = `
design twophase
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi1 edge rise offset 0
inst g1 BUFD A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 BUFD A=q1 Y=n2
inst l2 FFD D=n2 CK=phi2 Q=q2
inst g3 BUFD A=q2 Y=OUT
end
`

// analyzeNet compiles a network and analyzes it on a fresh state.
func analyzeNet(nw *cluster.Network) *Result {
	cd := cluster.Compile(nw)
	return Analyze(cd, NewState(cd))
}

func TestTwoPhaseHandComputedSlacks(t *testing.T) {
	nw := buildNet(t, testLib(), twoPhaseText)
	res := analyzeNet(nw)

	// Cluster IN→l1.D: IN asserts at 90ns; path delay 100ps; l1 closes at
	// phi1.fall (40ns) + min(Odc=0, Odz=0) = 40ns, one period later in the
	// window. Slack = (40ns + 100ns − 90ns) − 100ps = 49.9ns.
	l1 := elemIdx(t, nw, "l1")
	if got := res.InSlack(l1); got != 49900 {
		t.Fatalf("InSlack(l1) = %v, want 49.9ns", got)
	}
	in := elemIdx(t, nw, "IN")
	if got := res.OutSlack(in); got != 49900 {
		t.Fatalf("OutSlack(IN) = %v, want 49.9ns", got)
	}

	// Cluster q1→l2.D: l1 asserts at lead(0) + max(Ozc=0, Ozd=W+Odz=40ns)
	// = 40ns; l2 closes at 90ns. Slack = 90ns − 40ns − 100ps = 49.9ns.
	l2 := elemIdx(t, nw, "l2")
	if got := res.InSlack(l2); got != 49900 {
		t.Fatalf("InSlack(l2) = %v, want 49.9ns", got)
	}
	if got := res.OutSlack(l1); got != 49900 {
		t.Fatalf("OutSlack(l1) = %v, want 49.9ns", got)
	}

	// Cluster q2→OUT: l2 asserts at 90ns (trail, Dcz=0); OUT closes at
	// phi1.rise (0 ≡ 100ns): slack = 10ns − 100ps = 9.9ns.
	out := elemIdx(t, nw, "OUT")
	if got := res.InSlack(out); got != 9900 {
		t.Fatalf("InSlack(OUT) = %v, want 9.9ns", got)
	}
	if got := res.OutSlack(l2); got != 9900 {
		t.Fatalf("OutSlack(l2) = %v, want 9.9ns", got)
	}
	if got := res.WorstSlack(); got != 9900 {
		t.Fatalf("WorstSlack = %v, want 9.9ns", got)
	}
}

func TestOffsetShiftMovesSlack(t *testing.T) {
	nw := buildNet(t, testLib(), twoPhaseText)
	l1 := elemIdx(t, nw, "l1")
	l2 := elemIdx(t, nw, "l2")
	// Slide l1's DOF 10ns earlier: upstream loses 10ns, downstream gains.
	cd := cluster.Compile(nw)
	st := NewState(cd)
	st.Odz[l1] -= 10000
	res := Analyze(cd, st)
	if got := res.InSlack(l1); got != 39900 {
		t.Fatalf("InSlack(l1) after shift = %v, want 39.9ns", got)
	}
	if got := res.InSlack(l2); got != 59900 {
		t.Fatalf("InSlack(l2) after shift = %v, want 59.9ns", got)
	}
}

func TestRiseFallSeparation(t *testing.T) {
	// One inverting arc: the output RISE settles 100ps after the input
	// FALL; the output FALL settles 60ps after the input RISE. Both input
	// transitions assert together, so ready(out) = assert + max(100,60)
	// only for the rise; slack is limited by the rise transition.
	lib := testLib()
	nw := buildNet(t, lib, `
design rf
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 INVD A=IN Y=OUT
end
`)
	res := analyzeNet(nw)
	out := elemIdx(t, nw, "OUT")
	// IN asserts 40ns, OUT closes 90ns: slack = 50ns − 100ps (rise-limited).
	if got := res.InSlack(out); got != 49900 {
		t.Fatalf("InSlack(OUT) = %v, want 49.9ns", got)
	}
	// The net slack of OUT reflects the rise-limited transition too.
	if got := res.NetSlack(nw.NetIdx["OUT"]); got != 49900 {
		t.Fatalf("NetSlack(OUT) = %v", got)
	}
}

func TestInverterChainRiseFall(t *testing.T) {
	// Two inverting arcs: rise and fall both become assert+160 at the
	// second output (100 then 60, or 60 then 100).
	lib := testLib()
	nw := buildNet(t, lib, `
design rf2
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 INVD A=IN Y=n1
inst g2 INVD A=n1 Y=OUT
end
`)
	res := analyzeNet(nw)
	out := elemIdx(t, nw, "OUT")
	if got := res.InSlack(out); got != 50000-160 {
		t.Fatalf("InSlack(OUT) = %v, want %v", got, 50000-160)
	}
}

func TestNonUnatePropagation(t *testing.T) {
	lib := testLib()
	nw := buildNet(t, lib, `
design nu
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input A clock phi1 edge fall offset 0
input B clock phi1 edge rise offset 0
output OUT clock phi2 edge fall offset 0
inst g1 XORD A=A B=B Y=OUT
end
`)
	res := analyzeNet(nw)
	out := elemIdx(t, nw, "OUT")
	// A asserts at 40ns, B at 0: worst arrival 40ns + 100ps.
	if got := res.InSlack(out); got != 50000-100 {
		t.Fatalf("InSlack(OUT) = %v", got)
	}
	// B's own slack is looser: req(B) = 90ns − 100ps, assert 0... but the
	// ready at OUT is dominated by A; B's output-terminal slack uses the
	// required time at B: 89.9ns − 0 = 89.9ns.
	b := elemIdx(t, nw, "B")
	if got := res.OutSlack(b); got != 89900 {
		t.Fatalf("OutSlack(B) = %v, want 89.9ns", got)
	}
}

func TestMultiPassMinimumWins(t *testing.T) {
	// Figure-1 style: shared gate, captures on two phases. The net slack
	// of the shared net is the min over both passes.
	lib := testLib()
	nw := buildNet(t, lib, `
design f1
clock phi1 period 200ns rise 0 fall 30ns
clock phi2 period 200ns rise 50ns fall 80ns
clock phi3 period 200ns rise 100ns fall 130ns
clock phi4 period 200ns rise 150ns fall 180ns
input A clock phi4 edge fall offset 0
input B clock phi2 edge fall offset 0
output Y1 clock phi3 edge rise offset 0
output Y2 clock phi1 edge rise offset 0
inst la LAT D=A G=phi1 Q=qa
inst lb LAT D=B G=phi3 Q=qb
inst g XORD A=qa B=qb Y=m
inst lc LAT D=m G=phi2 Q=qc
inst ld LAT D=m G=phi4 Q=qd
inst gc BUFD A=qc Y=Y1
inst gd BUFD A=qd Y=Y2
end
`)
	res := analyzeNet(nw)
	// Pass structure sanity: the m-cluster runs two passes.
	mid := nw.NetIdx["m"]
	var mPasses int
	for _, p := range res.Passes() {
		for _, n := range p.Nets {
			if n == mid {
				mPasses++
				break
			}
		}
	}
	if mPasses != 2 {
		t.Fatalf("m analyzed in %d passes, want 2", mPasses)
	}
	// Hand numbers: la asserts lead(0)+Ozd(W=30ns) = 30ns; lb asserts
	// 100+30 = 130ns. lc closes at 80ns, ld at 180ns.
	// Pass for lc: window must order both asserts before 80ns-closure:
	// ready(m) = max(30, 130→previous cycle) + 100ps. In lc's window
	// (break at 80ns): posA(la.assert=0)=120ns→wait, ideal assert is 0 and
	// offset 30ns: pos = (0−80)mod200 + 30 = 150ns; posA(lb)=(100−80)+30=50ns;
	// posC = 200ns. ready(m)=150.1ns, slack(lc) = 49.9ns.
	lc := elemIdx(t, nw, "lc")
	if got := res.InSlack(lc); got != 49900 {
		t.Fatalf("InSlack(lc) = %v, want 49.9ns", got)
	}
	// Symmetric for ld (break at 180): posA(la)=(0−180)mod200+30=50,
	// posA(lb)=(100−180)mod200+30=150, posC=200 → slack 49.9ns.
	ld := elemIdx(t, nw, "ld")
	if got := res.InSlack(ld); got != 49900 {
		t.Fatalf("InSlack(ld) = %v, want 49.9ns", got)
	}
	// Net m's merged slack is the min over passes; here symmetric.
	if got := res.NetSlack(mid); got != 49900 {
		t.Fatalf("NetSlack(m) = %v", got)
	}
}

func TestUnconstrainedElements(t *testing.T) {
	// A latch whose Q dangles: output terminal unconstrained (+Inf).
	lib := testLib()
	nw := buildNet(t, lib, `
design dangle
clock phi1 period 100ns rise 0 fall 40ns
input IN clock phi1 edge rise offset 0
output OUT clock phi1 edge fall offset 0
inst l1 LAT D=IN G=phi1 Q=q1
inst g1 BUFD A=IN Y=OUT
end
`)
	res := analyzeNet(nw)
	l1 := elemIdx(t, nw, "l1")
	if res.OutSlack(l1) != clock.Inf {
		t.Fatalf("dangling Q slack = %v, want +Inf", res.OutSlack(l1))
	}
	if res.InSlack(l1) == clock.Inf {
		t.Fatal("l1 input should be constrained")
	}
}

func TestSameEdgeFFPath(t *testing.T) {
	// FF→FF on one clock edge: D = exactly one overall period (§4).
	lib := testLib()
	nw := buildNet(t, lib, `
design ffpipe
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 FFD D=IN CK=phi Q=q1
inst g1 BUFD A=q1 Y=n1
inst f2 FFD D=n1 CK=phi Q=q2
inst g2 BUFD A=q2 Y=OUT
end
`)
	res := analyzeNet(nw)
	f2 := elemIdx(t, nw, "f2")
	// Launch 40ns, capture 40ns+T: slack = 100ns − 100ps.
	if got := res.InSlack(f2); got != 100000-100 {
		t.Fatalf("InSlack(f2) = %v, want %v", got, 100000-100)
	}
}

func TestPathDelayMaxMin(t *testing.T) {
	lib := testLib()
	nw := buildNet(t, lib, `
design pd
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 BUFD A=IN Y=n1
inst g2 BUFD A=n1 Y=n2
inst g3 BUFD A=IN Y=n2x
inst g4 XORD A=n2 B=n2x Y=OUT
end
`)
	cl := nw.Clusters[0]
	from, to := nw.NetIdx["IN"], nw.NetIdx["OUT"]
	if d := PathDelayMax(cl, from, to); d != 300 {
		t.Fatalf("PathDelayMax = %v, want 300", d)
	}
	// Min path goes through g3 (one buffer, min 50) then XOR (min 50).
	if d := PathDelayMin(cl, from, to); d != 100 {
		t.Fatalf("PathDelayMin = %v, want 100", d)
	}
	if d := PathDelayMax(cl, to, from); d != -1 {
		t.Fatalf("reverse path = %v, want -1", d)
	}
	if d := PathDelayMax(cl, from, from); d != 0 {
		t.Fatalf("self path = %v, want 0", d)
	}
}

func TestPortOffsetsRespected(t *testing.T) {
	lib := testLib()
	nw := buildNet(t, lib, `
design offs
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge fall offset 3ns
output OUT clock phi2 edge fall offset -2ns
inst g1 BUFD A=IN Y=OUT
end
`)
	res := analyzeNet(nw)
	out := elemIdx(t, nw, "OUT")
	// assert 43ns, close 88ns, delay 100ps: slack 44.9ns.
	if got := res.InSlack(out); got != 44900 {
		t.Fatalf("InSlack(OUT) = %v, want 44.9ns", got)
	}
}

func TestMinElemSlack(t *testing.T) {
	nw := buildNet(t, testLib(), twoPhaseText)
	res := analyzeNet(nw)
	l1 := elemIdx(t, nw, "l1")
	want := res.InSlack(l1)
	if res.OutSlack(l1) < want {
		want = res.OutSlack(l1)
	}
	if got := res.MinElemSlack(l1); got != want {
		t.Fatalf("MinElemSlack = %v, want %v", got, want)
	}
}
