package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/testlib"
)

func analyzer(t *testing.T, text string) *Analyzer {
	t.Helper()
	nw := testlib.Network(t, text)
	return LoadFlat(nw, Options{})
}

const fastPipe = `
design fast
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D10NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D10NS A=q1 Y=n2
inst f2 FFD D=n2 CK=phi2 Q=q2
inst g3 D5NS A=q2 Y=OUT
end
`

func TestAlgorithm1FastDesign(t *testing.T) {
	a := analyzer(t, fastPipe)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fast design reported slow: worst=%v slow=%v", rep.WorstSlack(), rep.SlowElems)
	}
	if rep.WorstSlack() <= 0 {
		t.Fatalf("worst slack %v not positive", rep.WorstSlack())
	}
	if len(rep.SlowPaths) != 0 || len(rep.SlowElems) != 0 {
		t.Fatal("slow artifacts on fast design")
	}
}

// TestAlgorithm1Borrowing: at the initial offsets (latch closure as late as
// legal, assertion at the trailing edge) the downstream half violates: l1
// asserts at 40ns, 55ns of logic, FF capture at 90ns → 95 > 90. Forward
// slack transfer borrows from the generous upstream half and the design
// passes.
func TestAlgorithm1Borrowing(t *testing.T) {
	a := analyzer(t, `
design borrow
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D1NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D55NS A=q1 Y=n2
inst f2 FFD D=n2 CK=phi2 Q=q2
inst g3 D1NS A=q2 Y=OUT
end
`)
	// Verify the premise: the initial offsets do violate.
	pre := sta.Analyze(a.CD, a.St)
	f2 := testlib.Elem(t, a.CD.Network, "f2")
	if pre.InSlack(f2) > 0 {
		t.Fatalf("premise broken: initial InSlack(f2) = %v", pre.InSlack(f2))
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("borrowing failed: worst=%v", rep.WorstSlack())
	}
	// The latch DOF must actually have moved.
	li := testlib.Elem(t, a.CD.Network, "l1")
	if a.St.Odz[li] >= a.CD.Elems[li].OdzMax() {
		t.Fatalf("no borrowing happened: Odz=%v", a.St.Odz[li])
	}
}

func TestAlgorithm1GenuinelySlow(t *testing.T) {
	// 55+60 = 115ns of logic across one latch stage in a 100ns period:
	// no offset assignment can fix it.
	a := analyzer(t, `
design slow
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D60NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D55NS A=q1 Y=n2
inst f2 FFD D=n2 CK=phi2 Q=q2
inst g3 D1NS A=q2 Y=OUT
end
`)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("impossible design reported fast")
	}
	if len(rep.SlowElems) == 0 {
		t.Fatal("no slow elements")
	}
	if len(rep.SlowPaths) == 0 {
		t.Fatal("no slow paths traced")
	}
	// The traced path must run IN -> n1 -> (latch) or q1 -> n2; check one
	// path ends at a capture with non-positive slack and has consistent
	// nets.
	for _, p := range rep.SlowPaths {
		if p.Slack > 0 {
			t.Fatalf("slow path with positive slack: %+v", p)
		}
		if len(p.Nets) < 2 || len(p.Insts) != len(p.Nets)-1 {
			t.Fatalf("malformed path: %+v", p)
		}
		if p.Delay <= 0 {
			t.Fatalf("path delay %v", p.Delay)
		}
	}
	// Slow nets flagged.
	if len(a.SlowNets(rep.Result)) == 0 {
		t.Fatal("no slow nets flagged")
	}
}

func TestAlgorithm1CycleThroughLatches(t *testing.T) {
	// A combinational cycle traversing two transparent latches (§3's
	// "interesting feature"): each half has 30ns of logic; phases phi1
	// [0,40) and phi2 [50,90). The loop is feasible.
	a := analyzer(t, `
design loop
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge rise offset 0
output OUT clock phi1 edge rise offset 0
inst gx XORD A=IN B=q2 Y=d1
inst l1 LAT D=d1 G=phi1 Q=q1
inst g2 D30NS A=q1 Y=d2
inst l2 LAT D=d2 G=phi2 Q=q2x
inst g4 D30NS A=q2x Y=q2
inst g3 BUFD A=q1 Y=OUT
end
`)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("feasible latch loop reported slow: worst=%v", rep.WorstSlack())
	}
}

func TestAlgorithm1InfeasibleCycle(t *testing.T) {
	// The same loop with 60ns halves: 120ns around a 100ns-period loop.
	// Both halves cannot be satisfied simultaneously — the second
	// condition of the §4 proposition.
	a := analyzer(t, `
design loopbad
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge rise offset 0
output OUT clock phi1 edge rise offset 0
inst gx XORD A=IN B=q2 Y=d1
inst l1 LAT D=d1 G=phi1 Q=q1
inst g2 D60NS A=q1 Y=d2
inst l2 LAT D=d2 G=phi2 Q=q2x
inst g4 D60NS A=q2x Y=q2
inst g3 BUFD A=q1 Y=OUT
end
`)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("infeasible loop reported fast")
	}
}

func TestSweepCountsBounded(t *testing.T) {
	a := analyzer(t, fastPipe)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: at most one more than the number of sync elements on a
	// directed path, "typically less that ten".
	if rep.ForwardSweeps > 10 || rep.BackwardSweeps > 10 {
		t.Fatalf("sweeps = %d/%d", rep.ForwardSweeps, rep.BackwardSweeps)
	}
}

// TestViolationSetIndependentOfInitialOffsets: Algorithm 1's classification
// must not depend on which valid initial offsets were chosen (§4's
// proposition quantifies over all satisfying offset sets).
func TestViolationSetIndependentOfInitialOffsets(t *testing.T) {
	slowSet := func(seed int64) []string {
		nw := testlib.Network(t, `
design mix
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D20NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D55NS A=q1 Y=n2
inst l2 LAT D=n2 G=phi2 Q=q2
inst g4 D55NS A=q2 Y=n3
inst l3 LAT D=n3 G=phi1 Q=q3
inst g5 D10NS A=q3 Y=OUT
end
`)
		a := LoadFlat(nw, Options{})
		r := rand.New(rand.NewSource(seed))
		for ei, e := range nw.Elems {
			if e.HasDOF() {
				span := int64(e.OdzMax() - e.OdzMin())
				a.St.Odz[ei] = e.OdzMin() + clock.Time(r.Int63n(span+1))
			}
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ei := range rep.SlowElems {
			names = append(names, nw.Elems[ei].Name())
		}
		sort.Strings(names)
		return names
	}
	ref := slowSet(1)
	for seed := int64(2); seed < 8; seed++ {
		got := slowSet(seed)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: slow set %v != %v", seed, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: slow set %v != %v", seed, got, ref)
			}
		}
	}
}

// TestIncrementalMatchesFullSweeps: the incremental sweep mode (recompute
// only clusters adjacent to moved elements) must match the full-recompute
// mode bit for bit on verdicts and slacks, for fast, borrowing and slow
// designs.
func TestIncrementalMatchesFullSweeps(t *testing.T) {
	designs := []string{fastPipe, fixText, `
design deep
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D20NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D55NS A=q1 Y=n2
inst l2 LAT D=n2 G=phi2 Q=q2
inst g4 D55NS A=q2 Y=n3
inst l3 LAT D=n3 G=phi1 Q=q3
inst g5 D30NS A=q3 Y=n4
inst l4 LAT D=n4 G=phi2 Q=q4
inst g6 D10NS A=q4 Y=OUT
end
`}
	for di, text := range designs {
		runMode := func(full bool) (*Analyzer, *Report) {
			nw := testlib.Network(t, text)
			a := LoadFlat(nw, Options{FullSweeps: full})
			rep, err := a.IdentifySlowPaths()
			if err != nil {
				t.Fatal(err)
			}
			return a, rep
		}
		aInc, rInc := runMode(false)
		aFull, rFull := runMode(true)
		if rInc.OK != rFull.OK || rInc.WorstSlack() != rFull.WorstSlack() {
			t.Fatalf("design %d: verdicts differ: %v/%v vs %v/%v",
				di, rInc.OK, rInc.WorstSlack(), rFull.OK, rFull.WorstSlack())
		}
		for ei := range aInc.CD.Elems {
			if rInc.Result.InSlack(ei) != rFull.Result.InSlack(ei) ||
				rInc.Result.OutSlack(ei) != rFull.Result.OutSlack(ei) {
				t.Fatalf("design %d: element %s slacks differ (%v/%v vs %v/%v)",
					di, aInc.CD.Elems[ei].Name(),
					rInc.Result.InSlack(ei), rInc.Result.OutSlack(ei),
					rFull.Result.InSlack(ei), rFull.Result.OutSlack(ei))
			}
		}
		for n := range rInc.Result.NumNets() {
			if rInc.Result.NetSlack(n) != rFull.Result.NetSlack(n) {
				t.Fatalf("design %d: net %s slack differs", di, aInc.CD.Nets[n])
			}
		}
		_ = aFull
	}
}

// TestIncrementalConstraintsMatch: Algorithm 2 budgets agree across modes.
func TestIncrementalConstraintsMatch(t *testing.T) {
	budgets := func(full bool) (map[[2]string]clock.Time, *Analyzer) {
		nw := testlib.Network(t, fixText)
		a := LoadFlat(nw, Options{FullSweeps: full})
		if _, err := a.IdentifySlowPaths(); err != nil {
			t.Fatal(err)
		}
		c, err := a.GenerateConstraints()
		if err != nil {
			t.Fatal(err)
		}
		out := map[[2]string]clock.Time{}
		for _, cl := range a.CD.Clusters {
			for _, arc := range cl.Arcs {
				out[[2]string{a.CD.Nets[arc.From], a.CD.Nets[arc.To]}] = c.Allowed(arc.From, arc.To)
			}
		}
		return out, a
	}
	inc, _ := budgets(false)
	full, _ := budgets(true)
	if len(inc) != len(full) {
		t.Fatal("budget key sets differ")
	}
	for k, v := range inc {
		if full[k] != v {
			t.Fatalf("budget %v: %v vs %v", k, v, full[k])
		}
	}
}

// TestSlackTransferMonotone checks the §6 proposition: performing any
// complete or partial slack transfer never shrinks the set of satisfied
// constraints — an element terminal whose slack was non-negative stays
// non-negative.
func TestSlackTransferMonotone(t *testing.T) {
	const text = `
design mono
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D20NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D30NS A=q1 Y=n2
inst l2 LAT D=n2 G=phi2 Q=q2
inst g4 D40NS A=q2 Y=n3
inst l3 LAT D=n3 G=phi1 Q=q3
inst g5 D10NS A=q3 Y=OUT
end
`
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nw := testlib.Network(t, text)
		cd := cluster.Compile(nw)
		st := sta.NewState(cd)
		// Random valid starting offsets.
		for ei, e := range nw.Elems {
			if e.HasDOF() {
				span := int64(e.OdzMax() - e.OdzMin())
				st.Odz[ei] = e.OdzMin() + clock.Time(r.Int63n(span+1))
			}
		}
		before := sta.Analyze(cd, st)
		// One random legal transfer on one random element.
		ei := r.Intn(len(nw.Elems))
		e := nw.Elems[ei]
		switch r.Intn(4) {
		case 0:
			st.Odz[ei], _ = e.CompleteForwardAt(st.Odz[ei], before.InSlack(ei))
		case 1:
			st.Odz[ei], _ = e.CompleteBackwardAt(st.Odz[ei], before.OutSlack(ei))
		case 2:
			st.Odz[ei], _ = e.PartialForwardAt(st.Odz[ei], before.InSlack(ei), int64(2+r.Intn(3)))
		case 3:
			st.Odz[ei], _ = e.PartialBackwardAt(st.Odz[ei], before.OutSlack(ei), int64(2+r.Intn(3)))
		}
		after := sta.Analyze(cd, st)
		for i := range before.NumElems() {
			if before.InSlack(i) >= 0 && after.InSlack(i) < 0 {
				t.Fatalf("trial %d: input terminal %s lost satisfaction (%v -> %v)",
					trial, nw.Elems[i].Name(), before.InSlack(i), after.InSlack(i))
			}
			if before.OutSlack(i) >= 0 && after.OutSlack(i) < 0 {
				t.Fatalf("trial %d: output terminal %s lost satisfaction (%v -> %v)",
					trial, nw.Elems[i].Name(), before.OutSlack(i), after.OutSlack(i))
			}
		}
	}
}

func TestResetOffsets(t *testing.T) {
	a := analyzer(t, fastPipe)
	li := testlib.Elem(t, a.CD.Network, "l1")
	a.St.Odz[li] = a.CD.Elems[li].OdzMin()
	a.ResetOffsets()
	if a.St.Odz[li] != a.CD.Elems[li].OdzMax() {
		t.Fatal("ResetOffsets did not restore")
	}
}

func TestGenerateConstraintsFastDesign(t *testing.T) {
	a := analyzer(t, fastPipe)
	if _, err := a.IdentifySlowPaths(); err != nil {
		t.Fatal(err)
	}
	c, err := a.GenerateConstraints()
	if err != nil {
		t.Fatal(err)
	}
	// §3 guarantee on fast designs: for every arc, required(to) − ready(from)
	// exceeds the arc delay.
	for _, cl := range a.CD.Clusters {
		for ai, arc := range cl.Arcs {
			budget := c.Allowed(arc.From, arc.To)
			if budget < arc.D.Max() {
				t.Fatalf("arc %s %s->%s: budget %v < delay %v",
					a.CD.ArcInst(cl, ai), a.CD.Nets[arc.From], a.CD.Nets[arc.To], budget, arc.D.Max())
			}
		}
	}
	// Ready < required everywhere analyzed on a fast design.
	for n := range a.CD.Nets {
		for _, nt := range c.NetTimes(n) {
			if nt.Ready() != -clock.Inf && nt.Required() != clock.Inf && nt.Ready() >= nt.Required() {
				t.Fatalf("net %s: ready %v >= required %v", a.CD.Nets[n], nt.Ready(), nt.Required())
			}
		}
	}
}

func TestGenerateConstraintsSlowDesign(t *testing.T) {
	a := analyzer(t, `
design slowc
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D60NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D55NS A=q1 Y=n2
inst f2 FFD D=n2 CK=phi2 Q=q2
inst g3 D1NS A=q2 Y=OUT
end
`)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("premise broken")
	}
	c, err := a.GenerateConstraints()
	if err != nil {
		t.Fatal(err)
	}
	// On the slow arcs, the budget is less than the actual delay: the gap
	// is the speed-up required to make the path just fast enough.
	in, n2 := a.CD.NetIdx["IN"], a.CD.NetIdx["n2"]
	q1 := a.CD.NetIdx["q1"]
	// Total path IN→n1 budget + q1→n2 budget must be less than the actual
	// 115ns (the design is infeasible by 115 − available).
	b1 := c.Allowed(in, a.CD.NetIdx["n1"])
	b2 := c.Allowed(q1, n2)
	if b1 >= 60*clock.Ns && b2 >= 55*clock.Ns {
		t.Fatalf("no speed-up demanded: budgets %v / %v", b1, b2)
	}
	if b1 == clock.Inf || b2 == clock.Inf {
		t.Fatal("budgets missing")
	}
	// Snatch sweeps converged.
	if c.BackwardSnatches == 0 || c.ForwardSnatches == 0 {
		t.Fatal("snatch counts zero")
	}
}

// TestConstraintsSufficiency: the generated budget for a slow arc is the
// speed-up target; rebuilding the design with the arc just inside its
// budget yields a design Algorithm 1 accepts.
//
// Fixture: IN (asserted 90ns) → 55ns → l1 (LAT phi1) → 60ns → f2 (FF phi2,
// closes 90ns), T = 100ns. Upstream needs closure ≥ 145 ≡ requires
// Odz ≥ +5 (impossible, max 0); the interaction with the downstream stage
// (which needs Odz ≤ −10) demands the IN→n1 budget come out ≤ 40ns.
const fixText = `
design fix
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D55NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 D60NS A=q1 Y=n2
inst f2 FFD D=n2 CK=phi2 Q=q2
inst g3 D1NS A=q2 Y=OUT
end
`

func TestConstraintsSufficiency(t *testing.T) {
	nw := testlib.Network(t, fixText)
	a := LoadFlat(nw, Options{})
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("premise broken: design should be slow")
	}
	c, err := a.GenerateConstraints()
	if err != nil {
		t.Fatal(err)
	}
	in, n1 := nw.NetIdx["IN"], nw.NetIdx["n1"]
	budget := c.Allowed(in, n1)
	if budget <= 0 || budget > 40*clock.Ns {
		t.Fatalf("budget %v out of expected range (0, 40ns]", budget)
	}
	// Rebuild and patch g1 strictly inside its budget (exactly at the
	// budget the path is only *just* fast enough — zero slack — which the
	// simplified model conservatively flags, §6).
	nw2 := testlib.Network(t, fixText)
	target := budget - 1*clock.Ns
	for _, cl := range nw2.Clusters {
		for ai := range cl.Arcs {
			if nw2.ArcInst(cl, ai) == "g1" {
				cl.Arcs[ai].D.MaxRise, cl.Arcs[ai].D.MaxFall = target, target
				cl.Arcs[ai].D.MinRise, cl.Arcs[ai].D.MinFall = target/2, target/2
			}
		}
	}
	a2 := LoadFlat(nw2, Options{})
	rep2, err := a2.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.OK {
		t.Fatalf("design still slow after meeting the budget %v (worst %v)", budget, rep2.WorstSlack())
	}
}

// TestConstraintsSlowdownBound: the other half of Algorithm 2's contract —
// for paths that are fast enough, the generated times "bound the degree to
// which a path may be slowed down" (§3). Slowing an arc to just inside its
// budget keeps the design passing; pushing past the budget breaks it.
func TestConstraintsSlowdownBound(t *testing.T) {
	build := func() *Analyzer {
		nw := testlib.Network(t, fastPipe)
		return LoadFlat(nw, Options{})
	}
	a := build()
	if _, err := a.IdentifySlowPaths(); err != nil {
		t.Fatal(err)
	}
	c, err := a.GenerateConstraints()
	if err != nil {
		t.Fatal(err)
	}
	q1, n2 := a.CD.NetIdx["q1"], a.CD.NetIdx["n2"]
	budget := c.Allowed(q1, n2) // currently a 10ns stage
	if budget <= 10*clock.Ns {
		t.Fatalf("budget %v not above current delay", budget)
	}
	patch := func(target clock.Time) *Analyzer {
		a2 := build()
		for _, cl := range a2.CD.Clusters {
			for ai := range cl.Arcs {
				if a2.CD.ArcInst(cl, ai) == "g2" {
					cl.Arcs[ai].D.MaxRise, cl.Arcs[ai].D.MaxFall = target, target
					cl.Arcs[ai].D.MinRise, cl.Arcs[ai].D.MinFall = target/2, target/2
				}
			}
		}
		return a2
	}
	// Just inside the budget: still fast. (The budget is a *safe* bound —
	// exceeding it may still be feasible through further borrowing, so no
	// converse is asserted at budget+ε.)
	inside := patch(budget - 1*clock.Ns)
	rep, err := inside.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("slowing to budget-1ns (%v) broke timing (worst %v)", budget-1*clock.Ns, rep.WorstSlack())
	}
	// Beyond any possible window (launch cannot precede phi1.rise at 0,
	// capture is at 90ns): must fail.
	outside := patch(95 * clock.Ns)
	rep2, err := outside.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK {
		t.Fatalf("95ns through a 90ns window did not break timing (budget %v)", budget)
	}
}

func TestSupplementaryViolation(t *testing.T) {
	// Launch from a slow FF (period 100ns, trail 40ns) into a fast FF
	// (period 50ns): the fast capture occurrence one half-period later
	// pairs with the stale launch; bound = 55−50 = 5ns > dmin (50ps).
	a := analyzer(t, `
design supp
clock slow period 100ns rise 0 fall 40ns
clock fast period 50ns rise 20ns fall 45ns
input IN clock slow edge fall offset 0
output OUT clock slow edge fall offset 0
inst f1 FFD D=IN CK=slow Q=q1
inst g1 BUFD A=q1 Y=n1
inst f2 FFD D=n1 CK=fast Q=q2
inst g2 BUFD A=q2 Y=OUT
end
`)
	if _, err := a.IdentifySlowPaths(); err != nil {
		t.Fatal(err)
	}
	v := a.CheckSupplementary()
	if len(v) == 0 {
		t.Fatal("expected a supplementary (double-clocking) violation")
	}
	found := false
	for _, x := range v {
		from := a.CD.Elems[x.FromElem]
		to := a.CD.Elems[x.ToElem]
		if from.Inst == "f1" && to.Inst == "f2" && x.MinDelay <= x.Bound {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations lack f1->f2: %+v", v)
	}
}

func TestSupplementaryCleanDesign(t *testing.T) {
	a := analyzer(t, fastPipe)
	if _, err := a.IdentifySlowPaths(); err != nil {
		t.Fatal(err)
	}
	if v := a.CheckSupplementary(); len(v) != 0 {
		t.Fatalf("unexpected supplementary violations: %+v", v)
	}
}

func TestLoadEndToEndWithDefaultLibrary(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(`
design e2e
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -0.5ns
module STAGE
  input A
  output Y
  inst i1 INV_X1 A=A Y=t
  inst i2 INV_X2 A=t Y=Y
endmodule
inst u1 STAGE A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst u2 STAGE A=q1 Y=n2
inst f2 DFF_X1 D=n2 CK=phi2 Q=q2
inst g3 BUF_X1 A=q2 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Load(lib, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Hierarchy resolved: STAGE must be a super-cell in the analyzer's lib.
	if a.Lib.Cell("STAGE") == nil {
		t.Fatal("module not rolled up")
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("realistic pipe reported slow: %v", rep.WorstSlack())
	}
}

// TestTristateBusAnalysis: two clocked tristate drivers time-share one bus
// (enabled on disjoint phases); each behaves as a transparent latch (§5).
// The bus cluster sees two launching elements and the capture terminals see
// the worst of them.
func TestTristateBusAnalysis(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(`
design bus
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input A clock phi2 edge fall offset 0
input B clock phi1 edge fall offset 0
output OUT1 clock phi2 edge fall offset 0
output OUT2 clock phi1 edge fall offset 0
inst t1 TBUF_X1 A=A EN=phi1 Y=bus
inst t2 TBUF_X1 A=B EN=phi2 Y=bus
inst g1 INV_X1 A=bus Y=n1
inst c1 DLATCH_X1 D=n1 G=phi2 Q=q1
inst c2 DLATCH_X1 D=n1 G=phi1 Q=q2
inst o1 BUF_X1 A=q1 Y=OUT1
inst o2 BUF_X1 A=q2 Y=OUT2
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Load(lib, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both drivers appear as elements with transparent-latch freedom.
	for _, name := range []string{"t1", "t2"} {
		ids := a.CD.ElemsOf(name)
		if len(ids) != 1 {
			t.Fatalf("%s elements = %d", name, len(ids))
		}
		if !a.CD.Elems[ids[0]].HasDOF() {
			t.Fatalf("%s lacks the transparent DOF", name)
		}
	}
	// The bus cluster holds both launch occurrences.
	busNet := a.CD.NetIdx["bus"]
	var busCl bool
	for _, cl := range a.CD.Clusters {
		if cl.LocalIndex(busNet) < 0 {
			continue
		}
		busCl = true
		launches := 0
		for _, in := range cl.Inputs {
			if in.Net == busNet {
				launches++
			}
		}
		if launches != 2 {
			t.Fatalf("bus launches = %d, want 2", launches)
		}
	}
	if !busCl {
		t.Fatal("bus not in any cluster")
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("tristate bus design slow: %v", rep.WorstSlack())
	}
}

// Property: Algorithm 1 never reports slow on designs where every
// launch-to-capture window comfortably exceeds the inserted delay, and
// always reports slow when some stage exceeds its maximum possible window.
func TestAlgorithm1WindowProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Stage delay in ns: 1..120; the phi1->phi2 window with borrowing
		// spans up to 90ns (assert as early as phi1.rise=0, capture at
		// phi2.fall=90 at the latest legal closure); beyond it must fail.
		dly := []clock.Time{1, 5, 10, 20, 30, 40, 55, 60}[r.Intn(8)]
		text := `
design p
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 D1NS A=IN Y=n1
inst l1 LAT D=n1 G=phi1 Q=q1
inst g2 ` + map[clock.Time]string{1: "D1NS", 5: "D5NS", 10: "D10NS", 20: "D20NS", 30: "D30NS", 40: "D40NS", 55: "D55NS", 60: "D60NS"}[dly] + ` A=q1 Y=n2
inst f2 FFD D=n2 CK=phi2 Q=q2
inst g3 D1NS A=q2 Y=OUT
end
`
		nw := testlib.Network(t, text)
		a := LoadFlat(nw, Options{})
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			return false
		}
		// Launch earliest at phi1.rise (0), capture at 90: feasible iff
		// delay <= 90ns. All listed delays are <= 60: must pass. Also the
		// upstream stage (1ns into a 40+ns window) always passes.
		return rep.OK
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestWorstPaths: critical paths are traceable on passing designs too,
// sorted tightest first, and consistent with the endpoint slacks.
func TestWorstPaths(t *testing.T) {
	a := analyzer(t, fastPipe)
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatal("premise: fastPipe passes")
	}
	paths := a.WorstPaths(rep.Result, 0)
	if len(paths) == 0 {
		t.Fatal("no critical paths traced on a passing design")
	}
	for i := 1; i < len(paths); i++ {
		if paths[i-1].Slack > paths[i].Slack {
			t.Fatal("paths not sorted by slack")
		}
	}
	for _, p := range paths {
		if p.Slack != rep.Result.InSlack(p.ToElem) {
			t.Fatalf("path slack %v != endpoint slack %v", p.Slack, rep.Result.InSlack(p.ToElem))
		}
		if p.Slack <= 0 {
			t.Fatal("passing design produced non-positive path slack")
		}
		if len(p.Nets) < 1 || len(p.Insts) != len(p.Nets)-1 {
			t.Fatalf("malformed path %+v", p)
		}
	}
	// Capped variant returns the prefix.
	top2 := a.WorstPaths(rep.Result, 2)
	if len(top2) != 2 || top2[0].Slack != paths[0].Slack {
		t.Fatalf("cap wrong: %+v", top2)
	}
}

// TestEnablePathTiming: end-to-end §4 enable-path analysis. The enable
// signal is launched by a latch on phi2 (assert ≈ 50ns at the earliest) and
// gates phi1 pulses (leading edges at 0 ≡ 100ns): the enable has ~50ns of
// margin when its logic is fast, and violates when far more than 50ns of
// logic sits in the enable path.
func TestEnablePathTiming(t *testing.T) {
	lib := celllib.Default()
	build := func(enDelayGates int) (*Analyzer, error) {
		var sb strings.Builder
		sb.WriteString(`
design gated
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi1 edge fall offset 0
inst le DLATCH_X1 D=IN G=phi2 Q=en0
`)
		prev := "en0"
		for i := 0; i < enDelayGates; i++ {
			next := fmt.Sprintf("en%d", i+1)
			fmt.Fprintf(&sb, "inst gd%d BUF_X4 A=%s Y=%s\n", i, prev, next)
			prev = next
		}
		fmt.Fprintf(&sb, "inst ga AND2_X1 A=phi1 B=%s Y=gck\n", prev)
		sb.WriteString(`inst l1 DLATCH_X1 D=IN G=gck Q=q1
inst g1 BUF_X1 A=q1 Y=OUT
end
`)
		d, err := netlist.ParseString(sb.String())
		if err != nil {
			return nil, err
		}
		return Load(lib, d, DefaultOptions())
	}

	// Fast enable logic: passes, and the enable endpoint has positive
	// finite slack.
	a, err := build(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fast gated design slow: %v", rep.WorstSlack())
	}
	ids := a.CD.ElemsOf("l1.en0")
	if len(ids) != 1 {
		t.Fatalf("enable endpoints = %d", len(ids))
	}
	s := rep.Result.InSlack(ids[0])
	if s == clock.Inf || s <= 0 {
		t.Fatalf("enable endpoint slack = %v", s)
	}
	// The enable must settle before the NEXT phi1 leading edge (0 ≡
	// 100ns) after its ~50.3ns assertion: margin just under 50ns.
	if s > 50*clock.Ns {
		t.Fatalf("enable slack %v implausibly large", s)
	}

	// Slow enable logic (the latch asserts ~50ns, then ~200 buffer delays
	// exceed the ~49.7ns budget): the enable endpoint must be flagged.
	slow, err := build(200)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := slow.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK {
		t.Fatal("slow enable path not flagged")
	}
	ids2 := slow.CD.ElemsOf("l1.en0")
	if rep2.Result.InSlack(ids2[0]) > 0 {
		t.Fatalf("enable endpoint slack = %v, want <= 0", rep2.Result.InSlack(ids2[0]))
	}
}
