package core

// Completeness of the slack-transfer search: Algorithm 1 accepts a design
// if and only if some assignment of the transparent-latch offsets satisfies
// every constraint (§4's proposition). The test compares Algorithm 1's
// verdict against an exhaustive grid search over the Odz degrees of freedom
// of small random pipelines, using the same block evaluator (sta.Analyze)
// for both — so it checks the *search*, not the evaluator.

import (
	"fmt"
	"math/rand"
	"testing"

	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/sta"
	"hummingbird/internal/testlib"
)

// gridFeasible exhaustively scans the DOFs in `step` increments and reports
// whether any assignment leaves every terminal slack strictly positive.
func gridFeasible(t *testing.T, text string, step clock.Time) bool {
	net := testlib.Network(t, text)
	cd := cluster.Compile(net)
	st := sta.NewState(cd)
	var dofs []int
	for ei, e := range net.Elems {
		if e.HasDOF() {
			dofs = append(dofs, ei)
		}
	}
	var scan func(k int) bool
	scan = func(k int) bool {
		if k == len(dofs) {
			res := sta.Analyze(cd, st)
			for i := range net.Elems {
				if res.InSlack(i) <= 0 || res.OutSlack(i) <= 0 {
					return false
				}
			}
			return true
		}
		e := net.Elems[dofs[k]]
		for v := e.OdzMin(); v <= e.OdzMax(); v += step {
			st.Odz[dofs[k]] = v
			if scan(k + 1) {
				return true
			}
		}
		// Include the exact upper bound.
		st.Odz[dofs[k]] = e.OdzMax()
		return scan(k + 1)
	}
	return scan(0)
}

// TestAlgorithm1Completeness: whenever the grid finds a strictly positive
// assignment, Algorithm 1 must reach timing closure too.
func TestAlgorithm1Completeness(t *testing.T) {
	delays := []string{"D1NS", "D5NS", "D10NS", "D20NS", "D30NS", "D40NS", "D55NS", "D60NS"}
	r := rand.New(rand.NewSource(20260704))
	agreeOK, agreeSlow := 0, 0
	for trial := 0; trial < 40; trial++ {
		// Random 2-latch pipeline: IN -> d0 -> LAT(phi1) -> d1 ->
		// LAT(phi2) -> d2 -> FF(phi1).
		d0 := delays[r.Intn(len(delays))]
		d1 := delays[r.Intn(len(delays))]
		d2 := delays[r.Intn(len(delays))]
		text := fmt.Sprintf(`
design comp
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi2 edge fall offset 0
output OUT clock phi1 edge fall offset 0
inst g0 %s A=IN Y=n0
inst l1 LAT D=n0 G=phi1 Q=q1
inst g1 %s A=q1 Y=n1
inst l2 LAT D=n1 G=phi2 Q=q2
inst g2 %s A=q2 Y=n2
inst f3 FFD D=n2 CK=phi1 Q=q3
inst g3 D1NS A=q3 Y=OUT
end
`, d0, d1, d2)

		nw := testlib.Network(t, text)
		a := LoadCompiled(cluster.Compile(nw), nw.Design, Options{})
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatal(err)
		}
		feasible := gridFeasible(t, text, 1*clock.Ns)
		if feasible && !rep.OK {
			t.Fatalf("trial %d (%s,%s,%s): grid found a satisfying assignment but Algorithm 1 reported slow (worst %v)",
				trial, d0, d1, d2, rep.WorstSlack())
		}
		// The converse: Algorithm 1's fixed-point offsets are themselves a
		// witness — already asserted by rep.OK ⇒ allPositive. Count
		// agreement for reporting.
		if rep.OK {
			agreeOK++
		} else {
			agreeSlow++
		}
		// Soundness spot-check: when Algorithm 1 says OK, its final
		// offsets satisfy the element constraints.
		if rep.OK {
			for ei, e := range a.CD.Elems {
				if err := e.ValidateAt(a.St.Odz[ei]); err != nil {
					t.Fatalf("trial %d: fixed point violates element constraints: %v", trial, err)
				}
			}
		}
	}
	if agreeOK == 0 || agreeSlow == 0 {
		t.Fatalf("degenerate trial mix: %d ok, %d slow — fixture delays need retuning", agreeOK, agreeSlow)
	}
}

// TestAlgorithm1CompletenessCycle: the same completeness check on the
// two-latch loop topology (§3's directed cycle through latches), where the
// two DOFs genuinely interact.
func TestAlgorithm1CompletenessCycle(t *testing.T) {
	delays := []string{"D10NS", "D20NS", "D30NS", "D40NS", "D55NS", "D60NS"}
	r := rand.New(rand.NewSource(77))
	okSeen, slowSeen := false, false
	for trial := 0; trial < 25; trial++ {
		dA := delays[r.Intn(len(delays))]
		dB := delays[r.Intn(len(delays))]
		text := fmt.Sprintf(`
design loopc
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 100ns rise 50ns fall 90ns
input IN clock phi1 edge rise offset 0
output OUT clock phi1 edge rise offset 0
inst gx XORD A=IN B=fb Y=d1
inst l1 LAT D=d1 G=phi1 Q=q1
inst ga %s A=q1 Y=d2
inst l2 LAT D=d2 G=phi2 Q=q2
inst gb %s A=q2 Y=fb
inst g3 BUFD A=q1 Y=OUT
end
`, dA, dB)
		nw := testlib.Network(t, text)
		a := LoadCompiled(cluster.Compile(nw), nw.Design, Options{})
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatal(err)
		}
		feasible := gridFeasible(t, text, 1*clock.Ns)
		if feasible && !rep.OK {
			t.Fatalf("trial %d (%s,%s): grid feasible but Algorithm 1 slow (worst %v)",
				trial, dA, dB, rep.WorstSlack())
		}
		if rep.OK {
			okSeen = true
		} else {
			slowSeen = true
		}
	}
	if !okSeen || !slowSeen {
		t.Fatal("degenerate loop trial mix")
	}
}
