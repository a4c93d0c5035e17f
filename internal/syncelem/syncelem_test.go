package syncelem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
)

func cs2(t *testing.T) *clock.Set {
	t.Helper()
	s, err := clock.NewSet(
		clock.Signal{Name: "phi1", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 20 * clock.Ns},
		clock.Signal{Name: "phi2", Period: 50 * clock.Ns, RiseAt: 25 * clock.Ns, FallAt: 45 * clock.Ns},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func transparentTiming() *celllib.SyncTiming {
	return &celllib.SyncTiming{Dsetup: 150, Ddz: 280, Dcz: 320}
}

// TestTransparentOffsets_PaperExample reproduces the worked example of §5
// (Figure 3 context): a transparent latch with no internal delays,
// controlled by a 20ns clock pulse each period; the output is asserted 5ns
// after the start of the pulse, so Ozd = 5ns and Odz = −15ns. A 2ns delay
// between the clock source and the control input gives Oat = Ozc = 2ns.
func TestTransparentOffsets_PaperExample(t *testing.T) {
	cs, err := clock.NewSet(clock.Signal{Name: "phi", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 20 * clock.Ns})
	if err != nil {
		t.Fatal(err)
	}
	st := &celllib.SyncTiming{Dsetup: 0, Ddz: 0, Dcz: 0}
	elems, err := Build("lat", celllib.Transparent, st, cs, 0, false, 2*clock.Ns, 2*clock.Ns)
	if err != nil {
		t.Fatal(err)
	}
	e := elems[0]
	if e.Width != 20*clock.Ns {
		t.Fatalf("W = %v, want 20ns", e.Width)
	}
	// Set the DOF so the output asserts 5ns after the leading edge.
	e.Odz = -15 * clock.Ns
	if err := e.Validate(); err != nil {
		t.Fatalf("paper example offsets rejected: %v", err)
	}
	if e.Ozd() != 5*clock.Ns {
		t.Fatalf("Ozd = %v, want 5ns", e.Ozd())
	}
	if e.Oat() != 2*clock.Ns || e.Ozc() != 2*clock.Ns {
		t.Fatalf("Oat/Ozc = %v/%v, want 2ns/2ns", e.Oat(), e.Ozc())
	}
	// Effective times: assertion = leading(0) + max(2, 5) = 5ns;
	// closure = trailing(20) + min(0, −15) = 5ns.
	if e.OutputAssert() != 5*clock.Ns {
		t.Fatalf("OutputAssert = %v, want 5ns", e.OutputAssert())
	}
	if e.InputClosure() != 5*clock.Ns {
		t.Fatalf("InputClosure = %v, want 5ns", e.InputClosure())
	}
}

func TestBuildTransparentDefaults(t *testing.T) {
	cs := cs2(t)
	elems, err := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	// phi1's 100ns period equals the overall period: one pulse, one element.
	if len(elems) != 1 {
		t.Fatalf("got %d elements, want 1", len(elems))
	}
	e := elems[0]
	if e.IdealAssert != 0 || e.IdealClose != 20*clock.Ns {
		t.Fatalf("ideal times = %v/%v", e.IdealAssert, e.IdealClose)
	}
	// Initial DOF at the latest legal closure.
	if e.Odz != -e.Ddz {
		t.Fatalf("initial Odz = %v, want %v", e.Odz, -e.Ddz)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if !e.HasDOF() {
		t.Fatal("transparent latch without DOF")
	}
	// phi1 has a 100ns period while the overall period is 100ns: wait, the
	// set's overall period is lcm(100,50)=100, so phi1 contributes 1 pulse.
	if len(elems) != cs.PulseCount(0) {
		t.Fatalf("replication count %d != pulse count %d", len(elems), cs.PulseCount(0))
	}
}

func TestBuildReplication(t *testing.T) {
	cs := cs2(t)
	// phi2 (50ns period) pulses twice per overall 100ns period.
	elems, err := Build("l2", celllib.Transparent, transparentTiming(), cs, 1, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 2 {
		t.Fatalf("replicas = %d, want 2", len(elems))
	}
	if elems[0].IdealAssert != 25*clock.Ns || elems[1].IdealAssert != 75*clock.Ns {
		t.Fatalf("assert times %v %v", elems[0].IdealAssert, elems[1].IdealAssert)
	}
	if elems[0].IdealClose != 45*clock.Ns || elems[1].IdealClose != 95*clock.Ns {
		t.Fatalf("close times %v %v", elems[0].IdealClose, elems[1].IdealClose)
	}
	if elems[0].Name() != "l2" || elems[1].Name() != "l2[1]" {
		t.Fatalf("names %q %q", elems[0].Name(), elems[1].Name())
	}
	// Independent DOFs.
	elems[0].Odz = elems[0].shiftAt(elems[0].Odz, -100)
	if elems[1].Odz == elems[0].Odz {
		t.Fatal("replica DOFs aliased")
	}
}

func TestBuildInvertedControl(t *testing.T) {
	cs := cs2(t)
	// Inverted control: element is transparent while phi1 is LOW, so the
	// effective pulse leads at phi1's fall (20ns) and trails at the next
	// rise (100ns ≡ 0, occurrence wraps).
	elems, err := Build("ln", celllib.Transparent, transparentTiming(), cs, 0, true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := elems[0]
	if !e.Inverted {
		t.Fatal("inversion flag lost")
	}
	if e.LeadAt != 20*clock.Ns {
		t.Fatalf("lead = %v, want 20ns", e.LeadAt)
	}
	if e.TrailAt != 0 {
		t.Fatalf("trail = %v, want 0 (wrapped)", e.TrailAt)
	}
	if e.Width != 80*clock.Ns {
		t.Fatalf("width = %v, want 80ns", e.Width)
	}
	// ActiveLow cell with non-inverted path behaves the same way.
	st := transparentTiming()
	st.ActiveLow = true
	elems2, err := Build("ln2", celllib.Transparent, st, cs, 0, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elems2[0].LeadAt != 20*clock.Ns || elems2[0].Width != 80*clock.Ns {
		t.Fatal("ActiveLow not equivalent to inverted path")
	}
	// Double negation cancels.
	elems3, err := Build("ln3", celllib.Transparent, st, cs, 0, true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elems3[0].LeadAt != 0 || elems3[0].Width != 20*clock.Ns {
		t.Fatal("inverted ActiveLow should cancel")
	}
}

func TestEdgeTriggered(t *testing.T) {
	cs := cs2(t)
	elems, err := Build("ff", celllib.EdgeTriggered, transparentTiming(), cs, 0, false, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	e := elems[0]
	if e.IdealAssert != e.IdealClose || e.IdealAssert != 20*clock.Ns {
		t.Fatalf("FF ideal times %v/%v, want both 20ns", e.IdealAssert, e.IdealClose)
	}
	if e.HasDOF() {
		t.Fatal("FF has DOF")
	}
	if e.Ozd() != 0 || e.Odz != 0 {
		t.Fatal("FF data offsets not pinned")
	}
	// Input closure = trail − Dsetup; output assert = trail + Oat + Dcz.
	if e.InputClosure() != 20*clock.Ns-150 {
		t.Fatalf("FF closure = %v", e.InputClosure())
	}
	if e.OutputAssert() != 20*clock.Ns+50+320 {
		t.Fatalf("FF assert = %v", e.OutputAssert())
	}
	// All transfer operations are no-ops.
	if e.CompleteForward(1000) != 0 || e.CompleteBackward(1000) != 0 ||
		e.PartialForward(1000, 2) != 0 || e.PartialBackward(1000, 2) != 0 ||
		e.SnatchForward(-1000) != 0 || e.SnatchBackward(-1000) != 0 {
		t.Fatal("FF transfer ops moved time")
	}
}

func TestBuildRejections(t *testing.T) {
	cs := cs2(t)
	if _, err := Build("c", celllib.Comb, transparentTiming(), cs, 0, false, 0, 0); err == nil {
		t.Fatal("comb accepted")
	}
	if _, err := Build("l", celllib.Transparent, nil, cs, 0, false, 0, 0); err == nil {
		t.Fatal("nil timing accepted")
	}
	if _, err := Build("l", celllib.Transparent, transparentTiming(), cs, 0, false, 10, 20); err == nil {
		t.Fatal("ctrlMax < ctrlMin accepted")
	}
	if _, err := Build("l", celllib.Transparent, transparentTiming(), cs, 0, false, -5, -5); err == nil {
		t.Fatal("negative control delay accepted")
	}
}

func TestOffsetRangeAndEffectiveTimes(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 100, 60)
	e := elems[0]
	if e.OdzMin() != -(20*clock.Ns+280) || e.OdzMax() != -280 {
		t.Fatalf("Odz range [%v,%v]", e.OdzMin(), e.OdzMax())
	}
	// At OdzMax: closure = trail + min(−150, −280) = trail − 280.
	e.Odz = e.OdzMax()
	if e.InputClosure() != 20*clock.Ns-280 {
		t.Fatalf("closure at OdzMax = %v", e.InputClosure())
	}
	// Ozd at max = W: assertion = lead + max(W, Ozc) = lead + 20ns.
	if e.Ozd() != 20*clock.Ns {
		t.Fatalf("Ozd at max = %v", e.Ozd())
	}
	if e.OutputAssert() != 20*clock.Ns {
		t.Fatalf("assert at OdzMax = %v", e.OutputAssert())
	}
	// At OdzMin: Ozd = 0, assertion controlled by Ozc = 100+320.
	e.Odz = e.OdzMin()
	if e.Ozd() != 0 {
		t.Fatalf("Ozd at min = %v", e.Ozd())
	}
	if e.OutputAssert() != 0+100+320 {
		t.Fatalf("assert at OdzMin = %v", e.OutputAssert())
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	e.Odz = e.OdzMax() + 1
	if err := e.Validate(); err == nil {
		t.Fatal("Odz above max accepted")
	}
	e.Odz = e.OdzMin() - 1
	if err := e.Validate(); err == nil {
		t.Fatal("Odz below min accepted")
	}
}

func TestCompleteForwardTransfer(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	// Initially at OdzMax; full headroom down = W.
	if got := e.headroomDownAt(e.Odz); got != 20*clock.Ns {
		t.Fatalf("headroomDown = %v", got)
	}
	// Donate 5ns of upstream slack.
	if amt := e.CompleteForward(5 * clock.Ns); amt != 5*clock.Ns {
		t.Fatalf("transferred %v", amt)
	}
	if e.Odz != -280-5*clock.Ns {
		t.Fatalf("Odz after transfer = %v", e.Odz)
	}
	// Donating more than headroom transfers only the headroom.
	if amt := e.CompleteForward(clock.Inf); amt != 15*clock.Ns {
		t.Fatalf("clamped transfer = %v", amt)
	}
	if e.Odz != e.OdzMin() {
		t.Fatal("not at OdzMin after saturation")
	}
	// No headroom left: nothing transfers.
	if amt := e.CompleteForward(clock.Inf); amt != 0 {
		t.Fatalf("transfer with no headroom = %v", amt)
	}
	// Negative slack: nothing transfers.
	e.Odz = -300
	if amt := e.CompleteForward(-1); amt != 0 {
		t.Fatalf("transfer with negative slack = %v", amt)
	}
}

func TestCompleteBackwardTransfer(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	e.Odz = e.OdzMin()
	if amt := e.CompleteBackward(3 * clock.Ns); amt != 3*clock.Ns {
		t.Fatalf("backward transfer = %v", amt)
	}
	if e.Odz != e.OdzMin()+3*clock.Ns {
		t.Fatalf("Odz = %v", e.Odz)
	}
	if amt := e.CompleteBackward(clock.Inf); amt != e.OdzMax()-e.OdzMin()-3*clock.Ns {
		t.Fatalf("saturating backward = %v", amt)
	}
}

func TestPartialTransfers(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	if amt := e.PartialForward(10*clock.Ns, 2); amt != 5*clock.Ns {
		t.Fatalf("partial forward = %v", amt)
	}
	if amt := e.PartialBackward(8*clock.Ns, 4); amt != 2*clock.Ns {
		t.Fatalf("partial backward = %v", amt)
	}
	// div <= 1 falls back to 2.
	if amt := e.PartialForward(10*clock.Ns, 0); amt != 5*clock.Ns {
		t.Fatalf("partial forward div0 = %v", amt)
	}
}

func TestSnatching(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	// Positive slack: snatch is a no-op.
	if e.SnatchForward(5) != 0 || e.SnatchBackward(5) != 0 {
		t.Fatal("snatched with positive slack")
	}
	// Downstream short by 4ns: snatch forward.
	if amt := e.SnatchForward(-4 * clock.Ns); amt != 4*clock.Ns {
		t.Fatalf("snatch forward = %v", amt)
	}
	if e.Odz != -280-4*clock.Ns {
		t.Fatalf("Odz = %v", e.Odz)
	}
	// Upstream short by 100ns (more than headroom up, which is now 4ns).
	if amt := e.SnatchBackward(-100 * clock.Ns); amt != 4*clock.Ns {
		t.Fatalf("snatch backward = %v", amt)
	}
	if e.Odz != e.OdzMax() {
		t.Fatal("snatch backward did not restore OdzMax")
	}
}

// Property: any sequence of transfer operations keeps the element valid and
// preserves the Figure-3 identity Ozd = W + Odz + Ddz.
func TestTransferInvariants(t *testing.T) {
	cs := cs2(t)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		elems, err := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, r.Intn(2) == 1, clock.Time(r.Intn(1000)), 0)
		if err != nil {
			return false
		}
		e := elems[0]
		for i := 0; i < 50; i++ {
			v := clock.Time(r.Intn(100000) - 50000)
			switch r.Intn(6) {
			case 0:
				e.CompleteForward(v)
			case 1:
				e.CompleteBackward(v)
			case 2:
				e.PartialForward(v, int64(1+r.Intn(4)))
			case 3:
				e.PartialBackward(v, int64(1+r.Intn(4)))
			case 4:
				e.SnatchForward(v)
			case 5:
				e.SnatchBackward(v)
			}
			if e.Validate() != nil {
				return false
			}
			if e.Ozd() != e.Width+e.Odz+e.Ddz {
				return false
			}
			// The data-path closure and assertion move together: their
			// difference is the constant W + Ddz.
			if e.Ozd()-e.Odz != e.Width+e.Ddz {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a forward transfer of amount a moves both the input closure and
// output assertion a picoseconds earlier (when Odz stays below Odc, so the
// min() is governed by Odz).
func TestTransferMovesBothTerminals(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent,
		&celllib.SyncTiming{Dsetup: 0, Ddz: 0, Dcz: 0}, cs, 0, false, 0, 0)
	e := elems[0]
	e.Odz = -2 * clock.Ns // below Odc = 0
	c0, a0 := e.InputClosure(), e.OutputAssert()
	amt := e.CompleteForward(1 * clock.Ns)
	if amt != 1*clock.Ns {
		t.Fatalf("amt = %v", amt)
	}
	if e.InputClosure() != c0-amt || e.OutputAssert() != a0-amt {
		t.Fatalf("terminals moved unequally: closure %v->%v assert %v->%v",
			c0, e.InputClosure(), a0, e.OutputAssert())
	}
}

func TestTristateModeledAsTransparent(t *testing.T) {
	cs := cs2(t)
	elems, err := Build("tb", celllib.Tristate, transparentTiming(), cs, 0, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := elems[0]
	if !e.HasDOF() {
		t.Fatal("tristate driver should have transparent-latch freedom")
	}
	if e.IdealAssert != e.LeadAt || e.IdealClose != e.TrailAt {
		t.Fatal("tristate ideal times wrong")
	}
}

func TestValidateErrorBranches(t *testing.T) {
	cs := cs2(t)
	mk := func() *Element {
		elems, err := Build("v", celllib.Transparent, transparentTiming(), cs, 0, false, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		return elems[0]
	}
	e := mk()
	e.Dsetup = -1
	if e.Validate() == nil {
		t.Fatal("negative Dsetup accepted")
	}
	e = mk()
	e.CtrlMax, e.CtrlMin = 5, 10
	if e.Validate() == nil {
		t.Fatal("ctrlMax < ctrlMin accepted")
	}
	e = mk()
	e.CtrlMin = -1
	if e.Validate() == nil {
		t.Fatal("negative ctrlMin accepted")
	}
	// Edge-triggered with nonzero Odz.
	ff, err := Build("f", celllib.EdgeTriggered, transparentTiming(), cs, 0, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ff[0].Odz = 5
	if ff[0].Validate() == nil {
		t.Fatal("FF with nonzero Odz accepted")
	}
	// Port elements validate trivially.
	ports, err := BuildPort("P", cs, 0, clock.Rise, -100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ports[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if ports[0].InputOffset() != -100 || ports[0].OutputOffset() != -100 {
		t.Fatal("port offsets not pinned")
	}
}

func TestBuildPortErrors(t *testing.T) {
	cs := cs2(t)
	if _, err := BuildPort("P", cs, -1, clock.Rise, 0); err == nil {
		t.Fatal("bad signal index accepted")
	}
	if _, err := BuildPort("P", cs, 99, clock.Rise, 0); err == nil {
		t.Fatal("out-of-range signal accepted")
	}
	// Multi-pulse port replication.
	ports, err := BuildPort("P", cs, 1, clock.Fall, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 || ports[0].IdealAssert == ports[1].IdealAssert {
		t.Fatalf("port replication wrong: %d", len(ports))
	}
}

// TestTransferMovesExactlyWhenPositive: each of the six pure transfers
// returns a positive amount exactly when it changes the offset, and then
// moves it by that amount. A fixed-point replay counts an element the
// previous run moved by its offset alone, so the moved counts it reports
// rest on this. Offsets range over each element's legal range, slacks
// over both signs, zero and the +Inf of an unconstrained terminal.
func TestTransferMovesExactlyWhenPositive(t *testing.T) {
	cs := cs2(t)
	var elems []*Element
	for _, inv := range []bool{false, true} {
		es, err := Build("l", celllib.Transparent, transparentTiming(), cs, 0, inv, 100, 60)
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, es...)
	}
	ff, err := Build("ff", celllib.EdgeTriggered, transparentTiming(), cs, 0, false, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	port, err := BuildPort("in", cs, 0, clock.Rise, 0)
	if err != nil {
		t.Fatal(err)
	}
	elems = append(append(elems, ff...), port...)
	transfers := []struct {
		name string
		op   func(e *Element, odz, slack clock.Time, div int64) (clock.Time, clock.Time)
	}{
		{"CompleteForwardAt", func(e *Element, odz, s clock.Time, _ int64) (clock.Time, clock.Time) {
			return e.CompleteForwardAt(odz, s)
		}},
		{"CompleteBackwardAt", func(e *Element, odz, s clock.Time, _ int64) (clock.Time, clock.Time) {
			return e.CompleteBackwardAt(odz, s)
		}},
		{"PartialForwardAt", (*Element).PartialForwardAt},
		{"PartialBackwardAt", (*Element).PartialBackwardAt},
		{"SnatchForwardAt", func(e *Element, odz, s clock.Time, _ int64) (clock.Time, clock.Time) {
			return e.SnatchForwardAt(odz, s)
		}},
		{"SnatchBackwardAt", func(e *Element, odz, s clock.Time, _ int64) (clock.Time, clock.Time) {
			return e.SnatchBackwardAt(odz, s)
		}},
	}
	rng := rand.New(rand.NewSource(1))
	slack := func() clock.Time {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return clock.Inf
		case 2:
			return clock.Time(rng.Intn(5) - 2)
		}
		return clock.Time(rng.Intn(60000) - 30000)
	}
	for _, e := range elems {
		for _, tr := range transfers {
			moves := 0
			for i := 0; i < 2000; i++ {
				odz := e.OdzMin() + clock.Time(rng.Int63n(int64(e.OdzMax()-e.OdzMin())+1))
				if rng.Intn(4) == 0 { // the range's ends
					odz = []clock.Time{e.OdzMin(), e.OdzMax()}[rng.Intn(2)]
				}
				s, div := slack(), int64(rng.Intn(5))
				got, amt := tr.op(e, odz, s, div)
				if (amt > 0) != (got != odz) {
					t.Fatalf("%s %s at odz %v, slack %v, div %d: amount %v but offset %v -> %v", e.Name(), tr.name, odz, s, div, amt, odz, got)
				}
				if amt > 0 {
					moves++
					if d := got - odz; d != amt && d != -amt {
						t.Fatalf("%s %s at odz %v, slack %v: moved %v for an amount of %v", e.Name(), tr.name, odz, s, d, amt)
					}
				}
			}
			if e.HasDOF() && moves == 0 {
				t.Errorf("%s %s never moved an element with a degree of freedom", e.Name(), tr.name)
			}
		}
	}
}
