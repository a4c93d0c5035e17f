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
	odz := -15 * clock.Ns
	if err := e.ValidateAt(odz); err != nil {
		t.Fatalf("paper example offsets rejected: %v", err)
	}
	if e.OzdAt(odz) != 5*clock.Ns {
		t.Fatalf("Ozd = %v, want 5ns", e.OzdAt(odz))
	}
	if e.Oat() != 2*clock.Ns || e.Ozc() != 2*clock.Ns {
		t.Fatalf("Oat/Ozc = %v/%v, want 2ns/2ns", e.Oat(), e.Ozc())
	}
	// Effective times: assertion = leading(0) + max(2, 5) = 5ns;
	// closure = trailing(20) + min(0, −15) = 5ns.
	if e.OutputAssertAt(odz) != 5*clock.Ns {
		t.Fatalf("output assertion = %v, want 5ns", e.OutputAssertAt(odz))
	}
	if c := e.IdealClose + e.InputOffsetAt(odz); c != 5*clock.Ns {
		t.Fatalf("input closure = %v, want 5ns", c)
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
	if e.InitialOdz() != -e.Ddz {
		t.Fatalf("initial Odz = %v, want %v", e.InitialOdz(), -e.Ddz)
	}
	if err := e.ValidateAt(e.InitialOdz()); err != nil {
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
	if e.OzdAt(0) != 0 || e.InitialOdz() != 0 {
		t.Fatal("FF data offsets not pinned")
	}
	// Input closure = trail − Dsetup; output assert = trail + Oat + Dcz.
	if c := e.IdealClose + e.InputOffsetAt(0); c != 20*clock.Ns-150 {
		t.Fatalf("FF closure = %v", c)
	}
	if e.OutputAssertAt(0) != 20*clock.Ns+50+320 {
		t.Fatalf("FF assert = %v", e.OutputAssertAt(0))
	}
	// All transfer operations are no-ops.
	for i, moved := range [][2]clock.Time{
		pair(e.CompleteForwardAt(0, 1000)), pair(e.CompleteBackwardAt(0, 1000)),
		pair(e.PartialForwardAt(0, 1000, 2)), pair(e.PartialBackwardAt(0, 1000, 2)),
		pair(e.SnatchForwardAt(0, -1000)), pair(e.SnatchBackwardAt(0, -1000)),
	} {
		if moved != [2]clock.Time{} {
			t.Fatalf("FF transfer op %d moved time: %v", i, moved)
		}
	}
}

func pair(odz, amt clock.Time) [2]clock.Time { return [2]clock.Time{odz, amt} }

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
	odz := e.OdzMax()
	if c := e.IdealClose + e.InputOffsetAt(odz); c != 20*clock.Ns-280 {
		t.Fatalf("closure at OdzMax = %v", c)
	}
	// Ozd at max = W: assertion = lead + max(W, Ozc) = lead + 20ns.
	if e.OzdAt(odz) != 20*clock.Ns {
		t.Fatalf("Ozd at max = %v", e.OzdAt(odz))
	}
	if e.OutputAssertAt(odz) != 20*clock.Ns {
		t.Fatalf("assert at OdzMax = %v", e.OutputAssertAt(odz))
	}
	// At OdzMin: Ozd = 0, assertion controlled by Ozc = 100+320.
	odz = e.OdzMin()
	if e.OzdAt(odz) != 0 {
		t.Fatalf("Ozd at min = %v", e.OzdAt(odz))
	}
	if e.OutputAssertAt(odz) != 0+100+320 {
		t.Fatalf("assert at OdzMin = %v", e.OutputAssertAt(odz))
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	if err := e.ValidateAt(e.OdzMax() + 1); err == nil {
		t.Fatal("Odz above max accepted")
	}
	if err := e.ValidateAt(e.OdzMin() - 1); err == nil {
		t.Fatal("Odz below min accepted")
	}
}

func TestCompleteForwardTransfer(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	// Initially at OdzMax; full headroom down = W.
	odz := e.InitialOdz()
	if got := e.headroomDownAt(odz); got != 20*clock.Ns {
		t.Fatalf("headroomDown = %v", got)
	}
	// Donate 5ns of upstream slack.
	odz, amt := e.CompleteForwardAt(odz, 5*clock.Ns)
	if amt != 5*clock.Ns {
		t.Fatalf("transferred %v", amt)
	}
	if odz != -280-5*clock.Ns {
		t.Fatalf("Odz after transfer = %v", odz)
	}
	// Donating more than headroom transfers only the headroom.
	if odz, amt = e.CompleteForwardAt(odz, clock.Inf); amt != 15*clock.Ns {
		t.Fatalf("clamped transfer = %v", amt)
	}
	if odz != e.OdzMin() {
		t.Fatal("not at OdzMin after saturation")
	}
	// No headroom left: nothing transfers.
	if _, amt = e.CompleteForwardAt(odz, clock.Inf); amt != 0 {
		t.Fatalf("transfer with no headroom = %v", amt)
	}
	// Negative slack: nothing transfers.
	if _, amt = e.CompleteForwardAt(-300, -1); amt != 0 {
		t.Fatalf("transfer with negative slack = %v", amt)
	}
}

func TestCompleteBackwardTransfer(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	odz, amt := e.CompleteBackwardAt(e.OdzMin(), 3*clock.Ns)
	if amt != 3*clock.Ns {
		t.Fatalf("backward transfer = %v", amt)
	}
	if odz != e.OdzMin()+3*clock.Ns {
		t.Fatalf("Odz = %v", odz)
	}
	if _, amt = e.CompleteBackwardAt(odz, clock.Inf); amt != e.OdzMax()-e.OdzMin()-3*clock.Ns {
		t.Fatalf("saturating backward = %v", amt)
	}
}

func TestPartialTransfers(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	odz, amt := e.PartialForwardAt(e.InitialOdz(), 10*clock.Ns, 2)
	if amt != 5*clock.Ns {
		t.Fatalf("partial forward = %v", amt)
	}
	if odz, amt = e.PartialBackwardAt(odz, 8*clock.Ns, 4); amt != 2*clock.Ns {
		t.Fatalf("partial backward = %v", amt)
	}
	// div <= 1 falls back to 2.
	if _, amt = e.PartialForwardAt(odz, 10*clock.Ns, 0); amt != 5*clock.Ns {
		t.Fatalf("partial forward div0 = %v", amt)
	}
}

func TestSnatching(t *testing.T) {
	cs := cs2(t)
	elems, _ := Build("l1", celllib.Transparent, transparentTiming(), cs, 0, false, 0, 0)
	e := elems[0]
	odz := e.InitialOdz()
	// Positive slack: snatch is a no-op.
	if _, amt := e.SnatchForwardAt(odz, 5); amt != 0 {
		t.Fatal("snatched forward with positive slack")
	}
	if _, amt := e.SnatchBackwardAt(odz, 5); amt != 0 {
		t.Fatal("snatched backward with positive slack")
	}
	// Downstream short by 4ns: snatch forward.
	odz, amt := e.SnatchForwardAt(odz, -4*clock.Ns)
	if amt != 4*clock.Ns {
		t.Fatalf("snatch forward = %v", amt)
	}
	if odz != -280-4*clock.Ns {
		t.Fatalf("Odz = %v", odz)
	}
	// Upstream short by 100ns (more than headroom up, which is now 4ns).
	if odz, amt = e.SnatchBackwardAt(odz, -100*clock.Ns); amt != 4*clock.Ns {
		t.Fatalf("snatch backward = %v", amt)
	}
	if odz != e.OdzMax() {
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
		odz := e.InitialOdz()
		for i := 0; i < 50; i++ {
			v := clock.Time(r.Intn(100000) - 50000)
			switch r.Intn(6) {
			case 0:
				odz, _ = e.CompleteForwardAt(odz, v)
			case 1:
				odz, _ = e.CompleteBackwardAt(odz, v)
			case 2:
				odz, _ = e.PartialForwardAt(odz, v, int64(1+r.Intn(4)))
			case 3:
				odz, _ = e.PartialBackwardAt(odz, v, int64(1+r.Intn(4)))
			case 4:
				odz, _ = e.SnatchForwardAt(odz, v)
			case 5:
				odz, _ = e.SnatchBackwardAt(odz, v)
			}
			if e.ValidateAt(odz) != nil {
				return false
			}
			if e.OzdAt(odz) != e.Width+odz+e.Ddz {
				return false
			}
			// The data-path closure and assertion move together: their
			// difference is the constant W + Ddz.
			if e.OzdAt(odz)-odz != e.Width+e.Ddz {
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
	odz := -2 * clock.Ns // below Odc = 0
	closure := func(odz clock.Time) clock.Time { return e.IdealClose + e.InputOffsetAt(odz) }
	c0, a0 := closure(odz), e.OutputAssertAt(odz)
	odz, amt := e.CompleteForwardAt(odz, 1*clock.Ns)
	if amt != 1*clock.Ns {
		t.Fatalf("amt = %v", amt)
	}
	if closure(odz) != c0-amt || e.OutputAssertAt(odz) != a0-amt {
		t.Fatalf("terminals moved unequally: closure %v->%v assert %v->%v",
			c0, closure(odz), a0, e.OutputAssertAt(odz))
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
	if e.ValidateAt(e.InitialOdz()) == nil {
		t.Fatal("negative Dsetup accepted")
	}
	e = mk()
	e.CtrlMax, e.CtrlMin = 5, 10
	if e.ValidateAt(e.InitialOdz()) == nil {
		t.Fatal("ctrlMax < ctrlMin accepted")
	}
	e = mk()
	e.CtrlMin = -1
	if e.ValidateAt(e.InitialOdz()) == nil {
		t.Fatal("negative ctrlMin accepted")
	}
	// Edge-triggered with nonzero Odz.
	ff, err := Build("f", celllib.EdgeTriggered, transparentTiming(), cs, 0, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ff[0].ValidateAt(5) == nil {
		t.Fatal("FF with nonzero Odz accepted")
	}
	// Port elements validate trivially.
	ports, err := BuildPort("P", cs, 0, clock.Rise, -100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ports[0].ValidateAt(ports[0].InitialOdz()); err != nil {
		t.Fatal(err)
	}
	if ports[0].InputOffsetAt(0) != -100 || ports[0].OutputOffsetAt(0) != -100 {
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
