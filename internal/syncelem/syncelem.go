// Package syncelem implements the paper's generic synchronising-element
// model (§4, Figure 2) and the concrete edge-triggered / transparent-latch /
// tristate-driver models of §5 (Figure 3).
//
// Each element terminal carries an *offset* — a real number relative to an
// *ideal* time of the associated ideal system (a clock edge):
//
//	Odc = −Dsetup        input closure via closure control   (constant)
//	Odz                  input closure via the data path     (the DOF)
//	Ozc = Oat + Dcz      output assertion via assert control (control delay)
//	Ozd = W + Odz + Ddz  output assertion via the data path  (Figure 3)
//
// Effective input closure  = ideal closure  + min(Odc, Odz)
// Effective output assert  = ideal assertion + max(Ozc, Ozd)
//
// Transparent latches (and clocked tristate drivers, modelled identically,
// §5) expose a single degree of freedom: sliding Odz within
// [−(W+Ddz), −Ddz] trades time between the combinational path *into* the
// element and the path *out of* it. Edge-triggered latches have Odz and Ozd
// pinned to zero — no freedom. Slack transfer and time snatching (§6) are
// exactly shifts of this DOF.
//
// A physical latch clocked at n times the overall frequency is represented
// by n Elements "connected in parallel" (§4), one per control pulse in the
// overall period; each replica has independent offsets.
//
// An Element holds no offset. Every analysis keeps its Odz values in an
// sta.AnalysisState and passes them to the *At methods, so the elements a
// compiled design shares between sessions are never written after Build.
package syncelem

import (
	"fmt"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
)

// Element is one generic synchronising element: one control pulse of one
// physical latch instance per overall clock period.
type Element struct {
	// Inst is the owning netlist instance name.
	Inst string
	// Occur is the pulse occurrence index within the overall period
	// (0 for elements clocked at the overall frequency).
	Occur int
	// Kind is Transparent, EdgeTriggered or Tristate.
	Kind celllib.Kind

	// Sig is the controlling clock signal's index within the clock.Set.
	Sig int
	// Inverted records whether the effective control pulse is the
	// complement of the clock waveform (control-path inversion parity
	// XOR the cell's ActiveLow polarity); under the §3 monotonicity
	// assumption this single bit captures the whole control function.
	Inverted bool

	// LeadEdge and TrailEdge identify the clock edges that bound the
	// effective control pulse, as indices into clock.Set.Edges().
	LeadEdge, TrailEdge int
	// LeadAt and TrailAt are those edges' absolute times in [0, T).
	LeadAt, TrailAt clock.Time
	// Width is the control pulse width W (cyclic distance lead→trail).
	Width clock.Time

	// IdealAssert is the ideal output assertion time: the leading edge for
	// transparent elements, the trailing edge for edge-triggered ones.
	IdealAssert clock.Time
	// IdealClose is the ideal input closure time: the trailing edge.
	IdealClose clock.Time
	// AssertEdge and CloseEdge are the corresponding edge indices.
	AssertEdge, CloseEdge int

	// Element timing parameters (§5).
	Dsetup, Ddz, Dcz clock.Time
	// CtrlMax/CtrlMin are the control path delays from the clock generator
	// to the control input (Oat = CtrlMax; the paper's Oac lower bound of
	// zero corresponds to CtrlMin ≥ 0).
	CtrlMax, CtrlMin clock.Time

	// Port marks a virtual element standing in for a primary input or
	// output of the design: assertion (inputs) or closure (outputs) is
	// pinned at the referenced clock edge plus PortOffset, with no degree
	// of freedom. This realises Hitchcock-style assorted assertion and
	// closure times at the chip boundary [6].
	Port bool
	// PortOffset shifts the port's pinned time relative to its ideal edge.
	PortOffset clock.Time
}

// BuildPort expands one primary port into its virtual generic elements, one
// per occurrence of the referenced clock edge within the overall period. A
// primary input behaves as an immovable synchronising-element output
// asserting at (edge + offset); a primary output behaves as an immovable
// data input closing at (edge + offset).
func BuildPort(name string, cs *clock.Set, sig int, kind clock.EdgeKind, offset clock.Time) ([]*Element, error) {
	if sig < 0 || sig >= cs.Len() {
		return nil, fmt.Errorf("syncelem: port %s: bad clock index %d", name, sig)
	}
	n := cs.PulseCount(sig)
	elems := make([]*Element, 0, n)
	for k := 0; k < n; k++ {
		idx := cs.FindEdge(sig, kind, k)
		if idx < 0 {
			return nil, fmt.Errorf("syncelem: port %s: edge not found", name)
		}
		at := cs.Edges()[idx].At
		e := &Element{
			Inst: name, Occur: k, Kind: celllib.EdgeTriggered,
			Sig:         sig,
			IdealAssert: at, AssertEdge: idx,
			IdealClose: at, CloseEdge: idx,
			LeadEdge: idx, TrailEdge: idx, LeadAt: at, TrailAt: at,
			Port: true, PortOffset: offset,
		}
		elems = append(elems, e)
	}
	return elems, nil
}

// Build expands one physical synchronising instance into its generic
// elements: one per control pulse within the overall period of cs.
// inverted is the control path's inversion parity (true if an odd number of
// logic inversions separate the clock generator from the control pin);
// ctrlMax/ctrlMin are the control path propagation delays.
func Build(inst string, kind celllib.Kind, st *celllib.SyncTiming, cs *clock.Set,
	sig int, inverted bool, ctrlMax, ctrlMin clock.Time) ([]*Element, error) {
	if kind == celllib.Comb {
		return nil, fmt.Errorf("syncelem: %s: combinational cells are not synchronising elements", inst)
	}
	if st == nil {
		return nil, fmt.Errorf("syncelem: %s: missing sync timing", inst)
	}
	if ctrlMax < ctrlMin || ctrlMin < 0 {
		return nil, fmt.Errorf("syncelem: %s: bad control delays max=%v min=%v", inst, ctrlMax, ctrlMin)
	}
	eff := inverted != st.ActiveLow // effective complementation of the waveform
	s := cs.Signal(sig)
	leadKind, trailKind := clock.Rise, clock.Fall
	if eff {
		leadKind, trailKind = clock.Fall, clock.Rise
	}
	n := cs.PulseCount(sig)
	elems := make([]*Element, 0, n)
	for k := 0; k < n; k++ {
		leadPhase := s.RiseAt
		trailPhase := s.FallAt
		if eff {
			leadPhase, trailPhase = s.FallAt, s.RiseAt
		}
		leadAt := leadPhase + clock.Time(k)*s.Period
		// The trailing edge is the first trailKind edge cyclically after
		// the leading edge; it may wrap into the next period (occurrence
		// (k+1) mod n).
		trailOcc := k
		trailAt := trailPhase + clock.Time(k)*s.Period
		if trailPhase <= leadPhase {
			trailOcc = (k + 1) % n
			trailAt = trailPhase + clock.Time(trailOcc)*s.Period
		}
		leadIdx := cs.FindEdge(sig, leadKind, k)
		trailIdx := cs.FindEdge(sig, trailKind, trailOcc)
		if leadIdx < 0 || trailIdx < 0 {
			return nil, fmt.Errorf("syncelem: %s: control edges not found in clock set", inst)
		}
		w := cs.CyclicForward(leadAt, trailAt)
		if w == 0 {
			w = cs.Overall()
		}
		e := &Element{
			Inst: inst, Occur: k, Kind: kind,
			Sig: sig, Inverted: inverted,
			LeadEdge: leadIdx, TrailEdge: trailIdx,
			LeadAt: leadAt, TrailAt: trailAt, Width: w,
			Dsetup: st.Dsetup, Ddz: st.Ddz, Dcz: st.Dcz,
			CtrlMax: ctrlMax, CtrlMin: ctrlMin,
		}
		switch kind {
		case celllib.EdgeTriggered:
			// Trailing edge controls both closure and assertion (§5).
			e.IdealAssert, e.AssertEdge = trailAt, trailIdx
			e.IdealClose, e.CloseEdge = trailAt, trailIdx
		default: // Transparent, Tristate
			e.IdealAssert, e.AssertEdge = leadAt, leadIdx
			e.IdealClose, e.CloseEdge = trailAt, trailIdx
		}
		if err := e.ValidateAt(e.InitialOdz()); err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return elems, nil
}

// Name renders "inst" or "inst[k]" for replicated elements.
func (e *Element) Name() string {
	if e.Occur == 0 {
		return e.Inst
	}
	return fmt.Sprintf("%s[%d]", e.Inst, e.Occur)
}

// HasDOF reports whether the element's offsets can move at all.
func (e *Element) HasDOF() bool { return e.Kind != celllib.EdgeTriggered && !e.Port }

// InitialOdz returns the offset Algorithm 1 initialises the element with:
// the latest legal closure (OdzMax) for elements with a degree of freedom,
// zero otherwise. cluster.Compile snapshots these into the immutable
// CompiledDesign so every sta.AnalysisState starts from the same vector
// without walking element pointers.
func (e *Element) InitialOdz() clock.Time {
	if e.HasDOF() {
		return e.OdzMax()
	}
	return 0
}

// OdzMin returns the lower bound of the Odz range: Ozd = W + Odz + Ddz ≥ 0.
func (e *Element) OdzMin() clock.Time {
	if !e.HasDOF() {
		return 0
	}
	return -(e.Width + e.Ddz)
}

// OdzMax returns the upper bound of the Odz range: Odz ≤ −Ddz (§5).
func (e *Element) OdzMax() clock.Time {
	if !e.HasDOF() {
		return 0
	}
	return -e.Ddz
}

// Oat returns the assertion-control offset: the latest control arrival.
func (e *Element) Oat() clock.Time { return e.CtrlMax }

// Ozc returns the control-path output-assertion offset Oat + Dcz.
func (e *Element) Ozc() clock.Time { return e.CtrlMax + e.Dcz }

// OzdAt returns the data-path output-assertion offset at input-closure
// offset odz. For transparent elements it tracks odz through the Figure-3
// relationship Ozd = W + Odz + Ddz; edge-triggered elements pin it at zero.
func (e *Element) OzdAt(odz clock.Time) clock.Time {
	if !e.HasDOF() {
		return 0
	}
	return e.Width + odz + e.Ddz
}

// Odc returns the closure-control input offset −Dsetup (constant, §4).
func (e *Element) Odc() clock.Time { return -e.Dsetup }

// InputOffsetAt returns the effective input-closure offset min(Odc, odz),
// or the pinned offset for port elements.
func (e *Element) InputOffsetAt(odz clock.Time) clock.Time {
	if e.Port {
		return e.PortOffset
	}
	if odz < e.Odc() {
		return odz
	}
	return e.Odc()
}

// OutputOffsetAt returns the effective output-assertion offset
// max(Ozc, Ozd) at offset odz, or the pinned offset for port elements.
func (e *Element) OutputOffsetAt(odz clock.Time) clock.Time {
	if e.Port {
		return e.PortOffset
	}
	if ozd := e.OzdAt(odz); ozd > e.Ozc() {
		return ozd
	}
	return e.Ozc()
}

// OutputAssertAt returns the absolute effective output assertion time at
// offset odz.
func (e *Element) OutputAssertAt(odz clock.Time) clock.Time {
	return e.IdealAssert + e.OutputOffsetAt(odz)
}

// ValidateAt checks the synchronising-element constraints of §5: the
// element's static parameters together with offset odz.
func (e *Element) ValidateAt(odz clock.Time) error {
	if e.Dsetup < 0 || e.Ddz < 0 || e.Dcz < 0 {
		return fmt.Errorf("syncelem %s: negative timing parameters", e.Name())
	}
	if e.CtrlMax < 0 || e.CtrlMin < 0 || e.CtrlMax < e.CtrlMin {
		return fmt.Errorf("syncelem %s: inconsistent control delays", e.Name())
	}
	if e.Kind == celllib.EdgeTriggered {
		if odz != 0 {
			return fmt.Errorf("syncelem %s: edge-triggered element with nonzero Odz", e.Name())
		}
		return nil
	}
	if odz < e.OdzMin() || odz > e.OdzMax() {
		return fmt.Errorf("syncelem %s: Odz=%v outside [%v,%v]", e.Name(), odz, e.OdzMin(), e.OdzMax())
	}
	if e.OzdAt(odz) < 0 {
		return fmt.Errorf("syncelem %s: Ozd=%v negative", e.Name(), e.OzdAt(odz))
	}
	return nil
}

// headroomDownAt is the maximum legal decrease m of the offsets from odz.
func (e *Element) headroomDownAt(odz clock.Time) clock.Time { return odz - e.OdzMin() }

// headroomUpAt is the maximum legal increase m of the offsets from odz.
func (e *Element) headroomUpAt(odz clock.Time) clock.Time { return e.OdzMax() - odz }

// shiftAt moves the DOF by delta (positive = later closure/assertion),
// clamping defensively at the legal range, and returns the new offset.
func (e *Element) shiftAt(odz, delta clock.Time) clock.Time {
	if !e.HasDOF() {
		return odz
	}
	odz += delta
	if odz < e.OdzMin() {
		odz = e.OdzMin()
	}
	if odz > e.OdzMax() {
		odz = e.OdzMax()
	}
	return odz
}

// The transfer operations of §6 are pure functions over an offset held by
// the caller: (odz, slack) → (new offset, amount moved).

// CompleteForwardAt performs complete forward slack transfer (§6): the
// upstream paths (ending at the element's data input, node slack nIn)
// donate min(nIn, m) to the downstream paths by decreasing both offsets.
// It returns the new offset and the amount transferred (zero if none).
func (e *Element) CompleteForwardAt(odz, nIn clock.Time) (clock.Time, clock.Time) {
	m := e.headroomDownAt(odz)
	amt := minT(nIn, m)
	if amt <= 0 {
		return odz, 0
	}
	return e.shiftAt(odz, -amt), amt
}

// CompleteBackwardAt performs complete backward slack transfer: downstream
// paths (starting at the output, node slack nOut) donate min(nOut, m) by
// increasing both offsets.
func (e *Element) CompleteBackwardAt(odz, nOut clock.Time) (clock.Time, clock.Time) {
	m := e.headroomUpAt(odz)
	amt := minT(nOut, m)
	if amt <= 0 {
		return odz, 0
	}
	return e.shiftAt(odz, amt), amt
}

// PartialForwardAt transfers min(nIn/div, m) forward, div > 1 (§6's partial
// transfer with real divisor n; we use integer division).
func (e *Element) PartialForwardAt(odz, nIn clock.Time, div int64) (clock.Time, clock.Time) {
	if div <= 1 {
		div = 2
	}
	m := e.headroomDownAt(odz)
	amt := minT(nIn/clock.Time(div), m)
	if amt <= 0 {
		return odz, 0
	}
	return e.shiftAt(odz, -amt), amt
}

// PartialBackwardAt transfers min(nOut/div, m) backward.
func (e *Element) PartialBackwardAt(odz, nOut clock.Time, div int64) (clock.Time, clock.Time) {
	if div <= 1 {
		div = 2
	}
	m := e.headroomUpAt(odz)
	amt := minT(nOut/clock.Time(div), m)
	if amt <= 0 {
		return odz, 0
	}
	return e.shiftAt(odz, amt), amt
}

// SnatchForwardAt takes time from the upstream path regardless of surplus
// (§6): when the downstream node slack nOut is negative, decrease the
// offsets by min(−nOut, m).
func (e *Element) SnatchForwardAt(odz, nOut clock.Time) (clock.Time, clock.Time) {
	if nOut >= 0 {
		return odz, 0
	}
	m := e.headroomDownAt(odz)
	amt := minT(-nOut, m)
	if amt <= 0 {
		return odz, 0
	}
	return e.shiftAt(odz, -amt), amt
}

// SnatchBackwardAt takes time from the downstream path: when the upstream
// node slack nIn is negative, increase the offsets by min(−nIn, m). This is
// how actual (late) ready times propagate forward through transparent
// latches in Algorithm 2's iteration 1.
func (e *Element) SnatchBackwardAt(odz, nIn clock.Time) (clock.Time, clock.Time) {
	if nIn >= 0 {
		return odz, 0
	}
	m := e.headroomUpAt(odz)
	amt := minT(-nIn, m)
	if amt <= 0 {
		return odz, 0
	}
	return e.shiftAt(odz, amt), amt
}

func minT(a, b clock.Time) clock.Time {
	if a < b {
		return a
	}
	return b
}
