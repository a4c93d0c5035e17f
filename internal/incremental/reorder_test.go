package incremental

import (
	"slices"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
)

// reorderLib is the default library plus a three-input cell pair whose X2
// twin lists its pins and arcs in reverse order. The arcs differ in sense
// and delay and the pins in capacitance, so evaluating the wrong arc or
// shifting the wrong pin's load shows in the slacks.
func reorderLib(t *testing.T) *celllib.Library {
	t.Helper()
	def := celllib.Default()
	lib := celllib.NewLibrary("reorder")
	for _, name := range def.Names() {
		if err := lib.Add(def.Cell(name)); err != nil {
			t.Fatal(err)
		}
	}
	arc := func(from string, sense celllib.Sense, rise, fall clock.Time, slope int64) celllib.Arc {
		max := func(d clock.Time) celllib.Linear { return celllib.Linear{Intrinsic: d, Slope: slope} }
		min := func(d clock.Time) celllib.Linear { return celllib.Linear{Intrinsic: d / 2, Slope: slope / 2} }
		return celllib.Arc{From: from, To: "Y", Sense: sense,
			Delay: celllib.ArcDelay{MaxRise: max(rise), MaxFall: max(fall), MinRise: min(rise), MinFall: min(fall)}}
	}
	x1 := &celllib.Cell{Name: "AO3_X1", Kind: celllib.Comb, Function: "mixed", Area: 4, Drive: 1,
		Pins: []celllib.Pin{
			{Name: "A", Dir: celllib.In, C: 3}, {Name: "B", Dir: celllib.In, C: 4},
			{Name: "C", Dir: celllib.In, C: 5}, {Name: "Y", Dir: celllib.Out},
		},
		Arcs: []celllib.Arc{
			arc("A", celllib.PositiveUnate, 100, 90, 8),
			arc("B", celllib.NegativeUnate, 300, 250, 10),
			arc("C", celllib.NonUnate, 500, 450, 12),
		},
	}
	x2 := &celllib.Cell{Name: "AO3_X2", Kind: celllib.Comb, Function: "mixed", Area: 6, Drive: 2,
		Pins: []celllib.Pin{
			{Name: "Y", Dir: celllib.Out}, {Name: "C", Dir: celllib.In, C: 8},
			{Name: "B", Dir: celllib.In, C: 6}, {Name: "A", Dir: celllib.In, C: 4},
		},
		Arcs: []celllib.Arc{
			arc("C", celllib.NonUnate, 400, 360, 6),
			arc("B", celllib.NegativeUnate, 240, 200, 5),
			arc("A", celllib.PositiveUnate, 80, 70, 4),
		},
	}
	for _, c := range []*celllib.Cell{x1, x2} {
		if err := lib.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return lib
}

const reorderSrc = `
design reorder
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -0.5ns
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst b1 BUF_X1 A=q1 Y=q1b
inst i1 INV_X1 A=q1 Y=q1n
inst x AO3_X1 A=q1 B=q1b C=q1n Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`

// TestResizeAcrossReorderedInterface resizes an instance onto a cell that
// lists the same pins and arcs in another order, then back, with a delay
// adjustment in between. Every step must stay delay-only and match a
// fresh load of the edited design: the engine finds each arc of the new
// cell by the pin names of the arc it elaborated, never by position.
func TestResizeAcrossReorderedInterface(t *testing.T) {
	lib := reorderLib(t)
	d, err := netlist.ParseString(reorderSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := netSlacks(eng.Report().Result)
	for _, ed := range []Edit{
		{Op: Resize, Inst: "x", To: "AO3_X2"},
		{Op: Adjust, Inst: "x", Delta: 150},
		{Op: Resize, Inst: "x", To: "AO3_X1"},
	} {
		out, err := eng.Apply(ed)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Incremental {
			t.Fatalf("%s %s left the delay-only path: %s", ed.Op, ed.To, out.FallbackReason)
		}
		verifyAgainstScratch(t, lib, eng, ed.Op.String()+" "+ed.To)
		if slices.Equal(netSlacks(eng.Report().Result), before) {
			t.Fatalf("%s %s moved no slack", ed.Op, ed.To)
		}
	}
}

// netSlacks returns every net's slack, by net id.
func netSlacks(r *sta.Result) []clock.Time {
	out := make([]clock.Time, r.NumNets())
	for n := range out {
		out[n] = r.NetSlack(n)
	}
	return out
}
