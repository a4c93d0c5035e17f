package delaycalc

import (
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/netlist"
)

var lib = celllib.Default()

func parse(t *testing.T, text string) *netlist.Design {
	t.Helper()
	d, err := netlist.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(lib); err != nil {
		t.Fatal(err)
	}
	return d
}

const chainText = `
design chain
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst g1 INV_X1 A=IN Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g3 NAND2_X1 A=n2 B=n1 Y=OUT
end
`

func TestNetLoads(t *testing.T) {
	d := parse(t, chainText)
	c, err := New(lib, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// n1 feeds g2.A (4 fF) and g3.B (4 fF) plus wire 2 + 2*3 = 8.
	if got := c.NetLoad("n1"); got != 16 {
		t.Fatalf("load(n1) = %d, want 16", got)
	}
	// n2 feeds g3.A only: 4 + 2 + 3 = 9.
	if got := c.NetLoad("n2"); got != 9 {
		t.Fatalf("load(n2) = %d, want 9", got)
	}
	// OUT is a primary output: default port load 10 + wire 2+3 = 15.
	if got := c.NetLoad("OUT"); got != 15 {
		t.Fatalf("load(OUT) = %d, want 15", got)
	}
	// Undriven unknown nets report zero.
	if got := c.NetLoad("ghost"); got != 0 {
		t.Fatalf("load(ghost) = %d", got)
	}
}

func TestArcDelaysMatchLinearModel(t *testing.T) {
	d := parse(t, chainText)
	c, err := New(lib, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inst := &d.Instances[0] // g1 INV_X1 driving n1 (load 16)
	cell := lib.Cell("INV_X1")
	arc := &cell.Arcs[0]
	got := c.ArcDelays(inst, arc)
	wantRise := arc.Delay.MaxRise.Eval(16)
	if got.MaxRise != wantRise {
		t.Fatalf("MaxRise = %v, want %v", got.MaxRise, wantRise)
	}
	if got.MinRise > got.MaxRise || got.MinFall > got.MaxFall {
		t.Fatal("min exceeds max")
	}
}

func TestHigherFanoutSlowsGate(t *testing.T) {
	d1 := parse(t, chainText)
	c1, _ := New(lib, d1, DefaultOptions())
	// Same structure, but n1 fans out to two more inverters.
	d2 := parse(t, `
design chain2
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst g1 INV_X1 A=IN Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst x1 INV_X1 A=n1 Y=u1
inst x2 INV_X1 A=n1 Y=u2
inst g3 NAND2_X1 A=n2 B=n1 Y=OUT
end
`)
	c2, _ := New(lib, d2, DefaultOptions())
	cell := lib.Cell("INV_X1")
	a := c1.ArcDelays(&d1.Instances[0], &cell.Arcs[0])
	b := c2.ArcDelays(&d2.Instances[0], &cell.Arcs[0])
	if b.MaxRise <= a.MaxRise {
		t.Fatalf("fanout did not slow gate: %v vs %v", b.MaxRise, a.MaxRise)
	}
}

func TestAdjust(t *testing.T) {
	d := parse(t, chainText)
	c, _ := New(lib, d, DefaultOptions())
	inst := &d.Instances[0]
	cell := lib.Cell("INV_X1")
	before := c.ArcDelays(inst, &cell.Arcs[0])
	c.Adjust("g1", 500)
	after := c.ArcDelays(inst, &cell.Arcs[0])
	if after.MaxRise != before.MaxRise+500 || after.MinFall != before.MinFall+500 {
		t.Fatalf("adjust not applied: %+v vs %+v", after, before)
	}
	if c.adjust["g1"] != 500 {
		t.Fatal("Adjustment readback")
	}
	// Large negative adjustments floor min at zero and keep max >= min.
	c.Adjust("g1", -10000)
	neg := c.ArcDelays(inst, &cell.Arcs[0])
	if neg.MinRise != 0 || neg.MinFall != 0 {
		t.Fatalf("min not floored: %+v", neg)
	}
	if neg.MaxRise < neg.MinRise {
		t.Fatalf("max below min: %+v", neg)
	}
	// Other instances untouched.
	if c.adjust["g2"] != 0 {
		t.Fatal("adjustment leaked")
	}
}

func TestNewRejectsUnresolved(t *testing.T) {
	d := netlist.New("bad")
	d.AddInstance(netlist.Instance{Name: "u", Ref: "MYSTERY", Conns: map[string]string{}})
	if _, err := New(lib, d, DefaultOptions()); err == nil {
		t.Fatal("unresolved reference accepted")
	}
}

const hierText = `
design hier
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
module COMB
  input A B
  output Y Z
  inst i1 INV_X1 A=A Y=t1
  inst i2 NAND2_X1 A=t1 B=B Y=Y
  inst i3 INV_X1 A=B Y=Z
endmodule
inst u1 COMB A=IN B=IN Y=OUT Z=z
end
`

func TestRollUpModules(t *testing.T) {
	d := parse(t, hierText)
	ext, err := RollUpModules(lib, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sc := ext.Cell("COMB")
	if sc == nil {
		t.Fatal("super-cell missing")
	}
	if sc.Kind != celllib.Comb || sc.IsSync() {
		t.Fatal("super-cell misclassified")
	}
	// Arcs: A->Y (through i1,i2); B->Y (through i2); B->Z (through i3).
	// No A->Z path.
	type key struct{ from, to string }
	arcs := map[key]*celllib.Arc{}
	for i := range sc.Arcs {
		arcs[key{sc.Arcs[i].From, sc.Arcs[i].To}] = &sc.Arcs[i]
	}
	if len(arcs) != 3 {
		t.Fatalf("arc set = %v", arcs)
	}
	if _, bad := arcs[key{"A", "Z"}]; bad {
		t.Fatal("phantom A->Z arc")
	}
	ay, by := arcs[key{"A", "Y"}], arcs[key{"B", "Y"}]
	if ay == nil || by == nil {
		t.Fatal("missing arcs")
	}
	// A->Y traverses two gates, B->Y one: longer delay.
	if ay.Delay.MaxRise.Intrinsic <= by.Delay.MaxRise.Intrinsic {
		t.Fatalf("2-gate path (%v) not slower than 1-gate (%v)",
			ay.Delay.MaxRise.Intrinsic, by.Delay.MaxRise.Intrinsic)
	}
	// Min path <= max path.
	if ay.Delay.MinRise.Intrinsic > ay.Delay.MaxRise.Intrinsic {
		t.Fatal("min above max in roll-up")
	}
	// Super-cell area = sum of member areas.
	want := 2*lib.Cell("INV_X1").Area + lib.Cell("NAND2_X1").Area
	if sc.Area != want {
		t.Fatalf("area = %d, want %d", sc.Area, want)
	}
	// Extended library still holds the base cells.
	if ext.Cell("INV_X1") == nil {
		t.Fatal("base cells dropped")
	}
	// The hierarchical design is now resolvable.
	if _, err := New(ext, d, DefaultOptions()); err != nil {
		t.Fatalf("hier design unresolved after roll-up: %v", err)
	}
}

func TestRollUpRejectsCycle(t *testing.T) {
	d := netlist.New("top")
	d.AddClock(clock.Signal{Name: "phi", Period: 100, RiseAt: 0, FallAt: 40})
	m := netlist.New("LOOP")
	m.AddPort(netlist.Port{Name: "A", Dir: netlist.Input})
	m.AddPort(netlist.Port{Name: "Y", Dir: netlist.Output})
	m.AddInstance(netlist.Instance{Name: "i1", Ref: "NAND2_X1", Conns: map[string]string{"A": "A", "B": "fb", "Y": "fb"}})
	m.AddInstance(netlist.Instance{Name: "i2", Ref: "INV_X1", Conns: map[string]string{"A": "fb", "Y": "Y"}})
	d.AddModule(m)
	_, err := RollUpModules(lib, d, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestDelaysMaxMin(t *testing.T) {
	d := Delays{MaxRise: 10, MaxFall: 20, MinRise: 3, MinFall: 2}
	if d.Max() != 20 || d.Min() != 2 {
		t.Fatalf("Max/Min = %v/%v", d.Max(), d.Min())
	}
	d2 := Delays{MaxRise: 30, MaxFall: 20, MinRise: 3, MinFall: 5}
	if d2.Max() != 30 || d2.Min() != 3 {
		t.Fatalf("Max/Min = %v/%v", d2.Max(), d2.Min())
	}
}
