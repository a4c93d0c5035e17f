package celllib

import (
	"strings"
	"testing"
	"testing/quick"

	"hummingbird/internal/clock"
)

func TestLinearEval(t *testing.T) {
	l := Linear{Intrinsic: 100, Slope: 5}
	if got := l.Eval(0); got != 100 {
		t.Fatalf("Eval(0) = %v", got)
	}
	if got := l.Eval(12); got != 160 {
		t.Fatalf("Eval(12) = %v", got)
	}
}

func TestLinearMonotone(t *testing.T) {
	check := func(intr int32, slope uint8, a, b uint16) bool {
		l := Linear{Intrinsic: clock.Time(intr), Slope: int64(slope)}
		la, lb := Cap(a), Cap(b)
		if la > lb {
			la, lb = lb, la
		}
		return l.Eval(la) <= l.Eval(lb)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultLibraryValid(t *testing.T) {
	l := Default()
	if l.Len() == 0 {
		t.Fatal("empty default library")
	}
	for _, name := range l.Names() {
		c := l.Cell(name)
		if err := c.Validate(); err != nil {
			t.Errorf("cell %s invalid: %v", name, err)
		}
	}
}

// TestDefaultLibraryBuilds guards the static cell table behind Default():
// every prototype must pass validation, so the error channel of the builder
// stays empty on a consistent tree.
func TestDefaultLibraryBuilds(t *testing.T) {
	l, err := buildDefault()
	if err != nil {
		t.Fatalf("default library table broken: %v", err)
	}
	if l.Len() != Default().Len() {
		t.Fatalf("fresh build has %d cells, cached Default has %d", l.Len(), Default().Len())
	}
}

func TestDefaultLibraryContents(t *testing.T) {
	l := Default()
	for _, want := range []string{
		"INV_X1", "INV_X4", "NAND2_X1", "NAND4_X2", "XOR2_X1", "MUX2_X4",
		"DLATCH_X1", "DLATCHN_X1", "DFF_X2", "TBUF_X1",
	} {
		if l.Cell(want) == nil {
			t.Errorf("missing cell %s", want)
		}
	}
	if l.Cell("NAND9_X1") != nil {
		t.Error("unexpected cell present")
	}
}

func TestDriveStrengthReducesSlope(t *testing.T) {
	l := Default()
	x1 := l.Cell("NAND2_X1").Arcs[0].Delay.MaxRise
	x4 := l.Cell("NAND2_X4").Arcs[0].Delay.MaxRise
	if x4.Slope >= x1.Slope {
		t.Fatalf("X4 slope %d not below X1 slope %d", x4.Slope, x1.Slope)
	}
	// At high load the stronger cell must win despite intrinsic penalty.
	if x4.Eval(200) >= x1.Eval(200) {
		t.Fatalf("X4 not faster at high load: %v vs %v", x4.Eval(200), x1.Eval(200))
	}
	// Area monotone in drive.
	if l.Cell("NAND2_X4").Area <= l.Cell("NAND2_X1").Area {
		t.Fatal("drive does not cost area")
	}
}

func TestMinNotAboveMax(t *testing.T) {
	l := Default()
	for _, name := range l.Names() {
		c := l.Cell(name)
		for _, a := range c.Arcs {
			for _, load := range []Cap{0, 5, 50, 500} {
				if a.Delay.MinRise.Eval(load) > a.Delay.MaxRise.Eval(load) {
					t.Errorf("%s %s->%s: min rise above max at %d fF", name, a.From, a.To, load)
				}
				if a.Delay.MinFall.Eval(load) > a.Delay.MaxFall.Eval(load) {
					t.Errorf("%s %s->%s: min fall above max at %d fF", name, a.From, a.To, load)
				}
			}
		}
	}
}

func TestCellPinQueries(t *testing.T) {
	c := Default().Cell("DLATCH_X1")
	if c.Kind != Transparent || !c.IsSync() {
		t.Fatal("DLATCH kind wrong")
	}
	if got := c.ControlPin(); got != "G" {
		t.Fatalf("control pin = %q", got)
	}
	if got := c.DataPins(); len(got) != 1 || got[0] != "D" {
		t.Fatalf("data pins = %v", got)
	}
	if got := c.Outputs(); len(got) != 1 || got[0] != "Q" {
		t.Fatalf("outputs = %v", got)
	}
	if c.Pin("Q").Dir != Out || c.Pin("nope") != nil {
		t.Fatal("Pin lookup wrong")
	}
	inv := Default().Cell("INV_X1")
	if inv.ControlPin() != "" || inv.IsSync() {
		t.Fatal("INV misclassified")
	}
	if got := inputs(inv); len(got) != 1 || got[0] != "A" {
		t.Fatalf("INV inputs = %v", got)
	}
}

// inputs lists a cell's input pins in declaration order.
func inputs(c *Cell) []string {
	var in []string
	for _, p := range c.Pins {
		if p.Dir == In {
			in = append(in, p.Name)
		}
	}
	return in
}

func TestMuxPinNames(t *testing.T) {
	c := Default().Cell("MUX2_X1")
	want := []string{"A", "B", "S"}
	got := inputs(c)
	if len(got) != len(want) {
		t.Fatalf("MUX2 inputs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MUX2 inputs = %v, want %v", got, want)
		}
	}
}

func TestTristatePinNames(t *testing.T) {
	c := Default().Cell("TBUF_X1")
	if c.Kind != Tristate {
		t.Fatal("TBUF kind")
	}
	if c.ControlPin() != "EN" {
		t.Fatalf("TBUF control = %q", c.ControlPin())
	}
	if got := c.DataPins(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("TBUF data = %v", got)
	}
}

func TestActiveLowLatch(t *testing.T) {
	l := Default()
	if !l.Cell("DLATCHN_X1").Sync.ActiveLow {
		t.Fatal("DLATCHN not active-low")
	}
	if l.Cell("DLATCH_X1").Sync.ActiveLow {
		t.Fatal("DLATCH active-low")
	}
	// Control arc sense must match polarity.
	for _, a := range l.Cell("DLATCHN_X1").Arcs {
		if a.From == "G" && a.Sense != NegativeUnate {
			t.Fatal("DLATCHN control arc not negative unate")
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mkPins := func() []Pin {
		return []Pin{{Name: "A", Dir: In}, {Name: "Y", Dir: Out}}
	}
	cases := []struct {
		name string
		cell Cell
		want string
	}{
		{"empty name", Cell{Pins: mkPins()}, "empty name"},
		{"dup pin", Cell{Name: "c", Pins: []Pin{{Name: "A", Dir: In}, {Name: "A", Dir: In}, {Name: "Y", Dir: Out}}}, "duplicate pin"},
		{"no output", Cell{Name: "c", Pins: []Pin{{Name: "A", Dir: In}}}, "no output"},
		{"bad arc pin", Cell{Name: "c", Pins: mkPins(), Arcs: []Arc{{From: "Z", To: "Y"}}}, "missing pin"},
		{"arc direction", Cell{Name: "c", Pins: mkPins(), Arcs: []Arc{{From: "Y", To: "A"}}}, "input->output"},
		{"comb with control", Cell{Name: "c", Pins: []Pin{{Name: "A", Dir: In, Role: Control}, {Name: "Y", Dir: Out}}}, "control pin"},
		{"sync without timing", Cell{Name: "c", Kind: Transparent, Pins: []Pin{{Name: "D", Dir: In}, {Name: "G", Dir: In, Role: Control}, {Name: "Q", Dir: Out}}}, "without sync timing"},
		{"output control", Cell{Name: "c", Pins: []Pin{{Name: "A", Dir: In}, {Name: "Y", Dir: Out, Role: Control}}}, "marked control"},
	}
	for _, c := range cases {
		err := c.cell.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateMinAboveMax(t *testing.T) {
	c := Cell{
		Name: "bad",
		Pins: []Pin{{Name: "A", Dir: In}, {Name: "Y", Dir: Out}},
		Arcs: []Arc{{From: "A", To: "Y", Delay: ArcDelay{
			MaxRise: Linear{Intrinsic: 100},
			MinRise: Linear{Intrinsic: 200},
		}}},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("min>max accepted")
	}
}

func TestLibraryAddDuplicate(t *testing.T) {
	l := NewLibrary("t")
	c := &Cell{Name: "X", Pins: []Pin{{Name: "A", Dir: In}, {Name: "Y", Dir: Out}}}
	if err := l.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(c); err == nil {
		t.Fatal("duplicate accepted")
	}
	if l.Cell("X") == nil || l.Len() != 1 {
		t.Fatal("library state wrong")
	}
}

func TestNamesSorted(t *testing.T) {
	l := Default()
	names := l.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %s >= %s", names[i-1], names[i])
		}
	}
}

func TestKindAndSenseStrings(t *testing.T) {
	if Comb.String() != "comb" || Transparent.String() != "transparent" ||
		EdgeTriggered.String() != "edge-triggered" || Tristate.String() != "tristate" {
		t.Fatal("Kind strings")
	}
	if PositiveUnate.String() != "pos" || NegativeUnate.String() != "neg" || NonUnate.String() != "non" {
		t.Fatal("Sense strings")
	}
	if !strings.Contains(Kind(9).String(), "9") || !strings.Contains(Sense(9).String(), "9") {
		t.Fatal("unknown enum strings")
	}
}
