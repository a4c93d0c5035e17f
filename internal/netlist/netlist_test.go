package netlist

import (
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
)

var lib = celllib.Default()

// smallDesign builds a valid two-phase latch pipeline by hand:
//
//	IN -> g1(INV) -> l1(DLATCH,phi1) -> g2(NAND2) -> l2(DFF,phi2) -> OUT
func smallDesign() *Design {
	d := New("small")
	d.AddClock(clock.Signal{Name: "phi1", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 40 * clock.Ns})
	d.AddClock(clock.Signal{Name: "phi2", Period: 100 * clock.Ns, RiseAt: 50 * clock.Ns, FallAt: 90 * clock.Ns})
	d.AddPort(Port{Name: "IN", Dir: Input, RefClock: "phi2", RefEdge: clock.Fall})
	d.AddPort(Port{Name: "OUT", Dir: Output, RefClock: "phi1", RefEdge: clock.Fall, Offset: -200})
	d.AddInstance(Instance{Name: "g1", Ref: "INV_X1", Conns: map[string]string{"A": "IN", "Y": "n1"}})
	d.AddInstance(Instance{Name: "l1", Ref: "DLATCH_X1", Conns: map[string]string{"D": "n1", "G": "phi1", "Q": "n2"}})
	d.AddInstance(Instance{Name: "g2", Ref: "NAND2_X1", Conns: map[string]string{"A": "n2", "B": "n2", "Y": "n3"}})
	d.AddInstance(Instance{Name: "l2", Ref: "DFF_X1", Conns: map[string]string{"D": "n3", "CK": "phi2", "Q": "OUT"}})
	return d
}

func TestValidateGood(t *testing.T) {
	if err := smallDesign().Validate(lib); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
}

// dupPortModule is a combinational module that lists its input A twice.
func dupPortModule() *Design {
	m := New("DUP")
	m.AddPort(Port{Name: "A", Dir: Input})
	m.AddPort(Port{Name: "A", Dir: Input})
	m.AddPort(Port{Name: "Y", Dir: Output})
	m.AddInstance(Instance{Name: "m1", Ref: "INV_X1", Conns: map[string]string{"A": "A", "Y": "Y"}})
	return m
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Design)
		want   string
	}{
		{"unknown ref", func(d *Design) { d.Instances[0].Ref = "NOPE" }, "unknown cell/module"},
		{"unknown pin", func(d *Design) { d.Instances[0].Conns["Z"] = "n9" }, "unknown pin"},
		{"unconnected input", func(d *Design) { delete(d.Instances[0].Conns, "A") }, "unconnected"},
		{"double driver", func(d *Design) { d.Instances[0].Conns["Y"] = "IN" }, "driven by both"},
		{"no driver", func(d *Design) { d.Instances[0].Conns["A"] = "ghost" }, "no driver"},
		{"dup instance", func(d *Design) {
			d.AddInstance(Instance{Name: "g1", Ref: "INV_X1", Conns: map[string]string{"A": "IN", "Y": "x"}})
		}, "duplicate instance"},
		{"dup clock", func(d *Design) { d.AddClock(d.Clocks[0]) }, "duplicate clock"},
		{"dup port", func(d *Design) { d.AddPort(Port{Name: "IN", Dir: Input}) }, "duplicate port"},
		{"port clock collision", func(d *Design) { d.AddPort(Port{Name: "phi1", Dir: Input}) }, "collides with clock"},
		{"bad port clock ref", func(d *Design) { d.Ports[0].RefClock = "nope" }, "unknown clock"},
		{"empty instance name", func(d *Design) { d.Instances[0].Name = "" }, "empty name"},
		{"empty net name", func(d *Design) { d.Instances[0].Conns["Y"] = "" }, "empty net name"},
		{"driven clock", func(d *Design) { d.Instances[0].Conns["Y"] = "phi1" }, "clock generator"},
		{"undriven output", func(d *Design) { delete(d.Instances[3].Conns, "Q") }, "primary output"},
		{"defect after a module listing a port twice", func(d *Design) {
			d.AddModule(dupPortModule())
			d.AddInstance(Instance{Name: "u", Ref: "DUP", Conns: map[string]string{"A": "IN", "Y": "x"}})
			d.AddInstance(Instance{Name: "bad", Ref: "NOPE", Conns: map[string]string{}})
		}, "unknown cell/module"},
		{"unknown pin on a module listing a port twice", func(d *Design) {
			d.AddModule(dupPortModule())
			d.AddInstance(Instance{Name: "u", Ref: "DUP", Conns: map[string]string{"A": "IN", "Y": "x", "Z": "IN"}})
		}, "unknown pin"},
	}
	// Each case has one defect, so the reference's message is
	// deterministic and the rewrite must reproduce it exactly.
	for _, c := range cases {
		d := smallDesign()
		c.mutate(d)
		err, ref := d.Validate(lib), refValidate(d, lib)
		if err == nil || ref == nil {
			t.Errorf("%s: accepted (reference error %v)", c.name, ref)
			continue
		}
		if err.Error() != ref.Error() {
			t.Errorf("%s: error %q, reference %q", c.name, err, ref)
		}
		if !strings.Contains(ref.Error(), c.want) {
			t.Errorf("%s: reference error %q does not mention %q", c.name, ref, c.want)
		}
	}
}

func TestTristateBusAllowed(t *testing.T) {
	d := New("bus")
	d.AddClock(clock.Signal{Name: "phi1", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 40 * clock.Ns})
	d.AddClock(clock.Signal{Name: "phi2", Period: 100 * clock.Ns, RiseAt: 50 * clock.Ns, FallAt: 90 * clock.Ns})
	d.AddPort(Port{Name: "A", Dir: Input, RefClock: "phi1", RefEdge: clock.Rise})
	d.AddPort(Port{Name: "B", Dir: Input, RefClock: "phi1", RefEdge: clock.Rise})
	d.AddPort(Port{Name: "OUT", Dir: Output, RefClock: "phi2", RefEdge: clock.Fall})
	d.AddInstance(Instance{Name: "t1", Ref: "TBUF_X1", Conns: map[string]string{"A": "A", "EN": "phi1", "Y": "bus"}})
	d.AddInstance(Instance{Name: "t2", Ref: "TBUF_X1", Conns: map[string]string{"A": "B", "EN": "phi2", "Y": "bus"}})
	d.AddInstance(Instance{Name: "g1", Ref: "BUF_X1", Conns: map[string]string{"A": "bus", "Y": "OUT"}})
	if err := d.Validate(lib); err != nil {
		t.Fatalf("tristate bus rejected: %v", err)
	}
	// A combinational driver sharing the bus is still an error,
	// regardless of declaration order.
	d.AddInstance(Instance{Name: "bad", Ref: "INV_X1", Conns: map[string]string{"A": "A", "Y": "bus"}})
	if err := d.Validate(lib); err == nil || !strings.Contains(err.Error(), "driven by both") {
		t.Fatalf("mixed bus accepted: %v", err)
	}
	d.Instances = d.Instances[:len(d.Instances)-1]
	d.Instances = append([]Instance{{Name: "bad", Ref: "INV_X1", Conns: map[string]string{"A": "A", "Y": "bus"}}}, d.Instances...)
	if err := d.Validate(lib); err == nil || !strings.Contains(err.Error(), "driven by both") {
		t.Fatalf("mixed bus (comb first) accepted: %v", err)
	}
}

func TestDanglingOutputAllowed(t *testing.T) {
	d := smallDesign()
	// Disconnect the DFF's Q; the primary output then has no driver, so
	// retarget the port too.
	delete(d.Instances[3].Conns, "Q")
	d.Ports[1].Name = "n3"
	if err := d.Validate(lib); err != nil {
		t.Fatalf("dangling output rejected: %v", err)
	}
}

func TestModuleValidation(t *testing.T) {
	d := smallDesign()
	m := New("COMB")
	m.AddPort(Port{Name: "A", Dir: Input})
	m.AddPort(Port{Name: "Y", Dir: Output})
	m.AddInstance(Instance{Name: "i1", Ref: "INV_X1", Conns: map[string]string{"A": "A", "Y": "Y"}})
	d.AddModule(m)
	d.AddInstance(Instance{Name: "u1", Ref: "COMB", Conns: map[string]string{"A": "IN", "Y": "mo"}})
	if err := d.Validate(lib); err != nil {
		t.Fatalf("module design rejected: %v", err)
	}

	bad := New("BAD")
	bad.AddPort(Port{Name: "D", Dir: Input})
	bad.AddPort(Port{Name: "Q", Dir: Output})
	bad.AddInstance(Instance{Name: "l", Ref: "DLATCH_X1", Conns: map[string]string{"D": "D", "G": "D", "Q": "Q"}})
	d2 := smallDesign()
	d2.AddModule(bad)
	err := d2.Validate(lib)
	if err == nil || !strings.Contains(err.Error(), "synchronising element") {
		t.Fatalf("latch inside module accepted: %v", err)
	}
}

func TestFlatten(t *testing.T) {
	d := smallDesign()
	m := New("PAIR")
	m.AddPort(Port{Name: "A", Dir: Input})
	m.AddPort(Port{Name: "Y", Dir: Output})
	m.AddInstance(Instance{Name: "i1", Ref: "INV_X1", Conns: map[string]string{"A": "A", "Y": "t"}})
	m.AddInstance(Instance{Name: "i2", Ref: "INV_X1", Conns: map[string]string{"A": "t", "Y": "Y"}})
	d.AddModule(m)
	d.AddInstance(Instance{Name: "u1", Ref: "PAIR", Conns: map[string]string{"A": "IN", "Y": "mo"}})
	if err := d.Validate(lib); err != nil {
		t.Fatal(err)
	}
	flat := d.Flatten(lib)
	if err := flat.Validate(lib); err != nil {
		t.Fatalf("flattened design invalid: %v", err)
	}
	// 4 leaf instances + 2 from the module.
	if len(flat.Instances) != 6 {
		t.Fatalf("flat instances = %d, want 6", len(flat.Instances))
	}
	var inner *Instance
	for i := range flat.Instances {
		if flat.Instances[i].Name == "u1/i2" {
			inner = &flat.Instances[i]
		}
	}
	if inner == nil {
		t.Fatal("prefixed instance u1/i2 missing")
	}
	if inner.Conns["A"] != "u1/t" || inner.Conns["Y"] != "mo" {
		t.Fatalf("port mapping wrong: %v", inner.Conns)
	}
}

func TestStats(t *testing.T) {
	d := smallDesign()
	s := d.Stats(lib)
	if s.Cells != 4 || s.Latches != 2 {
		t.Fatalf("stats = %+v", s)
	}
	m := New("PAIR")
	m.AddPort(Port{Name: "A", Dir: Input})
	m.AddPort(Port{Name: "Y", Dir: Output})
	m.AddInstance(Instance{Name: "i1", Ref: "INV_X1", Conns: map[string]string{"A": "A", "Y": "t"}})
	m.AddInstance(Instance{Name: "i2", Ref: "INV_X1", Conns: map[string]string{"A": "t", "Y": "Y"}})
	d.AddModule(m)
	d.AddInstance(Instance{Name: "u1", Ref: "PAIR", Conns: map[string]string{"A": "IN", "Y": "mo"}})
	s = d.Stats(lib)
	if s.Cells != 6 || s.Modules != 1 {
		t.Fatalf("stats with module = %+v", s)
	}
}

func TestClockSet(t *testing.T) {
	d := smallDesign()
	cs, err := d.ClockSet()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Overall() != 100*clock.Ns {
		t.Fatalf("overall = %v", cs.Overall())
	}
	if _, err := New("empty").ClockSet(); err == nil {
		t.Fatal("clockless design accepted")
	}
}

// TestNetNames: the binding lists every net the design references — port
// nets, clock nets and instance connections — sorted.
func TestNetNames(t *testing.T) {
	b, err := smallDesign().Bind(lib)
	if err != nil {
		t.Fatal(err)
	}
	nets := b.Nets
	want := []string{"IN", "OUT", "n1", "n2", "n3", "phi1", "phi2"}
	if len(nets) != len(want) {
		t.Fatalf("nets = %v", nets)
	}
	for i := range want {
		if nets[i] != want[i] {
			t.Fatalf("nets = %v, want %v", nets, want)
		}
	}
}

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want clock.Time
	}{
		{"0", 0}, {"250", 250}, {"250ps", 250}, {"1ns", 1000},
		{"1.5ns", 1500}, {"-0.2ns", -200}, {"2us", 2 * clock.Us}, {"-3", -3},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTime(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "ns", "abc", "1.0001ns", "--3"} {
		if _, err := ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q) accepted", bad)
		}
	}
}

func TestFormatTimeRoundTrip(t *testing.T) {
	for _, v := range []clock.Time{0, 1, 250, 1000, 1500, 100000, 2 * clock.Us} {
		got, err := ParseTime(FormatTime(v))
		if err != nil || got != v {
			t.Errorf("round trip %v -> %q -> %v (%v)", v, FormatTime(v), got, err)
		}
	}
}

const sampleText = `
# sample design
design demo
clock phi1 period 100ns rise 0 fall 40ns
clock phi2 period 50ns rise 25ns fall 45ns
input IN clock phi2 edge fall offset 0
output OUT clock phi1 edge fall offset -0.2ns
module PAIR
  input A
  output Y
  inst i1 INV_X1 A=A Y=t
  inst i2 INV_X1 A=t Y=Y
endmodule
inst u1 PAIR A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=OUT
end
`

func TestParseSample(t *testing.T) {
	d, err := ParseString(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" || len(d.Clocks) != 2 || len(d.Ports) != 2 || len(d.Instances) != 2 {
		t.Fatalf("parsed shape wrong: %+v", d)
	}
	if d.Clocks[1].Period != 50*clock.Ns || d.Clocks[1].RiseAt != 25*clock.Ns {
		t.Fatalf("clock parse wrong: %+v", d.Clocks[1])
	}
	if p := d.Port("OUT"); p == nil || p.RefClock != "phi1" || p.RefEdge != clock.Fall || p.Offset != -200 {
		t.Fatalf("port parse wrong: %+v", p)
	}
	m := d.Modules["PAIR"]
	if m == nil || len(m.Instances) != 2 || len(m.Ports) != 2 {
		t.Fatalf("module parse wrong: %+v", m)
	}
	if err := d.Validate(lib); err != nil {
		t.Fatalf("parsed design invalid: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"no design", "end\n", "end before design"},
		{"missing end", "design d\n", "missing 'end'"},
		{"dup design", "design a\ndesign b\nend\n", "duplicate design"},
		{"bad clock", "design d\nclock c period 0 rise 0 fall 1\nend\n", "period"},
		{"clock usage", "design d\nclock c period 10\nend\n", "usage: clock"},
		{"bad conn", "design d\ninst i INV_X1 A\nend\n", "bad connection"},
		{"dup pin conn", "design d\ninst i INV_X1 A=x A=y\nend\n", "connected twice"},
		{"unknown directive", "design d\nfoo bar\nend\n", "unknown directive"},
		{"nested module", "design d\nmodule a\nmodule b\nendmodule\nendmodule\nend\n", "nested module"},
		{"stray endmodule", "design d\nendmodule\nend\n", "outside module"},
		{"clock in module", "design d\nmodule m\nclock c period 10 rise 0 fall 5\nendmodule\nend\n", "clock inside module"},
		{"timed module port", "design d\nmodule m\ninput A clock c edge rise offset 0\nendmodule\nend\n", "timing reference"},
		{"content after end", "design d\nend\ninst i INV_X1 A=x\n", "content after"},
		{"empty design", "", "no design"},
		{"bad edge", "design d\nclock c period 10 rise 0 fall 5\ninput A clock c edge sideways offset 0\nend\n", "bad edge"},
	}
	for _, c := range cases {
		_, err := ParseString(c.text)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d, err := ParseString(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\ntext:\n%s", err, sb.String())
	}
	if d2.Name != d.Name || len(d2.Instances) != len(d.Instances) ||
		len(d2.Clocks) != len(d.Clocks) || len(d2.Ports) != len(d.Ports) ||
		len(d2.Modules) != len(d.Modules) {
		t.Fatalf("round trip shape mismatch:\n%s", sb.String())
	}
	for i, inst := range d.Instances {
		got := d2.Instances[i]
		if got.Name != inst.Name || got.Ref != inst.Ref || len(got.Conns) != len(inst.Conns) {
			t.Fatalf("instance %d mismatch: %+v vs %+v", i, got, inst)
		}
		for pin, net := range inst.Conns {
			if got.Conns[pin] != net {
				t.Fatalf("instance %s pin %s: %q vs %q", inst.Name, pin, got.Conns[pin], net)
			}
		}
	}
}

func TestPortDirString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" {
		t.Fatal("PortDir strings")
	}
}
