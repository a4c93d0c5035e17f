package netlist

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hummingbird/internal/celllib"
)

// cellInputs lists a cell's input pins in declaration order.
func cellInputs(c *celllib.Cell) []string {
	var in []string
	for _, p := range c.Pins {
		if p.Dir == celllib.In {
			in = append(in, p.Name)
		}
	}
	return in
}

// refValidate is Validate as it stood before the single-table rewrite:
// a pin map, input/output slices and a formatted driver label per
// instance. It is the differential reference for FuzzValidate and
// TestValidateRejections.
func refValidate(d *Design, lib *celllib.Library) error {
	if d.Name == "" {
		return fmt.Errorf("netlist: design with empty name")
	}
	clockNames := map[string]bool{}
	for _, c := range d.Clocks {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("design %s: %w", d.Name, err)
		}
		if clockNames[c.Name] {
			return fmt.Errorf("design %s: duplicate clock %q", d.Name, c.Name)
		}
		clockNames[c.Name] = true
	}
	portNames := map[string]bool{}
	for _, p := range d.Ports {
		if p.Name == "" {
			return fmt.Errorf("design %s: port with empty name", d.Name)
		}
		if portNames[p.Name] {
			return fmt.Errorf("design %s: duplicate port %q", d.Name, p.Name)
		}
		if clockNames[p.Name] {
			return fmt.Errorf("design %s: port %q collides with clock net", d.Name, p.Name)
		}
		portNames[p.Name] = true
		if p.RefClock != "" && !clockNames[p.RefClock] {
			return fmt.Errorf("design %s: port %q references unknown clock %q", d.Name, p.Name, p.RefClock)
		}
	}
	for name, m := range d.Modules {
		if name != m.Name {
			return fmt.Errorf("design %s: module map key %q != module name %q", d.Name, name, m.Name)
		}
		if len(m.Clocks) != 0 {
			return fmt.Errorf("design %s: module %s declares clocks (modules must be combinational)", d.Name, name)
		}
		if len(m.Modules) != 0 {
			return fmt.Errorf("design %s: module %s nests modules", d.Name, name)
		}
		for _, inst := range m.Instances {
			c := lib.Cell(inst.Ref)
			if c == nil {
				return fmt.Errorf("design %s: module %s instance %s references unknown cell %q", d.Name, name, inst.Name, inst.Ref)
			}
			if c.IsSync() {
				return fmt.Errorf("design %s: module %s contains synchronising element %s (%s)", d.Name, name, inst.Name, inst.Ref)
			}
		}
		if err := refCheckConnectivity(m, lib, nil); err != nil {
			return fmt.Errorf("design %s: module %s: %w", d.Name, name, err)
		}
	}
	return refCheckConnectivity(d, lib, clockNames)
}

// refCheckConnectivity is the reference checkConnectivity.
func refCheckConnectivity(d *Design, lib *celllib.Library, clockNets map[string]bool) error {
	instNames := map[string]bool{}
	drivers := map[string]string{} // net -> driver description
	triOnly := map[string]bool{}   // net -> all drivers so far are tristate
	for n := range clockNets {
		drivers[n] = "clock generator " + n
	}
	for _, p := range d.Ports {
		if p.Dir == Input {
			drivers[p.Name] = "primary input " + p.Name
		}
	}
	for _, inst := range d.Instances {
		if inst.Name == "" {
			return fmt.Errorf("instance with empty name (ref %q)", inst.Ref)
		}
		if instNames[inst.Name] {
			return fmt.Errorf("duplicate instance %q", inst.Name)
		}
		instNames[inst.Name] = true

		var inputs, outputs []string
		if c := lib.Cell(inst.Ref); c != nil {
			inputs, outputs = cellInputs(c), c.Outputs()
		} else if m, ok := d.Modules[inst.Ref]; ok {
			for _, p := range m.Ports {
				if p.Dir == Input {
					inputs = append(inputs, p.Name)
				} else {
					outputs = append(outputs, p.Name)
				}
			}
		} else {
			return fmt.Errorf("instance %s references unknown cell/module %q", inst.Name, inst.Ref)
		}
		known := map[string]bool{}
		for _, p := range inputs {
			known[p] = true
		}
		for _, p := range outputs {
			known[p] = true
		}
		for pin, net := range inst.Conns {
			if !known[pin] {
				return fmt.Errorf("instance %s (%s): unknown pin %q", inst.Name, inst.Ref, pin)
			}
			if net == "" {
				return fmt.Errorf("instance %s (%s): pin %q connected to empty net name", inst.Name, inst.Ref, pin)
			}
		}
		for _, pin := range inputs {
			if _, ok := inst.Conns[pin]; !ok {
				return fmt.Errorf("instance %s (%s): input pin %q unconnected", inst.Name, inst.Ref, pin)
			}
		}
		isTri := false
		if c := lib.Cell(inst.Ref); c != nil && c.Kind == celllib.Tristate {
			isTri = true
		}
		for _, pin := range outputs {
			net, ok := inst.Conns[pin]
			if !ok {
				continue // dangling outputs are permitted
			}
			if prev, taken := drivers[net]; taken {
				if !(isTri && triOnly[net]) {
					return fmt.Errorf("net %q driven by both %s and instance %s pin %s", net, prev, inst.Name, pin)
				}
			}
			drivers[net] = fmt.Sprintf("instance %s pin %s", inst.Name, pin)
			if _, seen := triOnly[net]; !seen {
				triOnly[net] = isTri
			} else {
				triOnly[net] = triOnly[net] && isTri
			}
		}
	}
	// Every net that is consumed must have a driver.
	for _, inst := range d.Instances {
		var inputs []string
		if c := lib.Cell(inst.Ref); c != nil {
			inputs = cellInputs(c)
		} else if m, ok := d.Modules[inst.Ref]; ok {
			for _, p := range m.Ports {
				if p.Dir == Input {
					inputs = append(inputs, p.Name)
				}
			}
		}
		for _, pin := range inputs {
			net := inst.Conns[pin]
			if _, ok := drivers[net]; !ok {
				return fmt.Errorf("instance %s pin %s: net %q has no driver", inst.Name, pin, net)
			}
		}
	}
	for _, p := range d.Ports {
		if p.Dir == Output {
			if _, ok := drivers[p.Name]; !ok {
				return fmt.Errorf("primary output %q has no driver", p.Name)
			}
		}
	}
	return nil
}

// genNetlist turns fuzz bytes into a small netlist text: clocks, ports, an
// optional combinational module (one variant lists a port twice) and a
// chain of instances (sequential, tristate, combinational, module and
// unknown components). By default each instance drives its own net and
// reads nets driven before it; the bytes inject the mistakes Validate
// looks for — open pins, pins the component lacks, shared or undriven
// nets, duplicate names — at a rate that keeps most designs valid.
func genNetlist(data []byte) string {
	next := func() int {
		if len(data) == 0 {
			return 0xff
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var sb strings.Builder
	sb.WriteString("design f\nclock phi period 10ns rise 0 fall 5ns\n")
	if next()%4 == 0 {
		sb.WriteString("clock phi2 period 10ns rise 5ns fall 8ns\n")
	}
	driven := []string{"I0", "I1"}
	sb.WriteString("input I0 clock phi edge rise offset 0\ninput I1 clock phi edge rise offset 0\n")
	if next()%3 != 0 {
		sb.WriteString("output O0 clock phi edge fall offset 0\n")
	}
	module := []string{"A", "B", "Y"}
	switch next() % 6 {
	case 0:
		sb.WriteString("module M\n  input A B\n  output Y\n  inst m1 NAND2_X1 A=A B=B Y=t\n  inst m2 INV_X1 A=t Y=Y\nendmodule\n")
	case 1:
		sb.WriteString("module M\n  input A B\n  output Y\n  inst m1 NAND2_X1 A=A B=u Y=Y\nendmodule\n")
	case 2:
		sb.WriteString("module M\n  input A B A\n  output Y\n  inst m1 NAND2_X1 A=A B=B Y=Y\nendmodule\n")
	default:
		module = nil
	}
	cells := []string{"INV_X1", "NAND2_X1", "NAND2_X2", "BUF_X1", "DFF_X1", "DLATCH_X1", "TBUF_X1", "TBUF_X2", "MUX2_X1", "M", "NOPE"}
	wild := []string{"phi", "phi2", "I0", "O0", "n0", "n1", "n3", "n<&>", "n\u00e9\u2028"}
	n := next() % 12
	for i := 0; i < n; i++ {
		ref := cells[next()%len(cells)]
		name := fmt.Sprintf("g%d", i)
		if next()%16 == 0 {
			name = fmt.Sprintf("g%d", next()%4)
		}
		fmt.Fprintf(&sb, "inst %s %s", name, ref)
		var pins []celllib.Pin
		if c := lib.Cell(ref); c != nil {
			pins = c.Pins
		} else {
			if ref != "M" || module == nil {
				module = []string{"A", "Y"}
			}
			for _, p := range module {
				dir := celllib.In
				if p == "Y" {
					dir = celllib.Out
				}
				pins = append(pins, celllib.Pin{Name: p, Dir: dir})
			}
		}
		out := fmt.Sprintf("n%d", i)
		if i == n-1 && next()%2 == 0 {
			out = "O0"
		}
		for _, p := range pins {
			net := out
			switch {
			case p.Role == celllib.Control:
				net = "phi"
			case p.Dir == celllib.In:
				net = driven[next()%len(driven)]
			}
			switch next() % 16 {
			case 0:
				continue
			case 1:
				fmt.Fprintf(&sb, " Z=%s", net)
			case 2, 3:
				net = wild[next()%len(wild)]
			}
			fmt.Fprintf(&sb, " %s=%s", p.Name, net)
		}
		driven = append(driven, out)
		sb.WriteString("\n")
	}
	sb.WriteString("end\n")
	return sb.String()
}

// FuzzValidate checks the single-table Validate against the reference: an
// error exactly when the reference errs. For every accepted flat design
// the binding must list every net the design references, sorted, and
// resolve every pin to the id of the net it names.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0, 4, 4, 2, 2, 3, 6, 3, 2, 5, 0, 6, 4, 7, 8, 9})
	f.Add([]byte{0, 2, 2, 1, 6, 6, 3, 6, 2, 6, 2, 7, 6, 5, 3, 6, 4, 7})
	f.Add([]byte{3, 2, 2, 0, 9, 9, 1, 2, 2, 3, 2, 6, 0, 2, 2, 5, 7, 4, 4, 8, 2, 2})
	f.Add([]byte("\x05\x02\x02\x05\x0c\x06\x01\x02\x02\x06\x06\x03\x07\x02\x04\x04\x07\x02\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		text := genNetlist(data)
		d, err := ParseString(text)
		if err != nil {
			return
		}
		got, want := d.Validate(lib), refValidate(d, lib)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate = %v, reference = %v\n%s", got, want, text)
		}
		if got != nil || len(d.Modules) > 0 {
			return
		}
		b, err := d.Bind(lib)
		if err != nil {
			t.Fatalf("Bind of a valid design: %v\n%s", err, text)
		}
		var nets []string
		for n := range d.netSet() {
			nets = append(nets, n)
		}
		slices.Sort(nets)
		if !slices.Equal(b.Nets, nets) {
			t.Fatalf("binding nets %q, referenced nets %q", b.Nets, nets)
		}
		for i := range d.Instances {
			inst := &d.Instances[i]
			pins := lib.Cell(inst.Ref).Pins
			ids := b.Pins(i)
			if len(ids) != len(pins) {
				t.Fatalf("%s: %d pin ids for %d pins", inst.Name, len(ids), len(pins))
			}
			for k, p := range pins {
				want := int32(-1)
				if net, ok := inst.Conns[p.Name]; ok {
					want = int32(b.NetIdx[net])
				}
				if ids[k] != want {
					t.Fatalf("%s pin %s: net id %d, want %d\n%s", inst.Name, p.Name, ids[k], want, text)
				}
			}
		}
	})
}
