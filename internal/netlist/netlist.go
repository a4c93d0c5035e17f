// Package netlist models designs the way the paper's synthesis environment
// presents them (§1): networks of combinational logic and synchronising
// elements, optionally hierarchical ("a 'hierarchical' description ... in
// which the combinational logic is contained in a single module", §8's SM1H
// benchmark), together with the clock generators and the timing references
// of the primary ports.
//
// A Design owns clock declarations, ports, instances and submodule
// definitions. Each declared clock drives a net bearing the clock's name
// (the clock generator output terminal of §4). Primary ports connect to
// nets bearing the port's name.
package netlist

import (
	"errors"
	"fmt"
	"sort"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
)

// PortDir distinguishes primary inputs from primary outputs.
type PortDir uint8

const (
	// Input is a primary input port.
	Input PortDir = iota
	// Output is a primary output port.
	Output
)

// String returns "input" or "output".
func (d PortDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Port is a primary input or output. Hitchcock-style "assorted assertion
// times at the inputs and closure times at the outputs" [6] are expressed by
// referencing a clock edge: an input is asserted at (edge time + Offset);
// an output closes at (edge time + Offset). Ports of submodules carry no
// timing reference (RefClock empty) — their timing comes from the
// instantiating context.
type Port struct {
	Name     string
	Dir      PortDir
	RefClock string
	RefEdge  clock.EdgeKind
	Offset   clock.Time
}

// Instance is one placed component: a library cell or a submodule.
type Instance struct {
	Name string
	// Ref names either a library cell or a module defined in the design.
	Ref string
	// Conns maps the referenced component's pin (or module port) names to
	// net names.
	Conns map[string]string
}

// Design is a netlist, possibly with submodule definitions.
type Design struct {
	Name      string
	Clocks    []clock.Signal
	Ports     []Port
	Instances []Instance
	// Modules holds submodule definitions by name. Submodules must be
	// purely combinational (the paper's hierarchy use case) and may not
	// define clocks or nest further modules.
	Modules map[string]*Design
}

// New returns an empty design with the given name.
func New(name string) *Design {
	return &Design{Name: name, Modules: map[string]*Design{}}
}

// AddClock declares a clock generator; its output net bears the clock name.
func (d *Design) AddClock(s clock.Signal) { d.Clocks = append(d.Clocks, s) }

// AddPort declares a primary port; its net bears the port name.
func (d *Design) AddPort(p Port) { d.Ports = append(d.Ports, p) }

// AddInstance places a component.
func (d *Design) AddInstance(inst Instance) { d.Instances = append(d.Instances, inst) }

// AddModule registers a submodule definition.
func (d *Design) AddModule(m *Design) {
	if d.Modules == nil {
		d.Modules = map[string]*Design{}
	}
	d.Modules[m.Name] = m
}

// Port returns the named port, or nil.
func (d *Design) Port(name string) *Port {
	for i := range d.Ports {
		if d.Ports[i].Name == name {
			return &d.Ports[i]
		}
	}
	return nil
}

// ClockNames returns the declared clock names in declaration order.
func (d *Design) ClockNames() []string {
	names := make([]string, len(d.Clocks))
	for i, c := range d.Clocks {
		names[i] = c.Name
	}
	return names
}

// ClockSet builds the clock.Set of the declared clocks.
func (d *Design) ClockSet() (*clock.Set, error) {
	if len(d.Clocks) == 0 {
		return nil, fmt.Errorf("design %s: no clocks declared", d.Name)
	}
	return clock.NewSet(d.Clocks...)
}

// NetNames returns every net name referenced by the design — port nets,
// clock nets and instance connections — sorted.
func (d *Design) NetNames() []string {
	seen := d.netSet()
	nets := make([]string, 0, len(seen))
	for n := range seen {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	return nets
}

// netSet returns the set of net names NetNames lists.
func (d *Design) netSet() map[string]struct{} {
	seen := map[string]struct{}{}
	for _, c := range d.Clocks {
		seen[c.Name] = struct{}{}
	}
	for _, p := range d.Ports {
		seen[p.Name] = struct{}{}
	}
	for _, inst := range d.Instances {
		for _, net := range inst.Conns {
			seen[net] = struct{}{}
		}
	}
	return seen
}

// Stats summarises a design for Table-1-style reporting.
type Stats struct {
	Cells   int // leaf cell instances after hypothetical flattening
	Modules int // module instances at top level
	Nets    int // nets at top level
	Latches int // synchronising elements (leaf, flattened count)
}

// Stats computes design statistics against the given library. The net
// count is len(NetNames()), counted without building the sorted list.
func (d *Design) Stats(lib *celllib.Library) Stats {
	s := d.CellStats(lib)
	s.Nets = len(d.netSet())
	return s
}

// CellStats is Stats without the net count, for callers that already hold
// the design's net table (an elaborated network lists every net).
func (d *Design) CellStats(lib *celllib.Library) Stats {
	var s Stats
	var count func(des *Design, mult int)
	count = func(des *Design, mult int) {
		for _, inst := range des.Instances {
			if c := lib.Cell(inst.Ref); c != nil {
				s.Cells += mult
				if c.IsSync() {
					s.Latches += mult
				}
				continue
			}
			if m, ok := d.Modules[inst.Ref]; ok {
				if des == d {
					s.Modules++
				}
				count(m, mult)
			}
		}
	}
	count(d, 1)
	return s
}

// Validate checks design consistency against the library:
//   - every instance references a known cell or module,
//   - every connection names a pin/port of the referenced component,
//   - every input pin is connected and every net has at most one driver,
//   - clock/port/net name collisions are rejected,
//   - submodules are purely combinational and non-nested,
//   - port timing references name declared clocks.
func (d *Design) Validate(lib *celllib.Library) error {
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
		if err := m.checkConnectivity(lib, false); err != nil {
			return fmt.Errorf("design %s: module %s: %w", d.Name, name, err)
		}
	}
	return d.checkConnectivity(lib, true)
}

// checkConnectivity verifies instance references, connection completeness
// and driver rules for one level of the hierarchy. Nets normally have at
// most one driver; the exception is a *tristate bus*: a net whose drivers
// are all clocked tristate drivers ("Clocked tristate drivers are modeled
// in the same way as transparent latches", §5) may have any number of
// them, on the assumption that the enabling clock phases are disjoint.
//
// One pass over the instances hashes each connected net name once into a
// single net table; descriptions for the error messages are formatted only
// on the error path.
func (d *Design) checkConnectivity(lib *celllib.Library, clocks bool) error {
	var modPins map[string][]celllib.Pin
	if len(d.Modules) > 0 {
		modPins = make(map[string][]celllib.Pin, len(d.Modules))
		for name, m := range d.Modules {
			pins := make([]celllib.Pin, len(m.Ports))
			for k, p := range m.Ports {
				pins[k] = celllib.Pin{Name: p.Name, Dir: celllib.Out}
				if p.Dir == Input {
					pins[k].Dir = celllib.In
				}
			}
			modPins[name] = pins
		}
	}
	// iface returns the pins of the instance's component: a library cell
	// (preferred, as elsewhere; cell is nil for a module) or a module's
	// ports. ok is false when ref names neither.
	iface := func(ref string) (pins []celllib.Pin, cell *celllib.Cell, ok bool) {
		if c := lib.Cell(ref); c != nil {
			return c.Pins, c, true
		}
		pins, ok = modPins[ref]
		return pins, nil, ok
	}
	// driver describes a net's recorded driver (error path only).
	driver := func(u *netUse, net string) string {
		switch u.drv {
		case drvClock:
			return "clock generator " + net
		case drvPort:
			return "primary input " + net
		}
		inst := &d.Instances[u.drv]
		pins, _, _ := iface(inst.Ref)
		return fmt.Sprintf("instance %s pin %s", inst.Name, pins[u.drvPin].Name)
	}

	instNames := make(map[string]struct{}, len(d.Instances))
	hint := len(d.Instances) + len(d.Ports) + len(d.Clocks)
	netIdx := make(map[string]int32, hint)
	nets := make([]netUse, 0, hint)
	net := func(name string) *netUse {
		id, ok := netIdx[name]
		if !ok {
			id = int32(len(nets))
			netIdx[name] = id
			nets = append(nets, netUse{drv: drvNone, use: -1})
		}
		return &nets[id]
	}
	if clocks {
		for _, c := range d.Clocks {
			net(c.Name).drv = drvClock
		}
	}
	for _, p := range d.Ports {
		if p.Dir == Input {
			net(p.Name).drv = drvPort
		}
	}
	for i := range d.Instances {
		inst := &d.Instances[i]
		if inst.Name == "" {
			return fmt.Errorf("instance with empty name (ref %q)", inst.Ref)
		}
		if _, dup := instNames[inst.Name]; dup {
			return fmt.Errorf("duplicate instance %q", inst.Name)
		}
		instNames[inst.Name] = struct{}{}
		pins, cell, ok := iface(inst.Ref)
		isTri := cell != nil && cell.Kind == celllib.Tristate
		if !ok {
			return fmt.Errorf("instance %s references unknown cell/module %q", inst.Name, inst.Ref)
		}
		// One pass over the pins records uses and drivers; the instance's
		// errors are reported afterwards in the order the checks rank
		// them: connections, open inputs, then the first double driver.
		found, empty, open, clash := 0, false, -1, ""
		for k := range pins {
			name, ok := inst.Conns[pins[k].Name]
			if !ok {
				if pins[k].Dir == celllib.In && open < 0 {
					open = k
				}
				continue // dangling outputs are permitted
			}
			found++
			empty = empty || name == ""
			u := net(name)
			if pins[k].Dir == celllib.In {
				if u.use < 0 {
					u.use, u.usePin = int32(i), int32(k)
				}
				continue
			}
			if u.drv != drvNone && !(isTri && u.tri) {
				if clash == "" {
					clash = fmt.Sprintf("net %q driven by both %s and instance %s pin %s", name, driver(u, name), inst.Name, pins[k].Name)
				}
				continue
			}
			if u.drv == drvNone {
				u.tri = isTri
			}
			u.drv, u.drvPin = int32(i), int32(k)
		}
		// A library cell's pin names are distinct, so the count shows an
		// unknown pin; a module may list a port twice, so its connections
		// are checked by name.
		if found != len(inst.Conns) || empty || cell == nil {
			if err := connError(inst, pins); err != nil {
				return err
			}
		}
		if open >= 0 {
			return fmt.Errorf("instance %s (%s): input pin %q unconnected", inst.Name, inst.Ref, pins[open].Name)
		}
		if clash != "" {
			return errors.New(clash)
		}
	}
	// Every net that is consumed must have a driver; report the first
	// consumer in instance and pin order.
	var undriven *netUse
	for k := range nets {
		u := &nets[k]
		if u.drv == drvNone && u.use >= 0 && (undriven == nil || u.use < undriven.use ||
			u.use == undriven.use && u.usePin < undriven.usePin) {
			undriven = u
		}
	}
	if undriven != nil {
		inst := &d.Instances[undriven.use]
		pins, _, _ := iface(inst.Ref)
		pin := pins[undriven.usePin].Name
		return fmt.Errorf("instance %s pin %s: net %q has no driver", inst.Name, pin, inst.Conns[pin])
	}
	for _, p := range d.Ports {
		if p.Dir == Output {
			if id, ok := netIdx[p.Name]; !ok || nets[id].drv == drvNone {
				return fmt.Errorf("primary output %q has no driver", p.Name)
			}
		}
	}
	return nil
}

// netUse is checkConnectivity's record of one net: its latest driver, and
// its first consumer for the no-driver diagnostic.
type netUse struct {
	// drv is the driving instance's index, or drvNone, drvClock, drvPort;
	// drvPin indexes the driving instance's pins.
	drv, drvPin int32
	// use/usePin are the first consuming instance and its pin, -1 if none.
	use, usePin int32
	// tri reports that every instance driving the net is a tristate.
	tri bool
}

const (
	drvNone  = -1
	drvClock = -2
	drvPort  = -3
)

// connError reports the first connection, in pin-name order, that names a
// pin the component lacks or an empty net (error path only).
func connError(inst *Instance, pins []celllib.Pin) error {
	names := make([]string, 0, len(inst.Conns))
	for pin := range inst.Conns {
		names = append(names, pin)
	}
	sort.Strings(names)
	for _, pin := range names {
		known := false
		for k := range pins {
			known = known || pins[k].Name == pin
		}
		if !known {
			return fmt.Errorf("instance %s (%s): unknown pin %q", inst.Name, inst.Ref, pin)
		}
		if inst.Conns[pin] == "" {
			return fmt.Errorf("instance %s (%s): pin %q connected to empty net name", inst.Name, inst.Ref, pin)
		}
	}
	return nil
}

// Flatten expands every module instance into its leaf cells, prefixing
// inner instance and net names with "<instname>/". The result has no module
// instances. Flatten assumes Validate passed.
func (d *Design) Flatten(lib *celllib.Library) *Design {
	flat := New(d.Name)
	flat.Clocks = append(flat.Clocks, d.Clocks...)
	flat.Ports = append(flat.Ports, d.Ports...)
	for _, inst := range d.Instances {
		if lib.Cell(inst.Ref) != nil {
			flat.AddInstance(Instance{Name: inst.Name, Ref: inst.Ref, Conns: copyConns(inst.Conns)})
			continue
		}
		m := d.Modules[inst.Ref]
		prefix := inst.Name + "/"
		// Map module port name -> outer net.
		portNet := map[string]string{}
		for _, p := range m.Ports {
			if net, ok := inst.Conns[p.Name]; ok {
				portNet[p.Name] = net
			} else {
				portNet[p.Name] = prefix + p.Name // dangling module port
			}
		}
		for _, mi := range m.Instances {
			conns := make(map[string]string, len(mi.Conns))
			for pin, net := range mi.Conns {
				if outer, ok := portNet[net]; ok {
					conns[pin] = outer
				} else {
					conns[pin] = prefix + net
				}
			}
			flat.AddInstance(Instance{Name: prefix + mi.Name, Ref: mi.Ref, Conns: conns})
		}
	}
	return flat
}

func copyConns(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// InstancesSortedByName returns the instances sorted by name; reporting
// helper for deterministic output.
func (d *Design) InstancesSortedByName() []Instance {
	out := append([]Instance(nil), d.Instances...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
