// Package delaycalc performs component propagation-delay estimation (§1):
// it evaluates the library's empirical load-dependent delay expressions
// against the actual connected loads of a design, and rolls hierarchical
// combinational modules up into single super-cells whose pin-to-pin delays
// are the combined internal path delays ("For combinational logic modules
// the delays have been combined to generate estimates of the module
// propagation delays", §8).
//
// The paper separates component delay estimation from system timing
// analysis so that different estimation methods can be combined; this
// package is the single place the rest of the analyzer obtains component
// delays from, so swapping the estimation model never touches the analysis
// algorithms.
package delaycalc

import (
	"fmt"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/graph"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
)

// mEvals counts delay-expression evaluations (one per arc per call),
// the unit the paper's estimation cost scales with.
var mEvals = telemetry.NewCounter("delaycalc.evaluations")

// Delays is one timing arc's evaluated propagation delays at its actual
// load: the worst (max) and best (min) delay for each output transition
// direction.
type Delays struct {
	MaxRise, MaxFall clock.Time
	MinRise, MinFall clock.Time
}

// Max returns the worst delay over both transitions (used where rise/fall
// are not tracked separately).
func (d Delays) Max() clock.Time {
	if d.MaxRise > d.MaxFall {
		return d.MaxRise
	}
	return d.MaxFall
}

// Min returns the best delay over both transitions.
func (d Delays) Min() clock.Time {
	if d.MinRise < d.MinFall {
		return d.MinRise
	}
	return d.MinFall
}

// Options tunes the estimation model.
type Options struct {
	// WireCapBase is added to every driven net's load (routing stub).
	WireCapBase celllib.Cap
	// WireCapPerFanout is added per sink pin on the net.
	WireCapPerFanout celllib.Cap
	// DefaultPortLoad is the load assumed on nets that leave the design
	// (primary outputs, module boundary pins during roll-up).
	DefaultPortLoad celllib.Cap
}

// DefaultOptions returns the wire-load model used by the benchmarks.
func DefaultOptions() Options {
	return Options{WireCapBase: 2, WireCapPerFanout: 3, DefaultPortLoad: 10}
}

// Calc evaluates arc delays for one design. The design must be *resolved*:
// every instance reference must name a cell in the (possibly extended)
// library — hierarchical designs are first rolled up with RollUpModules or
// flattened with netlist.Flatten.
type Calc struct {
	lib    *celllib.Library
	design *netlist.Design
	bind   *netlist.Binding
	opts   Options
	loads  []celllib.Cap // by net id
	// adjust holds per-instance additive delay adjustments (interactive
	// mode, §8: "Adjustments may also be made to component delays").
	adjust map[string]clock.Time
}

// New binds the design's names (netlist.Design.Bind) and computes every
// net's capacitive load.
func New(lib *celllib.Library, design *netlist.Design, opts Options) (*Calc, error) {
	b, err := design.Bind(lib)
	if err != nil {
		return nil, fmt.Errorf("delaycalc: %w", err)
	}
	c := &Calc{lib: lib, design: design, bind: b, opts: opts,
		loads:  make([]celllib.Cap, len(b.Nets)),
		adjust: make(map[string]clock.Time)}
	sinks := make([]int32, len(b.Nets))
	for i := range design.Instances {
		pins := b.Cells[i].Pins
		for k, net := range b.Pins(i) {
			if net >= 0 && pins[k].Dir == celllib.In {
				sinks[net]++
				c.loads[net] += pins[k].C
			}
		}
	}
	for _, p := range design.Ports {
		if p.Dir == netlist.Output {
			net := b.NetIdx[p.Name]
			sinks[net]++
			c.loads[net] += opts.DefaultPortLoad
		}
	}
	for net, n := range sinks {
		if n > 0 {
			c.loads[net] += opts.WireCapBase + celllib.Cap(n)*opts.WireCapPerFanout
		}
	}
	return c, nil
}

// Library returns the library the calculator resolves cells in.
func (c *Calc) Library() *celllib.Library { return c.lib }

// Design returns the design the calculator was built for.
func (c *Calc) Design() *netlist.Design { return c.design }

// Binding returns the design's name binding, built once by New.
func (c *Calc) Binding() *netlist.Binding { return c.bind }

// ShiftLoad adds delta to the capacitive load of the named net. The
// incremental engine calls it when an interface-preserving resize changes
// an input pin's capacitance: every pin stays connected, so the net's sink
// count — and with it the wire-load term — is unchanged, and the load
// moves by exactly the pin's capacitance difference.
func (c *Calc) ShiftLoad(net string, delta celllib.Cap) {
	if id, ok := c.bind.NetIdx[net]; ok {
		c.loads[id] += delta
	}
}

// NetLoad returns the total capacitive load on the named net.
func (c *Calc) NetLoad(net string) celllib.Cap {
	if id, ok := c.bind.NetIdx[net]; ok {
		return c.loads[id]
	}
	return 0
}

// Adjust adds delta picoseconds to every max/min arc delay of the named
// instance (negative deltas speed the instance up; min delays are floored
// at zero). Supports the interactive what-if mode of §8.
func (c *Calc) Adjust(instName string, delta clock.Time) {
	c.adjust[instName] += delta
}

// Adjustment returns the current additive adjustment of an instance.
func (c *Calc) Adjustment(instName string) clock.Time { return c.adjust[instName] }

// ArcDelays evaluates one arc of one instance at its connected load,
// resolving the arc's output pin by name.
func (c *Calc) ArcDelays(inst *netlist.Instance, arc *celllib.Arc) Delays {
	load := c.opts.DefaultPortLoad
	if net, ok := inst.Conns[arc.To]; ok {
		load = c.NetLoad(net)
	}
	return c.eval(inst, arc, load)
}

// ArcDelaysOn is ArcDelays for an arc whose output pin drives net id to
// (-1: unconnected, evaluated at the default port load).
func (c *Calc) ArcDelaysOn(inst *netlist.Instance, arc *celllib.Arc, to int) Delays {
	load := c.opts.DefaultPortLoad
	if to >= 0 {
		load = c.loads[to]
	}
	return c.eval(inst, arc, load)
}

func (c *Calc) eval(inst *netlist.Instance, arc *celllib.Arc, load celllib.Cap) Delays {
	mEvals.Inc()
	adj := c.adjust[inst.Name]
	d := Delays{
		MaxRise: arc.Delay.MaxRise.Eval(load) + adj,
		MaxFall: arc.Delay.MaxFall.Eval(load) + adj,
		MinRise: arc.Delay.MinRise.Eval(load) + adj,
		MinFall: arc.Delay.MinFall.Eval(load) + adj,
	}
	if d.MinRise < 0 {
		d.MinRise = 0
	}
	if d.MinFall < 0 {
		d.MinFall = 0
	}
	if d.MaxRise < d.MinRise {
		d.MaxRise = d.MinRise
	}
	if d.MaxFall < d.MinFall {
		d.MaxFall = d.MinFall
	}
	return d
}

// RollUpModules converts every module of a hierarchical design into a
// synthetic combinational super-cell whose input→output arcs carry the
// module's internal worst (and best) path delays, and returns an extended
// library containing the originals plus the super-cells. Instance
// references are left untouched: a reference to module "FOO" resolves to
// the super-cell named "FOO" in the returned library.
func RollUpModules(lib *celllib.Library, design *netlist.Design, opts Options) (*celllib.Library, error) {
	ext := celllib.NewLibrary(lib.Name + "+modules")
	for _, name := range lib.Names() {
		if err := ext.Add(lib.Cell(name)); err != nil {
			return nil, err
		}
	}
	for name, m := range design.Modules {
		cell, err := rollUp(lib, m, opts)
		if err != nil {
			return nil, fmt.Errorf("delaycalc: module %s: %w", name, err)
		}
		if err := ext.Add(cell); err != nil {
			return nil, fmt.Errorf("delaycalc: module %s: %w", name, err)
		}
	}
	return ext, nil
}

// rollUp computes the super-cell for one combinational module. Internal
// delays are evaluated at the module's internal loads; boundary outputs see
// DefaultPortLoad. The super-cell's arcs are constant (zero-slope): the
// paper's module delay estimates are likewise single combined numbers.
// Mixed inversions inside a module make the arc sense NonUnate (safe).
func rollUp(lib *celllib.Library, m *netlist.Design, opts Options) (*celllib.Cell, error) {
	calc, err := New(lib, m, opts)
	if err != nil {
		return nil, err
	}
	// Net-level DAG: node per net; arcs per instance input→output.
	nets, id := calc.bind.Nets, calc.bind.NetIdx
	g := graph.New(len(nets))
	type edge struct {
		from, to int
		d        Delays
		sense    celllib.Sense
	}
	var edges []edge
	for i := range m.Instances {
		inst := &m.Instances[i]
		cell := lib.Cell(inst.Ref)
		for ai := range cell.Arcs {
			arc := &cell.Arcs[ai]
			fromNet, ok1 := inst.Conns[arc.From]
			toNet, ok2 := inst.Conns[arc.To]
			if !ok1 || !ok2 {
				continue
			}
			if err := g.AddEdge(id[fromNet], id[toNet]); err != nil {
				return nil, fmt.Errorf("module %s: arc of instance %s: %w", m.Name, inst.Name, err)
			}
			edges = append(edges, edge{id[fromNet], id[toNet], calc.ArcDelays(inst, arc), arc.Sense})
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		cyc := g.FindCycle()
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = nets[v]
		}
		return nil, fmt.Errorf("combinational cycle through nets %v", names)
	}
	adj := make(map[int][]edge)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}

	const unset = clock.Time(-1)
	var pins []celllib.Pin
	var arcs []celllib.Arc
	for _, p := range m.Ports {
		if p.Dir == netlist.Input {
			pins = append(pins, celllib.Pin{Name: p.Name, Dir: celllib.In, Role: celllib.Data, C: opts.DefaultPortLoad})
		} else {
			pins = append(pins, celllib.Pin{Name: p.Name, Dir: celllib.Out})
		}
	}
	for _, in := range m.Ports {
		if in.Dir != netlist.Input {
			continue
		}
		// Longest/shortest path DP from this input, rise/fall tracked via
		// Delays pairs; senses are collapsed to NonUnate so rise and fall
		// both take the max across senses (conservative).
		maxd := make([]clock.Time, len(nets))
		mind := make([]clock.Time, len(nets))
		for i := range maxd {
			maxd[i], mind[i] = unset, unset
		}
		src := id[in.Name]
		maxd[src], mind[src] = 0, 0
		for _, u := range order {
			if maxd[u] == unset {
				continue
			}
			for _, e := range adj[u] {
				if t := maxd[u] + e.d.Max(); maxd[e.to] == unset || t > maxd[e.to] {
					maxd[e.to] = t
				}
				if t := mind[u] + e.d.Min(); mind[e.to] == unset || t < mind[e.to] {
					mind[e.to] = t
				}
			}
		}
		for _, out := range m.Ports {
			if out.Dir != netlist.Output {
				continue
			}
			dst := id[out.Name]
			if maxd[dst] == unset {
				continue // no path input→output
			}
			arcs = append(arcs, celllib.Arc{
				From: in.Name, To: out.Name, Sense: celllib.NonUnate,
				Delay: celllib.ArcDelay{
					MaxRise: celllib.Linear{Intrinsic: maxd[dst]},
					MaxFall: celllib.Linear{Intrinsic: maxd[dst]},
					MinRise: celllib.Linear{Intrinsic: mind[dst]},
					MinFall: celllib.Linear{Intrinsic: mind[dst]},
				},
			})
		}
	}
	var area int64
	for _, inst := range m.Instances {
		area += lib.Cell(inst.Ref).Area
	}
	return &celllib.Cell{
		Name: m.Name, Kind: celllib.Comb,
		Function: fmt.Sprintf("module %s (%d cells)", m.Name, len(m.Instances)),
		Area:     area, Drive: 1, Pins: pins, Arcs: arcs,
	}, nil
}
