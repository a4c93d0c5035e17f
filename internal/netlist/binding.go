package netlist

import (
	"fmt"
	"slices"

	"hummingbird/internal/celllib"
)

// Binding is a resolved design's names turned into dense ids, once per
// elaboration: the net table every later stage indexes, and each
// instance's pin connections as net ids. It is immutable and describes the
// design as elaborated: the pin order is that of the cell each instance
// referenced when Bind ran, so code that follows an in-place cell swap
// (an interface-preserving resize) reads the instance's current Ref.
type Binding struct {
	// Nets lists every net the design references — port nets, clock nets
	// and instance connections — in sorted order; a net's id is its index.
	Nets []string
	// NetIdx maps a net name to its id.
	NetIdx map[string]int
	// Cells[i] is the library cell instance i referenced when bound.
	Cells []*celllib.Cell
	// PinStart/PinNet are the per-instance pin→net CSR: instance i's pins,
	// in its cell's library pin order, connect to the nets
	// PinNet[PinStart[i]:PinStart[i+1]]; an unconnected pin holds -1.
	PinStart []int32
	PinNet   []int32
}

// Pins returns the net ids of instance i's pins in its cell's pin order.
func (b *Binding) Pins(i int) []int32 { return b.PinNet[b.PinStart[i]:b.PinStart[i+1]] }

// Bind resolves every net and pin name of a flat design against lib. Each
// instance must reference a cell of lib and connect only pins of it; the
// design is otherwise assumed valid. Names are interned in first-seen
// order, sorted once and the ids remapped, so net ids follow name order.
func (d *Design) Bind(lib *celllib.Library) (*Binding, error) {
	b := &Binding{PinStart: make([]int32, len(d.Instances)+1), Cells: make([]*celllib.Cell, len(d.Instances))}
	for i := range d.Instances {
		inst := &d.Instances[i]
		cell := lib.Cell(inst.Ref)
		if cell == nil {
			return nil, fmt.Errorf("instance %s references unresolved component %q", inst.Name, inst.Ref)
		}
		b.Cells[i] = cell
		b.PinStart[i+1] = b.PinStart[i] + int32(len(cell.Pins))
	}
	b.PinNet = make([]int32, b.PinStart[len(d.Instances)])
	hint := len(d.Instances) + len(d.Ports) + len(d.Clocks)
	ids := make(map[string]int, hint)
	names := make([]string, 0, hint)
	intern := func(name string) int32 {
		id, ok := ids[name]
		if !ok {
			id = len(names)
			ids[name] = id
			names = append(names, name)
		}
		return int32(id)
	}
	for _, c := range d.Clocks {
		intern(c.Name)
	}
	for _, p := range d.Ports {
		intern(p.Name)
	}
	for i := range d.Instances {
		inst, cell := &d.Instances[i], b.Cells[i]
		pins := b.Pins(i)
		found := 0
		for k := range cell.Pins {
			net, ok := inst.Conns[cell.Pins[k].Name]
			if !ok {
				pins[k] = -1
				continue
			}
			pins[k] = intern(net)
			found++
		}
		if found != len(inst.Conns) {
			return nil, connError(inst, cell.Pins)
		}
	}

	// Sort once; remap the first-seen ids onto sorted positions.
	remap := make([]int32, len(names))
	slices.Sort(names)
	for id, name := range names {
		remap[ids[name]] = int32(id)
		ids[name] = id
	}
	for k, net := range b.PinNet {
		if net >= 0 {
			b.PinNet[k] = remap[net]
		}
	}
	b.Nets, b.NetIdx = names, ids
	return b, nil
}
