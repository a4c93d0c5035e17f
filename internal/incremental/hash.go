package incremental

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/netlist"
)

// TopologyChecksum hashes everything that shapes the elaborated timing
// network — clocks, ports, instance connectivity and each referenced
// cell's pin/arc interface and synchronising parameters — while excluding
// what delay-only edits may change: delay expressions, input capacitances
// and per-instance adjustments. Two designs with equal checksums elaborate
// to networks with identical clusters, sites and arcs (only the arc delay
// values may differ).
//
// The checksum is a wrap-around sum of one FNV-1a term per instance plus a
// header term, so a single-instance edit shifts the checksum by exactly
// (new instance term − old instance term) — which is what lets the engine
// carry it across every edit batch, delay-only or topological, in
// O(edit) instead of rehashing the design. Each cell's interface signature
// is computed once per call, however many instances reference the cell.
func TopologyChecksum(d *netlist.Design, lib *celllib.Library) uint64 {
	sum := headerTerm(d)
	sigs := map[*celllib.Cell]uint64{}
	for i := range d.Instances {
		sum += instanceTerm(&d.Instances[i], lib, sigs)
	}
	return sum
}

// fnv64a is an FNV-1a hash written to directly, so hashing a name costs
// no conversion to []byte and no interface call.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

func (h *fnv64a) byte(b byte) { *h = (*h ^ fnv64a(b)) * fnvPrime }

// str writes s and a NUL terminator.
func (h *fnv64a) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0)
}

// int writes v's eight bytes, little-endian.
func (h *fnv64a) int(v int64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// headerTerm hashes the design-wide structure: name, clocks, ports and
// module names.
func headerTerm(d *netlist.Design) uint64 {
	h := fnvOffset
	h.str(d.Name)
	for _, c := range d.Clocks {
		h.str(c.Name)
		h.int(int64(c.Period))
		h.int(int64(c.RiseAt))
		h.int(int64(c.FallAt))
	}
	for _, p := range d.Ports {
		h.str(p.Name)
		h.int(int64(p.Dir))
		h.str(p.RefClock)
		h.int(int64(p.RefEdge))
		h.int(int64(p.Offset))
	}
	mods := make([]string, 0, len(d.Modules))
	for m := range d.Modules {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	for _, m := range mods {
		h.str(m)
	}
	return uint64(h)
}

// instanceTerm hashes one instance's contribution to the checksum: its
// name, its cell's interface signature and its sorted connections. sigs,
// if non-nil, memoizes cell signatures across calls.
func instanceTerm(inst *netlist.Instance, lib *celllib.Library, sigs map[*celllib.Cell]uint64) uint64 {
	h := fnvOffset
	h.str(inst.Name)
	if cell := lib.Cell(inst.Ref); cell != nil {
		sig, ok := sigs[cell]
		if !ok {
			sig = cellSig(cell)
			if sigs != nil {
				sigs[cell] = sig
			}
		}
		h.str("cell")
		h.int(int64(sig))
	} else {
		h.str(inst.Ref)
	}
	var buf [8]string
	pins := buf[:0]
	for pin := range inst.Conns {
		pins = append(pins, pin)
	}
	sort.Strings(pins)
	for _, pin := range pins {
		h.str(pin)
		h.str(inst.Conns[pin])
	}
	return uint64(h)
}

// cellSig hashes the parts of a cell that shape the network: kind, pin
// names/directions/roles, arc endpoints/senses, and sync parameters.
// Delay expressions and pin capacitances are deliberately excluded so a
// drive-strength resize within the same interface keeps the checksum.
func cellSig(c *celllib.Cell) uint64 {
	h := fnvOffset
	h.int(int64(c.Kind))
	pins := make([]string, len(c.Pins))
	for i := range c.Pins {
		pins[i] = c.Pins[i].Name
	}
	sort.Strings(pins)
	for _, name := range pins {
		p := c.Pin(name)
		h.str(p.Name)
		h.int(int64(p.Dir))
		h.int(int64(p.Role))
	}
	type arcKey struct {
		from, to string
		sense    celllib.Sense
	}
	arcs := make([]arcKey, len(c.Arcs))
	for i, a := range c.Arcs {
		arcs[i] = arcKey{a.From, a.To, a.Sense}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].from != arcs[j].from {
			return arcs[i].from < arcs[j].from
		}
		if arcs[i].to != arcs[j].to {
			return arcs[i].to < arcs[j].to
		}
		return arcs[i].sense < arcs[j].sense
	})
	for _, a := range arcs {
		h.str(a.from)
		h.str(a.to)
		h.int(int64(a.sense))
	}
	if c.Sync != nil {
		h.int(int64(c.Sync.Dsetup))
		h.int(int64(c.Sync.Ddz))
		h.int(int64(c.Sync.Dcz))
		if c.Sync.ActiveLow {
			h.int(1)
		} else {
			h.int(0)
		}
	}
	return uint64(h)
}

// StateHash identifies the engine's full analysis state: the canonical
// netlist text plus the cumulative delay adjustments. Two engines with
// equal state hashes produce identical reports, which is what lets
// hummingbirdd key its cache of parked analysis states on it.
func (e *Engine) StateHash() string {
	return StateKey(e.design, e.opts.Adjustments)
}

// StateKey computes the analysis-state hash for a design + adjustments
// pair without building an engine — servers use it to probe their cache
// before paying for a full elaboration.
func StateKey(d *netlist.Design, adjustments map[string]clock.Time) string {
	h := sha256.New()
	netlist.Write(h, d)
	names := make([]string, 0, len(adjustments))
	for n := range adjustments {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "adjust %s %d\n", n, int64(adjustments[n]))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
