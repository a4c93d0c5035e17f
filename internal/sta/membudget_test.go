package sta

import (
	"testing"
	"unsafe"

	"hummingbird/internal/cluster"
	"hummingbird/internal/workload"
)

// memBudgetBytesPerCell pins the steady-state footprint of the analysis
// engine: the compiled design (shared CSR arc backing and its cold source
// table, per-cluster index arrays, net→cluster tables, the name binding,
// the result layout's element owner tables, level schedule) plus one
// analysis state (offset vector, dirty bitset, one scratch arena), per
// leaf cell, on the 100k-cell SoC grid. The value holds ~30%
// headroom over the measured figure (236 B/cell) so it trips on a
// representation regression — strings back in the arc, a duplicated arc
// backing, a per-arc map, per-cluster level copies — not on layout
// jitter.
const memBudgetBytesPerCell = 315

// compiledFootprint sums the backing arrays of the compiled design and
// analysis state. Heap deltas cannot measure this: Compile rebinds the
// source clusters onto its shared arc backing and frees their originals,
// so explicit accounting is the stable measurement.
func compiledFootprint(cd *cluster.CompiledDesign, st *AnalysisState) int64 {
	var total int64
	slice := func(n, elem int) { total += int64(24 + n*elem) }
	slice(len(cd.Arcs), int(unsafe.Sizeof(cluster.Arc{})))
	slice(len(cd.Src), int(unsafe.Sizeof(cluster.ArcSource{})))
	// The binding: the net table's string headers (the names themselves
	// belong to the design), the name index — estimated as swiss-table
	// slots of key, value and control byte at the 7/8 maximum load — the
	// per-instance cells and the pin CSR; then the network's net→cluster
	// tables.
	b := cd.Calc.Binding()
	slice(len(b.Nets), 16)
	total += int64(len(b.NetIdx)) * 8 / 7 * (16 + 8 + 1)
	slice(len(b.Cells), 8)
	slice(len(b.PinStart), 4)
	slice(len(b.PinNet), 4)
	slice(len(cd.NetCluster), 4)
	slice(len(cd.NetLocal), 4)
	for _, cc := range cd.CC {
		total += int64(unsafe.Sizeof(*cc))
		for _, s := range [][]int32{cc.OrderLocal, cc.ArcStart, cc.ArcIdx,
			cc.ToLocal, cc.InLocal, cc.OutLocal} {
			slice(len(s), 4)
		}
	}
	// The result layout: the four element owner tables (one backing) and
	// each cluster's nets and breaks headers; the net tables are the
	// network's, counted above.
	lay := cd.Layout
	total += int64(unsafe.Sizeof(*lay))
	slice(4*len(lay.InCluster), 4)
	slice(len(lay.Nets), 24)
	slice(len(lay.Breaks), 24)
	slice(len(cd.InitialOdz), 8)
	slice(len(cd.Level), 4)
	slice(len(cd.LevelStart), 4)
	slice(len(cd.LevelOrder), 4)
	slice(len(st.Odz), 8)
	slice(len(st.dirty), 8)
	slice(4*cd.MaxClusterNets, 8) // one pooled scratch arena
	return total
}

// TestCompiledMemoryPerCellBudget builds the 100k-cell SoC, compiles it
// and allocates an analysis state, and holds the engine's bytes per leaf
// cell under the pinned budget. CI runs this on every push.
func TestCompiledMemoryPerCellBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-cell build in -short mode")
	}
	d := mustGen(workload.SoCCells(100_000, 1))
	nw := buildWorkload(t, d)
	cells := len(d.Instances) // flat design: every instance is a leaf cell
	cd := cluster.Compile(nw)
	st := NewState(cd)

	live := compiledFootprint(cd, st)
	perCell := live / int64(cells)
	t.Logf("%d cells, %d clusters, %d levels, %d arcs: %d bytes, %d B/cell (budget %d)",
		cells, len(cd.CC), cd.NumLevels(), len(cd.Arcs), live, perCell, memBudgetBytesPerCell)
	if perCell > memBudgetBytesPerCell {
		t.Fatalf("compiled design + analysis state = %d B/cell, budget %d B/cell", perCell, memBudgetBytesPerCell)
	}
}
