package core

import (
	"runtime"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

// TestLoadAllocs bounds what one elaboration allocates per leaf cell:
// validation, the name binding, delay calculation, cluster extraction and
// compilation of the SoC workload through Load. Each name is resolved once
// and every later stage indexes slices, so a per-instance map, slice or
// formatted label creeping back into any stage trips it.
func TestLoadAllocs(t *testing.T) {
	d, err := workload.SoC(8, 8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	lib := celllib.Default()
	if _, err := Load(lib, d, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Load(lib, d, DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	cells := float64(a.Design.CellStats(lib).Cells)
	allocs := float64(after.Mallocs-before.Mallocs) / cells
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cells
	t.Logf("%.0f cells: %.1f allocs/cell, %.0f B/cell", cells, allocs, bytes)
	// Measured at 4.5–4.6 allocations and 1,005 B per cell (4.6 and 1,022
	// under the race detector); the budget holds about 18% over that. A
	// per-instance map in any stage costs several allocations and hundreds
	// of bytes per cell on its own.
	const maxAllocs, maxBytes = 5.4, 1200
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("Load allocates %.1f times and %.0f B per cell; budget %.1f and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestCellCountsMatchCellStats holds the analyzer's cell and latch counts,
// read from the binding, to Design.CellStats against the resolved library
// on flat and hierarchical designs: SM1H's module instances count as one
// rolled-up cell each.
func TestCellCountsMatchCellStats(t *testing.T) {
	for _, c := range []struct {
		name   string
		design func() (*netlist.Design, error)
	}{
		{"DES", workload.DES},
		{"DES gated", workload.DESGated},
		{"ALU", workload.ALU},
		{"SM1F", func() (*netlist.Design, error) { return workload.SM1F(), nil }},
		{"SM1H", func() (*netlist.Design, error) { return workload.SM1H(), nil }},
		{"SoC(4, 4, 4, 3)", func() (*netlist.Design, error) { return workload.SoC(4, 4, 4, 3) }},
	} {
		d, err := c.design()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Load(celllib.Default(), d, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := d.CellStats(a.Lib)
		if a.Cells != want.Cells || a.Latches != want.Latches {
			t.Errorf("%s: %d cells, %d latches, CellStats gives %d and %d", c.name, a.Cells, a.Latches, want.Cells, want.Latches)
		}
		if shared := LoadCompiled(a.CD, d, DefaultOptions()); shared.Cells != a.Cells || shared.Latches != a.Latches {
			t.Errorf("%s: a shared analyzer counts %d cells and %d latches, want %d and %d", c.name, shared.Cells, shared.Latches, a.Cells, a.Latches)
		}
	}
}
