package incremental

import (
	"context"
	"testing"

	"hummingbird/internal/clock"
)

// TestDelayEditAllocs is the allocation-regression guard for incremental
// edit application: a steady-state delay-only ApplyContext — the call
// hummingbirdd and the benchmark's edit loop make — must stay within a
// handful of allocations — the fresh Result and Report handed to the caller
// (three for the result clone, one backing per dirty cluster's pass
// details, the report and outcome structs) and nothing per-arc, per-net or
// per-pass. The engine's scratch maps, undo log, dirty-cluster ids and
// spare base buffer are all reused across edits; a regression here (a
// per-call map, a second base clone, sort.Slice garbage) trips the guard.
func TestDelayEditAllocs(t *testing.T) {
	eng := openPipe(t)
	ctx := context.Background()
	delta := clock.Time(100)
	apply := func() {
		out, err := eng.ApplyContext(ctx, Edit{Op: Adjust, Inst: "g2", Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Incremental {
			t.Fatal("adjust fell back to full analysis")
		}
		delta = -delta
	}
	// Warm: first edit unshares nothing here but grows the scratch
	// structures and the spare buffer to steady-state size.
	apply()
	apply()

	allocs := testing.AllocsPerRun(50, apply)
	const limit = 10
	if allocs > limit {
		t.Fatalf("delay-only ApplyContext allocates %.1f times per run, limit %d", allocs, limit)
	}
}
