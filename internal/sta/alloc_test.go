package sta

import (
	"context"
	"testing"

	"hummingbird/internal/cluster"
	"hummingbird/internal/workload"
)

// TestRecomputeAllocs is the allocation-regression guard for the hot
// incremental path: a steady-state RecomputeContext of one dirty cluster —
// the inline path every small incremental sweep takes — must stay within a
// handful of allocations: the recomputed cluster's fresh segment, nothing
// else. The dirty bitset and the scratch arenas are reused state; a
// regression here (a per-call map, a per-pass make, a sort.Slice closure)
// shows up immediately.
func TestRecomputeAllocs(t *testing.T) {
	nw := buildWorkload(t, mustGen(workload.ALU()))
	cd := cluster.Compile(nw)
	st := NewState(cd)
	res := Analyze(cd, st)
	ids := []int{0}
	ctx := context.Background()
	recompute := func() {
		if err := RecomputeContext(ctx, cd, st, res, ids, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pooled scratch so the measurement sees steady state.
	recompute()

	allocs := testing.AllocsPerRun(50, recompute)
	// One segment per recomputed cluster (it escapes into the result),
	// plus margin for an occasional pool refill after GC.
	const limit = 3
	if allocs > limit {
		t.Fatalf("RecomputeContext allocates %.1f times per run, limit %d", allocs, limit)
	}
}
