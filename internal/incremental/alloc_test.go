package incremental

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/workload"
)

// TestDelayEditAllocs is the allocation-regression guard for incremental
// edit application: a steady-state delay-only ApplyContext — the call
// hummingbirdd and the benchmark's edit loop make — must stay within a
// handful of allocations — two result clones (the patched base and the
// working result handed to the caller, two each), one segment per
// re-analyzed cluster, the report and outcome structs — and nothing
// per-arc, per-net or per-pass. The engine's scratch maps, undo log and
// dirty-cluster ids are reused across edits; a regression here (a
// per-call map, a third result clone, sort.Slice garbage) trips the guard.
// On the SoC every edit's fixed point moves 263 offsets and re-dirties the
// clusters around them; the replay reuses those from the previous fixed
// point, so re-analyzing them (one segment each) trips it too. The SoC row
// also bounds the bytes an edit allocates: 1.5× two segment slices (one
// header per cluster) plus the edited cluster's two fresh segments (its
// kernel runs in the base, then in the first sweep). Clones share
// segments, so copying slacks — a whole-result copy — trips it.
func TestDelayEditAllocs(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (*Engine, string)
		// boundBytes bounds the bytes one edit allocates.
		boundBytes bool
	}{
		{"pipe", func(t *testing.T) (*Engine, string) { return openPipe(t), "g2" }, false},
		{"soc", func(t *testing.T) (*Engine, string) {
			d, err := workload.SoC(8, 8, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := Open(celllib.Default(), d, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range d.Instances {
				if eng.delayLocal(inst.Name) {
					return eng, inst.Name
				}
			}
			t.Fatal("no delay-local instance")
			return nil, ""
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, inst := tc.open(t)
			ctx := context.Background()
			delta := clock.Time(100)
			apply := func() {
				out, err := eng.ApplyContext(ctx, Edit{Op: Adjust, Inst: inst, Delta: delta})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Incremental {
					t.Fatal("adjust fell back to full analysis")
				}
				delta = -delta
			}
			// Warm: the first edits grow the scratch structures to
			// steady-state size.
			apply()
			apply()

			allocs := testing.AllocsPerRun(50, apply)
			const limit = 10
			if allocs > limit {
				t.Fatalf("delay-only ApplyContext allocates %.1f times per run, limit %d", allocs, limit)
			}
			if !tc.boundBytes {
				return
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				apply()
			}
			runtime.ReadMemStats(&after)
			perEdit := (after.TotalAlloc - before.TotalAlloc) / runs
			cd := eng.CompiledDesign()
			word := uint64(unsafe.Sizeof(clock.Time(0)))
			segs := 2 * uint64(len(cd.CC)) * uint64(unsafe.Sizeof([]clock.Time(nil)))
			// A segment: the minimum, one slot per net and terminal, and
			// four detail vectors per pass.
			cc := cd.CC[eng.arcsByInst[inst][0].cluster]
			n := len(cc.Nets)
			fresh := 2 * uint64(1+n+len(cc.Inputs)+len(cc.Outputs)+4*n*cc.Plan.Passes()) * word
			t.Logf("%d B per edit; two segment slices: %d B; the edited cluster's two segments: %d B", perEdit, segs, fresh)
			if limit := (segs + fresh) * 3 / 2; perEdit > limit {
				t.Fatalf("delay-only ApplyContext allocates %d B per run, limit %d B", perEdit, limit)
			}
		})
	}
}
