package incremental

import (
	"context"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/workload"
)

// TestDelayEditAllocs is the allocation-regression guard for incremental
// edit application: a steady-state delay-only ApplyContext — the call
// hummingbirdd and the benchmark's edit loop make — must stay within a
// handful of allocations — the fresh Result and Report handed to the caller
// (three for the result clone, one backing per re-analyzed cluster's pass
// details, the report and outcome structs) and nothing per-arc, per-net or
// per-pass. The engine's scratch maps, undo log, dirty-cluster ids and
// spare base buffer are all reused across edits; a regression here (a
// per-call map, a second base clone, sort.Slice garbage) trips the guard.
// On the SoC every edit's fixed point moves 263 offsets and re-dirties the
// clusters around them; the replay copies those from the previous fixed
// point, so re-analyzing them (one pass-detail backing each) trips it too.
func TestDelayEditAllocs(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (*Engine, string)
	}{
		{"pipe", func(t *testing.T) (*Engine, string) { return openPipe(t), "g2" }},
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
		}},
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
			// Warm: the first edits grow the scratch structures and the
			// spare buffer to steady-state size.
			apply()
			apply()

			allocs := testing.AllocsPerRun(50, apply)
			const limit = 10
			if allocs > limit {
				t.Fatalf("delay-only ApplyContext allocates %.1f times per run, limit %d", allocs, limit)
			}
		})
	}
}
