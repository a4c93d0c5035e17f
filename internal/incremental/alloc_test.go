package incremental

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/sta"
	"hummingbird/internal/workload"
)

// TestDelayEditAllocs is the allocation-regression guard for incremental
// edit application: a steady-state delay-only ApplyContext — the call
// hummingbirdd and the benchmark's edit loop make — must stay within a
// handful of allocations — the fresh Result and Report handed to the caller
// (three for the result clone, one backing per re-analyzed cluster's pass
// details, the report and outcome structs) and nothing per-arc, per-net or
// per-pass. The engine's scratch maps, undo log, dirty-cluster ids and the
// saved base clusters are all reused across edits; a regression here (a
// per-call map, a second result clone, sort.Slice garbage) trips the guard.
// On the SoC every edit's fixed point moves 263 offsets and re-dirties the
// clusters around them; the replay copies those from the previous fixed
// point, so re-analyzing them (one pass-detail backing each) trips it too.
// The SoC row also bounds the bytes an edit allocates: 1.5× one result's
// slack vectors and pass headers, plus the fresh pass details of the two
// kernel runs on the edited cluster (in the base, then in the first
// sweep). The working clone shares the write-once pass-detail vectors, so
// copying them again — or any other whole-result copy — trips it.
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
			result := uint64(2*len(cd.Elems)+len(cd.Nets))*word +
				uint64(cd.PassStart[len(cd.CC)])*uint64(unsafe.Sizeof(sta.PassDetail{}))
			c := eng.arcsByInst[inst][0].cluster
			kernel := 2 * 4 * uint64(len(cd.CC[c].Nets)) * uint64(cd.PassStart[c+1]-cd.PassStart[c]) * word
			t.Logf("%d B per edit; one result's slack vectors and pass headers: %d B; two kernel runs' pass details: %d B", perEdit, result, kernel)
			if limit := result*3/2 + kernel; perEdit > limit {
				t.Fatalf("delay-only ApplyContext allocates %d B per run, limit %d B", perEdit, limit)
			}
		})
	}
}
