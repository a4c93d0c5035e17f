package incremental

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
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
// clusters around them; the replay of the previous edit's run takes their
// segments from it, so re-analyzing them (one segment each) trips it too.
// The engine's two trajectory records swap buffers, so recording the run
// allocates nothing once they have grown: a record reallocated per edit
// trips it as well. The SoC row
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
			cc := cd.CC[eng.byInst.of(eng.instIdx[inst])[0].cluster]
			n := len(cc.Nets)
			fresh := 2 * uint64(1+n+len(cc.Inputs)+len(cc.Outputs)+4*n*cc.Plan.Passes()) * word
			t.Logf("%d B per edit; two segment slices: %d B; the edited cluster's two segments: %d B", perEdit, segs, fresh)
			if limit := (segs + fresh) * 3 / 2; perEdit > limit {
				t.Fatalf("delay-only ApplyContext allocates %d B per run, limit %d B", perEdit, limit)
			}
		})
	}
}

// TestTopologyEditAllocs is the allocation-regression guard for topology
// batches: one DES batch that adds a buffer and removes it again — the
// served edit_topo — re-elaborates, and must cost about what one core.Load
// plus Algorithm 1 allocates (~6,600 allocations, 3.2 MB), with room to
// spare but not for work that grows with the design: at most 25,000
// allocations and 6 MB. Deep-copying every instance's Conns map, rehashing
// the topology checksum over every instance or filing arcs in name-keyed
// maps (110,000 allocations and 7.7 MB together) trips it.
func TestTopologyEditAllocs(t *testing.T) {
	d, err := workload.DES()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var net string
	for _, inst := range d.Instances {
		if eng.delayLocal(inst.Name) {
			net = inst.Conns[eng.Analyzer().Lib.Cell(inst.Ref).Outputs()[0]]
			break
		}
	}
	apply := func() {
		out, err := eng.Apply(
			Edit{Op: AddInst, New: &netlist.Instance{Name: "tap", Ref: "BUF_X1", Conns: map[string]string{"A": net, "Y": "tap_y"}}},
			Edit{Op: RemoveInst, Inst: "tap"})
		if err != nil {
			t.Fatal(err)
		}
		if out.Incremental {
			t.Fatal("topology batch took the incremental path")
		}
	}
	apply()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, apply)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d B per topology batch", allocs, perBatch)
	const allocLimit, byteLimit = 25_000, 6_000_000
	if allocs > allocLimit {
		t.Errorf("a DES topology batch allocates %.0f times, limit %d", allocs, allocLimit)
	}
	if perBatch > byteLimit {
		t.Errorf("a DES topology batch allocates %d B, limit %d B", perBatch, byteLimit)
	}
}
