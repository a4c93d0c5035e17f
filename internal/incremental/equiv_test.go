package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// TestEquivalenceRandomEdits drives a randomized edit sequence over every
// workload and, after each edit, asserts that the engine's Report and
// Constraints deep-equal a from-scratch core.Load + IdentifySlowPaths +
// GenerateConstraints at the same cumulative options — the incremental
// path must be observationally identical to full re-analysis.
func TestEquivalenceRandomEdits(t *testing.T) {
	infallible := func(mk func() *netlist.Design) func() (*netlist.Design, error) {
		return func() (*netlist.Design, error) { return mk(), nil }
	}
	cases := []struct {
		name  string
		build func() (*netlist.Design, error)
		edits int
		// replay: the fixed point moves offsets on every delay edit, so
		// its run must replay the previous edit's sweeps.
		replay bool
	}{
		{"Figure1", infallible(workload.Figure1), 8, false},
		{"SM1F", infallible(workload.SM1F), 8, false},
		{"SM1H", infallible(workload.SM1H), 8, false},
		{"ALU", workload.ALU, 6, false},
		{"DES", workload.DES, 4, false},
		{"SoC", func() (*netlist.Design, error) { return workload.SoC(8, 8, 4, 3) }, 8, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			edits := tc.edits
			if testing.Short() {
				edits = 2
			}
			var replayed0 int64
			if tc.replay {
				telemetry.Enable()
				t.Cleanup(telemetry.Disable)
				replayed0 = replayedSweeps()
			}
			lib := celllib.Default()
			d, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := Open(lib, d, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			var added []string
			incr, full := 0, 0
			for i := 0; i < edits; i++ {
				ed := randomEdit(rng, eng, &added)
				out, err := eng.Apply(ed)
				if err != nil {
					t.Fatalf("edit %d (%s %s): %v", i, ed.Op, ed.Inst, err)
				}
				if out.Incremental {
					incr++
				} else {
					full++
				}
				verifyAgainstScratch(t, lib, eng, fmt.Sprintf("edit %d (%s)", i, ed.Op))
			}
			if incr == 0 {
				t.Errorf("randomized sequence never exercised the incremental path (%d full)", full)
			}
			if tc.replay && replayedSweeps() == replayed0 {
				t.Errorf("%d incremental edits replayed no sweep of the previous run", incr)
			}
			t.Logf("%s: %d incremental, %d full-rebuild edits", tc.name, incr, full)
		})
	}
}

// replayedSweeps reads the core.sweeps_replayed counter (telemetry must be
// enabled for it to count).
func replayedSweeps() int64 { return telemetry.Snapshot().Counters["core.sweeps_replayed"] }

// verifyAgainstScratch loads the engine's current design from scratch with
// its cumulative options and deep-compares both algorithms' outputs; the
// engine's running topology checksum must equal a full rehash.
func verifyAgainstScratch(t *testing.T, lib *celllib.Library, eng *Engine, ctx string) {
	t.Helper()
	checkChecksum(t, eng, ctx)
	a, err := core.Load(lib, eng.Design(), eng.Options())
	if err != nil {
		t.Fatalf("%s: scratch load: %v", ctx, err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatalf("%s: scratch analysis: %v", ctx, err)
	}
	if !reflect.DeepEqual(eng.Report(), rep) {
		t.Fatalf("%s: incremental report diverges from scratch (worst slack %v vs %v)",
			ctx, eng.Report().WorstSlack(), rep.WorstSlack())
	}
	cons, err := eng.Constraints()
	if err != nil {
		t.Fatalf("%s: engine constraints: %v", ctx, err)
	}
	cons2, err := a.GenerateConstraints()
	if err != nil {
		t.Fatalf("%s: scratch constraints: %v", ctx, err)
	}
	if !reflect.DeepEqual(cons, cons2) {
		t.Fatalf("%s: incremental constraints diverge from scratch", ctx)
	}
}

// checkChecksum asserts that the engine's topology checksum, hashed in
// full at open and shifted by every batch since, equals a full rehash of
// its current design against its analyzer's library.
func checkChecksum(t *testing.T, eng *Engine, ctx string) {
	t.Helper()
	if want := TopologyChecksum(eng.Design(), eng.Analyzer().Lib); eng.topo != want {
		t.Fatalf("%s: running topology checksum %#x, a full rehash gives %#x", ctx, eng.topo, want)
	}
}

// randomEdit picks a design change: mostly delay-only edits (adjustments,
// drive resizes), sometimes structural ones (add a buffer tap, remove one
// added earlier) so both engine paths and the add/remove round trip get
// exercised.
func randomEdit(rng *rand.Rand, eng *Engine, added *[]string) Edit {
	d := eng.Design()
	switch k := rng.Intn(6); {
	case k <= 2: // adjust a random combinational instance
		name := randomCombInst(rng, eng)
		delta := clock.Time((rng.Intn(9) - 4) * 50)
		if delta == 0 {
			delta = 50
		}
		return Edit{Op: Adjust, Inst: name, Delta: delta}
	case k == 3: // drive-strength resize, if an alternative exists
		for tries := 0; tries < 8; tries++ {
			name := randomCombInst(rng, eng)
			cur := d.Instances[eng.instIdx[name]].Ref
			if to := resizeAlternative(eng, cur); to != "" {
				return Edit{Op: Resize, Inst: name, To: to}
			}
		}
		return Edit{Op: Adjust, Inst: randomCombInst(rng, eng), Delta: 100}
	case k == 4: // add a buffer tapping a random data net
		src := randomDataNet(rng, eng)
		name := fmt.Sprintf("zz_tap%d", len(*added))
		*added = append(*added, name)
		return Edit{Op: AddInst, New: &netlist.Instance{
			Name: name, Ref: "BUF_X1",
			Conns: map[string]string{"A": src, "Y": name + "_out"},
		}}
	default: // remove a previously added tap, else adjust
		if len(*added) > 0 {
			name := (*added)[len(*added)-1]
			*added = (*added)[:len(*added)-1]
			return Edit{Op: RemoveInst, Inst: name}
		}
		return Edit{Op: Adjust, Inst: randomCombInst(rng, eng), Delta: -100}
	}
}

// randomCombInst picks an instance whose resolved cell is combinational
// (library gates and rolled-up module super-cells alike).
func randomCombInst(rng *rand.Rand, eng *Engine) string {
	d := eng.Design()
	lib := eng.Analyzer().Lib
	for {
		inst := &d.Instances[rng.Intn(len(d.Instances))]
		if c := lib.Cell(inst.Ref); c != nil && !c.IsSync() {
			return inst.Name
		}
	}
}

// randomDataNet picks the output net of a random combinational instance —
// guaranteed to be a data net (never a clock cone).
func randomDataNet(rng *rand.Rand, eng *Engine) string {
	d := eng.Design()
	lib := eng.Analyzer().Lib
	for {
		inst := &d.Instances[rng.Intn(len(d.Instances))]
		c := lib.Cell(inst.Ref)
		if c == nil || c.IsSync() {
			continue
		}
		for _, out := range c.Outputs() {
			if net, ok := inst.Conns[out]; ok {
				return net
			}
		}
	}
}

// resizeAlternative returns a different library cell with the same
// interface as ref (the drive-strength ladder), or "".
func resizeAlternative(eng *Engine, ref string) string {
	lib := eng.Analyzer().Lib
	cur := lib.Cell(ref)
	if cur == nil || cur.IsSync() {
		return ""
	}
	for _, name := range lib.Names() {
		if name == ref {
			continue
		}
		if c := lib.Cell(name); c != nil && sameInterface(cur, c) {
			// Full rebuilds validate against the base library, so the
			// target must exist there too.
			if eng.lib.Cell(name) != nil {
				return name
			}
		}
	}
	return ""
}

// TestEquivalenceAfterFailedEdit checks that a rejected edit perturbs
// nothing: the next analysis still matches scratch.
func TestEquivalenceAfterFailedEdit(t *testing.T) {
	lib := celllib.Default()
	eng, err := Open(lib, workload.Figure1(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Edit{Op: Adjust, Inst: "does_not_exist", Delta: 10}); err == nil {
		t.Fatal("edit on unknown instance succeeded")
	}
	name := randomCombInst(rand.New(rand.NewSource(1)), eng)
	if _, err := eng.Apply(Edit{Op: Adjust, Inst: name, Delta: 75}); err != nil {
		t.Fatal(err)
	}
	verifyAgainstScratch(t, lib, eng, "after failed edit")
}
