package incremental

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// sweepStep is what the oracle compares of one sweep: its iteration,
// index, moved count and worst slack. Recomputed counts and times differ
// by mode by design.
type sweepStep struct {
	iter  string
	k     int
	moved int
	worst int64
}

func steps(evs []telemetry.SweepEvent) []sweepStep {
	out := make([]sweepStep, len(evs))
	for i, ev := range evs {
		out[i] = sweepStep{ev.Iteration, ev.Sweep, ev.Moved, ev.WorstSlackPs}
	}
	return out
}

// answer is one analysis mode's outcome: Algorithm 1's report bytes,
// sweep counts, per-sweep trajectory and final offsets, and Algorithm 2's
// recorded times, snatch counts and trajectory. A run that does not
// converge answers the iteration it gave up in and its trailing sweeps.
type answer struct {
	report          []byte
	fwd, bwd        int
	sweeps          []sweepStep
	odz             []clock.Time
	ready, required []sta.PassDetail
	snB, snF        int
	snatches        []sweepStep
	failed          string
}

func answerOf(t *testing.T, a *core.Analyzer, rep *core.Report, repErr error, cons func() (*core.Constraints, error)) answer {
	t.Helper()
	var nc *core.NonConvergenceError
	if errors.As(repErr, &nc) {
		return answer{failed: fmt.Sprintf("%s %v", nc.Iteration, steps(nc.Trail))}
	}
	if repErr != nil {
		t.Fatal(repErr)
	}
	// The encoded report carries the trajectory, recomputed counts and
	// times included; those are compared as steps.
	bare := *rep
	bare.Trajectory = nil
	ans := answer{report: encodeReport(t, a, &bare), fwd: rep.ForwardSweeps, bwd: rep.BackwardSweeps, sweeps: steps(rep.Trajectory), odz: slices.Clone(a.St.Odz)}
	c, err := cons()
	if errors.As(err, &nc) {
		ans.failed = fmt.Sprintf("constraints: %s %v", nc.Iteration, steps(nc.Trail))
		return ans
	}
	if err != nil {
		t.Fatal(err)
	}
	ans.ready, ans.required, ans.snB, ans.snF, ans.snatches = c.Ready, c.Required, c.BackwardSnatches, c.ForwardSnatches, steps(c.Trajectory)
	return ans
}

// freshAnswer analyzes a fresh core.Load of d, with every sweep visiting
// every element and re-analyzing every cluster when full is set.
func freshAnswer(t *testing.T, d *netlist.Design, opts core.Options, full bool) answer {
	t.Helper()
	opts.FullSweeps = full
	a, err := core.Load(celllib.Default(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	return answerOf(t, a, rep, err, a.GenerateConstraints)
}

// TestSweepReplayMatchesFullSweeps is the oracle of the sweep rule. Its
// failing designs are seeded SoCs and latch pipelines with their clocks
// scaled to 20–30%, where Algorithm 1 runs up to hundreds of sweeps. At
// their nominal clocks, SoC(8, 8, 4, 3)'s runs take one sweep, so each
// edit's run starts in place from the previous run's end state, and
// SoC(4, 2, 1, 2)'s, pipe0's and flops+pipe's take none. Where slowing a
// gate makes a run need one sweep (on the pipelines), the first edit does
// so and the last of the script puts it back, so that a run that replays
// no sweep follows a one-sweep run; in between, runs nudging a gate of
// another cluster replay the sweep in place. On flops+pipe that gate's
// cluster is bounded by flip-flops, which no transfer moves, so the
// stale cluster is one the sweep leaves clean. A fresh run (each
// sweep after an iteration's first visits only what the sweep before
// changed) and an engine's run after every edit of a random delay-edit
// sequence (each sweep replays the previous edit's) must match an
// analysis whose every sweep visits every element and re-analyzes every
// cluster (Options.FullSweeps): the same report bytes, sweep counts,
// per-sweep moved counts and worst slacks, final offsets, and
// constraints. An edit the
// fixed point cannot settle must fail alike in all modes. About half the
// edits follow one cancelled partway through, which must leave nothing
// behind.
func TestSweepReplayMatchesFullSweeps(t *testing.T) {
	type design struct {
		name string
		d    *netlist.Design
	}
	var designs []design
	add := func(name string, d *netlist.Design, err error, pct int64) {
		if err != nil {
			t.Fatal(err)
		}
		if d, err = core.ScaleClocks(d, pct, 100); err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{fmt.Sprintf("%s@%d%%", name, pct), d})
	}
	for _, c := range []struct {
		blocks, depth, domains int
		seed, pct              int64
	}{
		{1, 1, 1, 2, 20}, {2, 1, 2, 1, 20}, {2, 2, 2, 1, 20}, {3, 1, 2, 3, 20},
		{3, 3, 1, 0, 20}, {4, 2, 1, 2, 20}, {2, 2, 2, 1, 25}, {3, 1, 2, 3, 30}, {8, 8, 4, 3, 22},
		{8, 8, 4, 3, 100}, {4, 2, 1, 2, 100},
	} {
		d, err := workload.SoC(c.blocks, c.depth, c.domains, c.seed)
		add(fmt.Sprintf("SoC(%d,%d,%d,%d)", c.blocks, c.depth, c.domains, c.seed), d, err, c.pct)
	}
	pipe := func(seed int64) (*netlist.Design, error) {
		return workload.Pipeline(workload.PipeConfig{
			Name: "pipe", Stages: 3 + int(seed)%3, Width: 2 + int(seed)%3, Depth: 1 + int(seed)%3,
			Latch: "DLATCH_X1", Seed: seed, Period: clock.Time(10+seed) * clock.Ns, FastSecondClock: seed%2 == 1,
		})
	}
	for seed := int64(0); seed < 6; seed++ {
		d, err := pipe(seed)
		add(fmt.Sprintf("pipe%d", seed), d, err, 30-2*seed)
	}
	d, err := pipe(0)
	add("pipe0", d, err, 100)
	d, err = netlist.ParseString(flopsPipeSrc)
	add("flops+pipe", d, err, 100)

	edits := 6
	if testing.Short() {
		edits = 2
	}
	lib := celllib.Default()
	swept := 0
	// Runs after a one-sweep run: those that replay its sweep in place,
	// and those that replay none.
	inPlace, inPlaceNone := 0, 0
	for i, tc := range designs {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Trace = telemetry.NewTracer(io.Discard)
			eng, err := Open(lib, tc.d, opts)
			var nc *core.NonConvergenceError
			if errors.As(err, &nc) {
				if want := freshAnswer(t, tc.d, opts, true); want.failed == "" {
					t.Fatalf("the engine's open fails in %s; the full-sweep oracle converges", nc.Iteration)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// A design whose open run takes no sweep first gets an
			// adjust that needs one, if it has one, and its reverse last.
			// In between, a gate of another cluster is nudged and put
			// back: those runs replay the one sweep in place, and the
			// nudged cluster, stale, need not be dirtied by it.
			var script []Edit
			if len(eng.Report().Trajectory) == 0 {
				if ed, ok := sweepingAdjust(t, tc.d, opts); ok {
					script = []Edit{ed}
					if other := otherClusterGate(eng, ed.Inst); other != "" {
						script = append(script, Edit{Op: Adjust, Inst: other, Delta: 50}, Edit{Op: Adjust, Inst: other, Delta: -50})
					}
					script = append(script, Edit{Op: Adjust, Inst: ed.Inst, Delta: -ed.Delta})
				}
			}
			rng := rand.New(rand.NewSource(int64(i)))
			prevSweeps := -1
			for e := 0; e <= max(edits, len(script)); e++ {
				step := "open"
				if e > 0 {
					if rng.Intn(2) == 0 {
						// A batch cancelled partway leaves the engine,
						// and the run the next edit replays, as they were.
						ed := delayEdit(rng, eng)
						ctx := &countdownCtx{Context: context.Background(), k: rng.Intn(12)}
						if _, err := eng.ApplyContext(ctx, ed); err != nil && !errors.Is(err, context.Canceled) && !errors.As(err, &nc) {
							t.Fatalf("edit %d, cancelled: %v", e, err)
						}
					}
					ed := delayEdit(rng, eng)
					if e <= len(script) {
						ed = script[e-1]
					}
					step = fmt.Sprintf("edit %d (%s %s)", e, ed.Op, ed.Inst)
					if _, err := eng.Apply(ed); err != nil && !errors.As(err, &nc) {
						t.Fatalf("%s: %v", step, err)
					}
				}
				a := eng.Analyzer()
				got := answerOf(t, a, eng.Report(), nil, eng.Constraints)
				fresh := freshAnswer(t, eng.Design(), eng.Options(), false)
				full := freshAnswer(t, eng.Design(), eng.Options(), true)
				if !reflect.DeepEqual(fresh, full) {
					t.Fatalf("%s: a fresh run differs from the full-sweep oracle:\n%v\n%v", step, summary(fresh), summary(full))
				}
				if !reflect.DeepEqual(got, full) {
					t.Fatalf("%s: the engine differs from the full-sweep oracle:\n%v\n%v", step, summary(got), summary(full))
				}
				swept += len(got.sweeps)
				switch {
				case prevSweeps != 1 || got.failed != "":
				case len(got.sweeps) > 0:
					inPlace++
				default:
					inPlaceNone++
				}
				prevSweeps = len(got.sweeps)
				if got.failed != "" {
					prevSweeps = -1
				}
			}
		})
	}
	if swept < 1000 {
		t.Errorf("the designs ran %d sweeps in all; too few for the failing regime", swept)
	}
	if inPlace == 0 || inPlaceNone == 0 {
		t.Errorf("after one-sweep runs, %d runs replayed the sweep in place and %d replayed none; want some of each", inPlace, inPlaceNone)
	}
}

// flopsPipeSrc is pipeSrc behind a flip-flop stage, first in design
// order, whose cluster (h1) no slack transfer reaches.
const flopsPipeSrc = `
design flopspipe
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
input FIN clock phi1 edge rise offset 0
output OUT clock phi2 edge fall offset -0.5ns
output FOUT clock phi1 edge rise offset -0.5ns
inst f1 DFF_X1 D=FIN CK=phi1 Q=fq1
inst h1 INV_X1 A=fq1 Y=fn1
inst f2 DFF_X1 D=fn1 CK=phi1 Q=fq2
inst h2 BUF_X1 A=fq2 Y=FOUT
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`

// otherClusterGate returns the first delay-local gate, in design order,
// whose arcs lie in no cluster of gate's, or "".
func otherClusterGate(eng *Engine, gate string) string {
	mine := map[int32]bool{}
	for _, r := range eng.byInst.of(eng.instIdx[gate]) {
		mine[r.cluster] = true
	}
	for _, inst := range eng.Design().Instances {
		refs := eng.byInst.of(eng.instIdx[inst.Name])
		if !eng.delayLocal(inst.Name) || len(refs) == 0 {
			continue
		}
		if !slices.ContainsFunc(refs, func(r arcRef) bool { return mine[r.cluster] }) {
			return inst.Name
		}
	}
	return ""
}

// sweepingAdjust returns an adjust after which an engine open on d runs
// exactly one sweep: the first combinational gate, in design order, that
// needs one when slowed by 1, 2, 4 or 8 ns. It reports false if none
// does.
func sweepingAdjust(t *testing.T, d *netlist.Design, opts core.Options) (Edit, bool) {
	t.Helper()
	probe, err := Open(celllib.Default(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range d.Instances {
		if !probe.delayLocal(inst.Name) {
			continue
		}
		for _, delta := range []clock.Time{1, 2, 4, 8} {
			ed := Edit{Op: Adjust, Inst: inst.Name, Delta: delta * clock.Ns}
			_, err := probe.Apply(ed)
			if err == nil && len(probe.Report().Trajectory) == 1 {
				return ed, true
			}
			if err == nil {
				if _, err := probe.Apply(Edit{Op: Adjust, Inst: inst.Name, Delta: -ed.Delta}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return Edit{}, false
}

// delayEdit draws a delay-only edit: an adjust of a combinational gate by
// ±50..200ps, or a drive-strength resize of one.
func delayEdit(rng *rand.Rand, eng *Engine) Edit {
	name := randomCombInst(rng, eng)
	if rng.Intn(3) == 0 {
		if to := resizeAlternative(eng, eng.Instance(name).Ref); to != "" {
			return Edit{Op: Resize, Inst: name, To: to}
		}
	}
	delta := clock.Time(1+rng.Intn(4)) * 50
	if rng.Intn(2) == 0 {
		delta = -delta
	}
	return Edit{Op: Adjust, Inst: name, Delta: delta}
}

func summary(a answer) string {
	if a.failed != "" {
		return "failed: " + a.failed
	}
	return fmt.Sprintf("%d report bytes, %d forward and %d backward sweeps, %d snatches back and %d forward; sweeps %v",
		len(a.report), a.fwd, a.bwd, a.snB, a.snF, a.sweeps)
}
