package incremental

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
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
// sweep counts and per-sweep trajectory, and Algorithm 2's recorded times,
// snatch counts and trajectory. A run that does not converge answers the
// iteration it gave up in and its trailing sweeps.
type answer struct {
	report          []byte
	fwd, bwd        int
	sweeps          []sweepStep
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
	ans := answer{report: encodeReport(t, a, &bare), fwd: rep.ForwardSweeps, bwd: rep.BackwardSweeps, sweeps: steps(rep.Trajectory)}
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

// TestSweepReplayMatchesFullSweeps is the oracle of the sweep rule over
// failing designs: seeded SoCs and latch pipelines, with their clocks
// scaled to 20–30%, where Algorithm 1 runs up to hundreds of sweeps. A fresh run (each sweep after an
// iteration's first visits only what the sweep before changed) and an
// engine's run after every edit of a random delay-edit sequence (each
// sweep replays the previous edit's) must match an analysis whose every
// sweep visits every element and re-analyzes every cluster
// (Options.FullSweeps): the same report bytes, sweep counts, per-sweep
// moved counts and worst slacks, and constraints. An edit the fixed point
// cannot settle must fail alike in all modes. About half the edits
// follow one cancelled partway through, which must leave nothing behind.
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
	} {
		d, err := workload.SoC(c.blocks, c.depth, c.domains, c.seed)
		add(fmt.Sprintf("SoC(%d,%d,%d,%d)", c.blocks, c.depth, c.domains, c.seed), d, err, c.pct)
	}
	for seed := int64(0); seed < 6; seed++ {
		d, err := workload.Pipeline(workload.PipeConfig{
			Name: "pipe", Stages: 3 + int(seed)%3, Width: 2 + int(seed)%3, Depth: 1 + int(seed)%3,
			Latch: "DLATCH_X1", Seed: seed, Period: clock.Time(10+seed) * clock.Ns, FastSecondClock: seed%2 == 1,
		})
		add(fmt.Sprintf("pipe%d", seed), d, err, 30-2*seed)
	}

	edits := 6
	if testing.Short() {
		edits = 2
	}
	lib := celllib.Default()
	swept := 0
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
			rng := rand.New(rand.NewSource(int64(i)))
			for e := 0; e <= edits; e++ {
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
			}
		})
	}
	if swept < 1000 {
		t.Errorf("the designs ran %d sweeps in all; too few for the failing regime", swept)
	}
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
