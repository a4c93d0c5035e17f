package sta

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"hummingbird/internal/cluster"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// socFixture compiles a small SoC grid: wide levels, cross-chain edges,
// multiple clock domains and gated stages — the shape the level scheduler
// is built for, at a size -race can afford.
func socFixture(t *testing.T, blocks, depth, domains int, seed int64) *cluster.CompiledDesign {
	t.Helper()
	nw := buildWorkload(t, mustGen(workload.SoC(blocks, depth, domains, seed)))
	return cluster.Compile(nw)
}

// errCountdown is the cancel cause of countdownCtx.
var errCountdown = errors.New("countdown expired")

// countdownCtx cancels itself, with cause errCountdown, on its (k+1)th Err
// check: a deterministic way to land a cancellation at cluster k of a
// run, with workers already spread across the level order.
type countdownCtx struct {
	context.Context
	cancel context.CancelCauseFunc
	n      atomic.Int64
}

func newCountdown(k int) *countdownCtx {
	ctx, cancel := context.WithCancelCause(context.Background())
	c := &countdownCtx{Context: ctx, cancel: cancel}
	c.n.Store(int64(k))
	return c
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		c.cancel(errCountdown)
	}
	return c.Context.Err()
}

// moveOffsets shifts the offsets of a spread of elements until the
// clusters adjacent to them — the clusters a recompute must cover — number
// at least target, and returns those clusters in ascending id order.
func moveOffsets(t *testing.T, cd *cluster.CompiledDesign, st *AnalysisState, target int) []int {
	t.Helper()
	dirty := make([]bool, len(cd.CC))
	n := 0
	for e := 0; e < len(cd.Elems) && n < target; e += 7 {
		st.Odz[e] += 250
		for _, id := range []int32{cd.Layout.InCluster[e], cd.Layout.OutCluster[e]} {
			if id >= 0 && !dirty[id] {
				dirty[id] = true
				n++
			}
		}
	}
	if n < target {
		t.Fatalf("moving offsets dirtied %d clusters, want %d", n, target)
	}
	var ids []int
	for id, d := range dirty {
		if d {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestDriverEquivalence is the driver's equivalence table on the SoC grid:
// workers {1, 2, 8} × {full analysis, dirty set under the scheduler
// threshold, dirty set over it} × {run to completion, cancelled at cluster
// k}. A completed row must deep-equal the one-worker full analysis at the
// same offsets, pass details and their order included; a cancelled row
// must return the context's cause, leak no partial full analysis and
// leave the state usable. Every row also checks whether the scheduler ran:
// one worker, a small dirty set (the fallthrough) and a single-cluster
// design (SM1F) stay inline. Under -race this is the scheduler's main
// concurrency probe.
func TestDriverEquivalence(t *testing.T) {
	withProcs(t, 8)
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	bg := context.Background()

	cd := socFixture(t, 96, 8, 4, 0xD1)
	st := NewState(cd)
	base, err := AnalyzeContext(bg, cd, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	cd1 := cluster.Compile(buildWorkload(t, workload.SM1F()))
	if len(cd1.CC) != 1 {
		t.Fatalf("SM1F has %d clusters, want 1", len(cd1.CC))
	}
	scopes := []struct {
		name string
		st   *AnalysisState
		// dirty is the recompute's target dirty-set size; 0 runs a full
		// analysis.
		dirty int
		// inline: the scheduler never runs, whatever the worker count.
		inline bool
	}{
		{"full", st, 0, false},
		{"dirty-small", st, 8, true},
		{"dirty-large", st, recomputeParallelThreshold, false},
		{"single-cluster", NewState(cd1), 0, true},
	}
	for _, sc := range scopes {
		for _, workers := range []int{1, 2, 8} {
			for _, cancel := range []bool{false, true} {
				name := fmt.Sprintf("w%d-%s", workers, sc.name)
				if cancel {
					name += "-cancel"
				}
				t.Run(name, func(t *testing.T) {
					cd := sc.st.Design()
					sc.st.Reset()
					t.Cleanup(sc.st.Reset)
					n, ids := len(cd.CC), []int(nil)
					if sc.dirty > 0 {
						ids = moveOffsets(t, cd, sc.st, sc.dirty)
						n = len(ids)
						if n == len(cd.CC) || (n < recomputeParallelThreshold) != sc.inline {
							t.Fatalf("dirty set of %d clusters does not fit the row", n)
						}
					}
					run := func(ctx context.Context) (*Result, error) {
						if ids == nil {
							return AnalyzeContext(ctx, cd, sc.st, workers)
						}
						res := base.Clone()
						return res, RecomputeContext(ctx, cd, sc.st, res, ids, workers)
					}
					want, err := AnalyzeContext(bg, cd, sc.st, 1)
					if err != nil {
						t.Fatal(err)
					}
					var ctx context.Context = bg
					if cancel {
						ctx = newCountdown(n / 2)
					}
					runs0 := mParallelRuns.Load()
					got, err := run(ctx)
					if ran := mParallelRuns.Load() > runs0; ran != (workers > 1 && !sc.inline) {
						t.Errorf("scheduler ran = %v with %d workers over %d clusters", ran, workers, n)
					}
					if !cancel {
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatal("result differs from the one-worker full analysis")
						}
						return
					}
					if !errors.Is(err, errCountdown) {
						t.Fatalf("cancelled at cluster %d of %d: err = %v, want the cause", n/2, n, err)
					}
					if ids == nil && got != nil {
						t.Fatal("cancelled analysis leaked a partial result")
					}
					// The state stays usable: an uncancelled rerun matches.
					if got, err = run(bg); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("run after cancellation differs (err %v)", err)
					}
				})
			}
		}
	}
}

// TestRecomputeParallelSmallSetAllocs: below the work threshold the driver
// must stay inline, preserving the steady-state allocation guarantee of
// small delay edits even when the caller asks for many workers.
func TestRecomputeParallelSmallSetAllocs(t *testing.T) {
	nw := buildWorkload(t, mustGen(workload.ALU()))
	cd := cluster.Compile(nw)
	st := NewState(cd)
	res := Analyze(cd, st)
	ids := []int{0}
	ctx := context.Background()
	recompute := func() {
		if err := RecomputeContext(ctx, cd, st, res, ids, 8); err != nil {
			t.Fatal(err)
		}
	}
	recompute()

	allocs := testing.AllocsPerRun(50, recompute)
	const limit = 3
	if allocs > limit {
		t.Fatalf("small-set RecomputeContext allocates %.1f times per run, limit %d", allocs, limit)
	}
}
