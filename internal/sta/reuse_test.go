package sta

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// latchCycleText holds two combinational cycles through transparent
// latches (§3), one closed through an inverter, plus a flip-flop tap.
const latchCycleText = `
design loops
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi1 edge rise offset 0
input IN2 clock phi2 edge rise offset 0
output OUT clock phi1 edge rise offset 0
output OUT2 clock phi2 edge fall offset 0
inst gx XORD A=IN B=q2 Y=d1
inst l1 LAT D=d1 G=phi1 Q=q1
inst g2 BUFD A=q1 Y=d2
inst l2 LAT D=d2 G=phi2 Q=q2x
inst g4 BUFD A=q2x Y=q2
inst g3 BUFD A=q1 Y=OUT
inst hx XORD A=IN2 B=r2 Y=e1
inst m1 LAT D=e1 G=phi2 Q=r1
inst h2 INVD A=r1 Y=e2
inst m2 LAT D=e2 G=phi1 Q=r2x
inst h4 BUFD A=r2x Y=r2
inst f1 FFD D=r1 CK=phi1 Q=s1
inst h5 BUFD A=s1 Y=OUT2
end
`

// lowerOffsets moves the offsets of k distinct random elements down by
// 1..8ns: below the latest closure, which shifts a latch's output
// assertion and every element's input closure.
func lowerOffsets(rng *rand.Rand, odz []clock.Time, k int) {
	for _, e := range rng.Perm(len(odz))[:min(k, len(odz))] {
		odz[e] -= clock.Time(1+rng.Intn(8)) * clock.Ns
	}
}

// slowClusters adds a random delay to every arc of k distinct random
// clusters of cd and returns their ids.
func slowClusters(rng *rand.Rand, cd *cluster.CompiledDesign, k int) []int {
	ids := rng.Perm(len(cd.CC))[:min(k, len(cd.CC))]
	for _, id := range ids {
		d := clock.Time(1+rng.Intn(20)) * 50
		for i := range cd.CC[id].Arcs {
			cd.CC[id].Arcs[i].D.MaxRise += d
			cd.CC[id].Arcs[i].D.MaxFall += d
		}
	}
	return ids
}

// TestRecomputeReuseMatchesAnalyze is the reuse property test. Each trial
// takes a reference analysis at one offset vector, then lowers the
// offsets of a few random elements (or, every other trial, a third of
// them) and slows the arcs of a few random clusters. A recompute of every
// cluster with that reference installed — copying the clusters whose
// delays and boundary offsets still match it, analyzing the rest — must
// deep-equal a full analysis at the new offsets and delays, at one worker
// and under the scheduler; the full analysis itself must run every
// cluster. Deleting any one reuse condition (the stale set, the
// input-element offsets, the output-element offsets) fails it.
func TestRecomputeReuseMatchesAnalyze(t *testing.T) {
	withProcs(t, 2)
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	ctx := context.Background()
	pipe := mustGen(workload.Pipeline(workload.PipeConfig{
		Name: "pipe", Stages: 8, Width: 6, Depth: 3, Seed: 7}))
	designs := []struct {
		name string
		cd   *cluster.CompiledDesign
		// scheduled: the dense trials leave enough clusters to analyze
		// for the two-worker recompute to run the scheduler.
		scheduled bool
	}{
		{"soc", socFixture(t, 96, 8, 4, 0x5E), true},
		{"two-phase-pipeline", cluster.Compile(buildWorkload(t, pipe)), false},
		{"latch-cycle", cluster.Compile(buildNet(t, testLib(), latchCycleText)), false},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			cd := d.cd
			rng := rand.New(rand.NewSource(int64(len(cd.CC))))
			all := make([]int, len(cd.CC))
			for i := range all {
				all[i] = i
			}
			reused0, analyzed0, runs0 := mClustersReused.Load(), mClustersAnalyzed.Load(), mParallelRuns.Load()
			for trial := 0; trial < 16; trial++ {
				st := NewState(cd)
				lowerOffsets(rng, st.Odz, len(st.Odz)/4+1)
				ref, err := AnalyzeContext(ctx, cd, st, 1)
				if err != nil {
					t.Fatal(err)
				}
				refOdz := st.SnapshotOffsets(nil)

				cd2 := cd.CloneArcs()
				stale := slowClusters(rng, cd2, 1+rng.Intn(3))
				st2 := NewState(cd2)
				st2.RestoreOffsets(refOdz)
				moved := 1 + rng.Intn(4)
				if trial%2 == 1 {
					moved = len(st2.Odz) / 3
				}
				lowerOffsets(rng, st2.Odz, moved)
				st2.SetReference(ref, refOdz, stale)
				// A full analysis never consults the reference.
				analyzed := mClustersAnalyzed.Load()
				want, err := AnalyzeContext(ctx, cd2, st2, 1)
				if err != nil {
					t.Fatal(err)
				}
				if n := mClustersAnalyzed.Load() - analyzed; n != int64(len(cd.CC)) {
					t.Fatalf("trial %d: full analysis with a reference installed ran %d of %d clusters", trial, n, len(cd.CC))
				}
				for _, workers := range []int{1, 2} {
					res := ref.Clone()
					if err := RecomputeContext(ctx, cd2, st2, res, all, workers); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, want) {
						t.Fatalf("trial %d (%d offsets lowered, stale %v), %d workers: recompute with reuse differs from a full analysis",
							trial, moved, stale, workers)
					}
				}
			}
			reused, analyzed := mClustersReused.Load()-reused0, mClustersAnalyzed.Load()-analyzed0
			t.Logf("%d clusters: %d reused, %d analyzed over the recomputes and analyses", len(cd.CC), reused, analyzed)
			if reused == 0 {
				t.Error("no recompute reused a cluster")
			}
			if ran := mParallelRuns.Load() > runs0; ran != d.scheduled {
				t.Errorf("scheduler ran = %v, want %v", ran, d.scheduled)
			}
		})
	}
}
