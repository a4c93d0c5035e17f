package hummingbird

// The benchmark harness regenerating the paper's evaluation: one benchmark
// per Table-1 row and per figure, plus the A1–A5 ablations of DESIGN.md §4.
// Absolute numbers are this machine's, not the paper's VAX 8800 CPU
// seconds; the comparisons that must hold are structural — see
// EXPERIMENTS.md. Pretty-printed tables come from cmd/benchtables.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hummingbird/internal/baseline"
	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/incremental"
	"hummingbird/internal/logic"
	"hummingbird/internal/netlist"
	"hummingbird/internal/resynth"
	"hummingbird/internal/sim"
	"hummingbird/internal/sta"
	"hummingbird/internal/syncelem"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

var benchLib = celllib.Default()

// mustGen unwraps a workload generator; the benchmark configurations are
// static and valid by construction.
func mustGen(d *netlist.Design, err error) *netlist.Design {
	if err != nil {
		panic(err)
	}
	return d
}

// infallible adapts the generators that cannot fail to the fallible
// signature the shared harnesses take.
func infallible(mk func() *netlist.Design) func() (*netlist.Design, error) {
	return func() (*netlist.Design, error) { return mk(), nil }
}

// loadOnce elaborates a design once (outside the timed loop).
func loadOnce(b *testing.B, d *netlist.Design) *core.Analyzer {
	b.Helper()
	a, err := core.Load(benchLib, d, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// benchTable1 measures one Table-1 row: the full pre-processing + Algorithm
// 1 pipeline per iteration, matching the paper's reported quantities.
func benchTable1(b *testing.B, mk func() (*netlist.Design, error)) {
	d, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := core.Load(benchLib, d, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analysis", func(b *testing.B) {
		a := loadOnce(b, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.ResetOffsets()
			rep, err := a.IdentifySlowPaths()
			if err != nil {
				b.Fatal(err)
			}
			if !rep.OK {
				b.Fatal("benchmark design not timing-clean")
			}
		}
	})
}

func BenchmarkTable1_DES(b *testing.B)  { benchTable1(b, workload.DES) }
func BenchmarkTable1_ALU(b *testing.B)  { benchTable1(b, workload.ALU) }
func BenchmarkTable1_SM1F(b *testing.B) { benchTable1(b, infallible(workload.SM1F)) }
func BenchmarkTable1_SM1H(b *testing.B) { benchTable1(b, infallible(workload.SM1H)) }

// pickEditInst finds an instance whose delay adjustment stays on the
// engine's incremental path (a combinational gate off the clock cones).
func pickEditInst(b *testing.B, eng *incremental.Engine) string {
	b.Helper()
	d := eng.Design()
	for i := range d.Instances {
		name := d.Instances[i].Name
		out, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: name, Delta: 100})
		if err != nil {
			continue
		}
		if _, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: name, Delta: -100}); err != nil {
			b.Fatal(err)
		}
		if out.Incremental {
			return name
		}
	}
	b.Fatal("no incrementally editable instance")
	return ""
}

// benchIncrementalEdit measures re-analysis after a single-gate delay edit:
// the "incremental" case patches the live engine (alternating ±100ps so the
// state never drifts); the "full" case re-elaborates and re-analyzes from
// scratch, which is what Algorithm 3 pays without the engine. The ratio is
// the speedup column of cmd/benchtables' Table 1. The "topology" case is a
// structural batch on the live engine — add a buffer tapping the edited
// gate's output and remove it again, the served edit_topo — which
// re-elaborates: its cost should sit near "full", not above it.
func benchIncrementalEdit(b *testing.B, mk func() (*netlist.Design, error)) {
	b.Run("incremental", func(b *testing.B) {
		d, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		eng, err := incremental.Open(benchLib, d, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		inst := pickEditInst(b, eng)
		delta := clock.Time(100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: inst, Delta: delta})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Incremental {
				b.Fatal("edit fell back to full analysis")
			}
			delta = -delta
		}
	})
	b.Run("full", func(b *testing.B) {
		d, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := core.Load(benchLib, d, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.IdentifySlowPaths(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topology", func(b *testing.B) {
		d, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		eng, err := incremental.Open(benchLib, d, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		inst := pickEditInst(b, eng)
		var net string
		for _, in := range eng.Design().Instances {
			if in.Name == inst {
				net = in.Conns[eng.Analyzer().Lib.Cell(in.Ref).Outputs()[0]]
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := eng.Apply(
				incremental.Edit{Op: incremental.AddInst, New: &netlist.Instance{
					Name: "bench_tap", Ref: "BUF_X1", Conns: map[string]string{"A": net, "Y": "bench_tap_y"}}},
				incremental.Edit{Op: incremental.RemoveInst, Inst: "bench_tap"})
			if err != nil {
				b.Fatal(err)
			}
			if out.Incremental {
				b.Fatal("topology batch took the incremental path")
			}
		}
	})
}

func BenchmarkIncrementalEdit_DES(b *testing.B)  { benchIncrementalEdit(b, workload.DES) }
func BenchmarkIncrementalEdit_ALU(b *testing.B)  { benchIncrementalEdit(b, workload.ALU) }
func BenchmarkIncrementalEdit_SM1F(b *testing.B) { benchIncrementalEdit(b, infallible(workload.SM1F)) }
func BenchmarkIncrementalEdit_SM1H(b *testing.B) { benchIncrementalEdit(b, infallible(workload.SM1H)) }

// BenchmarkFigure1_Passes measures the §7 pre-processing on the Figure 1
// configuration and asserts the minimum pass count (2) it exists to prove.
func BenchmarkFigure1_Passes(b *testing.B) {
	d := workload.Figure1()
	for i := 0; i < b.N; i++ {
		a, err := core.Load(benchLib, d, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		mid := a.CD.NetIdx["m"]
		for _, cl := range a.CD.Clusters {
			if cl.LocalIndex(mid) >= 0 && cl.Plan.Passes() != 2 {
				b.Fatalf("passes = %d, want 2", cl.Plan.Passes())
			}
		}
	}
}

// BenchmarkFigure2_GenericModel measures the generic-element effective-time
// evaluation (the min/max composition of Figure 2).
func BenchmarkFigure2_GenericModel(b *testing.B) {
	cs, err := clock.NewSet(clock.Signal{Name: "phi", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 20 * clock.Ns})
	if err != nil {
		b.Fatal(err)
	}
	st := &celllib.SyncTiming{Dsetup: 150, Ddz: 280, Dcz: 320}
	elems, err := syncelem.Build("e", celllib.Transparent, st, cs, 0, false, 2000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	e := elems[0]
	var sink clock.Time
	for i := 0; i < b.N; i++ {
		sink += e.InputClosure() + e.OutputAssert()
	}
	_ = sink
}

// BenchmarkFigure3_SlackTransfer measures the offset operations of §6 on a
// transparent latch (the Figure 3 relationship drives every transfer).
func BenchmarkFigure3_SlackTransfer(b *testing.B) {
	cs, err := clock.NewSet(clock.Signal{Name: "phi", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 20 * clock.Ns})
	if err != nil {
		b.Fatal(err)
	}
	st := &celllib.SyncTiming{Dsetup: 150, Ddz: 280, Dcz: 320}
	elems, err := syncelem.Build("e", celllib.Transparent, st, cs, 0, false, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	e := elems[0]
	for i := 0; i < b.N; i++ {
		e.CompleteForward(1000)
		e.CompleteBackward(1000)
	}
}

// BenchmarkFigure4_BreakOpen measures the exhaustive break-set search on
// the Figure 4 example's eight-edge circle.
func BenchmarkFigure4_BreakOpen(b *testing.B) {
	T := clock.Time(800)
	cands := make([]clock.Time, 8)
	for i := range cands {
		cands[i] = clock.Time(100 * i)
	}
	outs := []breakopen.Output{{ID: 0, Close: 200, Asserts: []clock.Time{400}}}
	for i := 0; i < b.N; i++ {
		if _, err := breakopen.Solve(T, cands, outs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_BlockVsEnum compares the block method against explicit
// path enumeration on SM1F (A1).
func BenchmarkAblation_BlockVsEnum(b *testing.B) {
	a := loadOnce(b, workload.SM1F())
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sta.Analyze(a.CD, a.St)
		}
	})
	b.Run("enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.EnumerateSlacks(a.CD, a.St)
		}
	})
}

// BenchmarkAblation_Borrowing compares transparent vs opaque latch
// modelling on a borrowing pipeline (A2) and asserts the qualitative
// outcome: transparent passes, opaque fails.
func BenchmarkAblation_Borrowing(b *testing.B) {
	text := `
design borrow
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 BUF_X1 A=IN Y=w0
inst l1 DLATCH_X1 D=w0 G=phi1 Q=c0
`
	for i := 0; i < 30; i++ {
		text += fmt.Sprintf("inst c%d INV_X1 A=c%d Y=c%d\n", i, i, i+1)
	}
	text += "inst f2 DFF_X1 D=c30 CK=phi2 Q=q2\ninst g3 BUF_X1 A=q2 Y=OUT\nend\n"
	d, err := netlist.ParseString(text)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cmp, err := baseline.CompareBorrowing(benchLib, d, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !cmp.TransparentOK || cmp.OpaqueOK {
			b.Fatalf("A2 shape violated: %+v", cmp)
		}
	}
}

// BenchmarkAblation_BreakSearch compares exhaustive and greedy break-set
// search on random circular-interval instances (A3).
func BenchmarkAblation_BreakSearch(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	type inst struct {
		T     clock.Time
		cands []clock.Time
		outs  []breakopen.Output
	}
	mk := func() inst {
		T := clock.Time(1000)
		var cands []clock.Time
		for v := clock.Time(0); v < T; v += 50 {
			cands = append(cands, v)
		}
		outs := make([]breakopen.Output, 8)
		for i := range outs {
			c := cands[r.Intn(len(cands))]
			outs[i] = breakopen.Output{ID: i, Close: c, Asserts: []clock.Time{
				cands[r.Intn(len(cands))], cands[r.Intn(len(cands))],
			}}
		}
		return inst{T, cands, outs}
	}
	instances := make([]inst, 16)
	for i := range instances {
		instances[i] = mk()
	}
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := instances[i%len(instances)]
			if _, err := breakopen.Solve(in.T, in.cands, in.outs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := instances[i%len(instances)]
			if _, err := breakopen.SolveGreedy(in.T, in.cands, in.outs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRedesignLoop measures Algorithm 3 to closure on the marginally
// slow sizing fixture (A4).
func BenchmarkRedesignLoop(b *testing.B) {
	mk := func() *netlist.Design {
		text := `
design sizing
clock phi period 2200ps rise 0 fall 880ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=c0
`
		for i := 0; i < 6; i++ {
			text += fmt.Sprintf("inst i%d INV_X1 A=c%d Y=c%d\n", i, i, i+1)
			for k := 0; k < 3; k++ {
				text += fmt.Sprintf("inst d%d_%d INV_X1 A=c%d Y=x%d_%d\n", i, k, i, i, k)
			}
		}
		text += "inst f2 DFF_X1 D=c6 CK=phi Q=qo\ninst go BUF_X1 A=qo Y=OUT\nend\n"
		d, err := netlist.ParseString(text)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	for i := 0; i < b.N; i++ {
		res, err := resynth.Run(benchLib, mk(), core.DefaultOptions(), 40)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK || len(res.Changes) == 0 {
			b.Fatalf("A4 shape violated: %+v", res)
		}
	}
}

// benchScaling measures full load+analysis at a given cell count (A5).
func benchScaling(b *testing.B, cells int) {
	d := mustGen(workload.Scaling(cells, 11))
	for i := 0; i < b.N; i++ {
		a, err := core.Load(benchLib, d, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.IdentifySlowPaths(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaling_250(b *testing.B)  { benchScaling(b, 250) }
func BenchmarkScaling_500(b *testing.B)  { benchScaling(b, 500) }
func BenchmarkScaling_1000(b *testing.B) { benchScaling(b, 1000) }
func BenchmarkScaling_2000(b *testing.B) { benchScaling(b, 2000) }
func BenchmarkScaling_4000(b *testing.B) { benchScaling(b, 4000) }

// tight scales a design's clocks to 22%: the failing regime, near the
// clock, in which Algorithm 3 works and Algorithm 1 runs its backward
// iteration for hundreds to thousands of sweeps.
func tight(b *testing.B, d *netlist.Design) *netlist.Design {
	b.Helper()
	d, err := core.ScaleClocks(d, 22, 100)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// countSweeps turns telemetry on for the benchmark and, when it ends,
// reports the fixed-point sweeps and the elements they visited per op.
func countSweeps(b *testing.B) {
	telemetry.Enable()
	c0 := telemetry.Snapshot().Counters
	b.Cleanup(func() {
		telemetry.Disable()
		c := telemetry.Snapshot().Counters
		n := float64(b.N)
		b.ReportMetric(float64(c["core.sweeps"]-c0["core.sweeps"])/n, "sweeps/op")
		b.ReportMetric(float64(c["core.elements_visited"]-c0["core.elements_visited"])/n, "visited/op")
	})
}

// BenchmarkIdentify_TightSoC is a fresh Algorithm 1 on the 100k-cell SoC
// with its clocks at 22%: 4 forward and 3,182 backward sweeps, ending
// with 78 slow paths. Each partial iteration stops at its first sweep
// that moves nothing, and every sweep after an iteration's first visits
// only the elements whose inputs the sweep before changed.
func BenchmarkIdentify_TightSoC(b *testing.B) {
	a := loadOnce(b, tight(b, mustGen(workload.SoCCells(100_000, 1))))
	countSweeps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ResetOffsets()
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			b.Fatal(err)
		}
		if rep.OK || rep.BackwardSweeps < 1000 {
			b.Fatalf("tight SoC: ok %v after %d backward sweeps; the fixture no longer fails", rep.OK, rep.BackwardSweeps)
		}
	}
}

// BenchmarkIncrementalEdit_TightSoC is Algorithm 3's edit loop on a
// failing design: seeded ±50..200ps adjusts of combinational gates on
// SoC(8, 8, 4, 3) with its clocks at 22%, each running Algorithm 1 to a
// fixed point of about two hundred sweeps, which replay the previous
// edit's run. An edit the fixed point cannot settle within MaxSweeps is
// refused, leaving the engine as it was, and counts as an op.
func BenchmarkIncrementalEdit_TightSoC(b *testing.B) {
	eng, err := incremental.Open(benchLib, tight(b, mustGen(workload.SoC(8, 8, 4, 3))), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var targets []string
	for _, inst := range eng.Design().Instances {
		if c := benchLib.Cell(inst.Ref); c != nil && !c.IsSync() && len(inst.Conns) > 1 {
			targets = append(targets, inst.Name)
		}
	}
	rng := rand.New(rand.NewSource(7))
	countSweeps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := clock.Time(1+rng.Intn(4)) * 50 * clock.Ps
		if rng.Intn(2) == 0 {
			d = -d
		}
		_, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: targets[rng.Intn(len(targets))], Delta: d})
		var nc *core.NonConvergenceError
		if err != nil && !errors.As(err, &nc) {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTA_Sweep isolates one block-analysis sweep over the DES-sized
// network — the inner loop whose cost dominates Table 1's analysis column.
func BenchmarkSTA_Sweep(b *testing.B) {
	a := loadOnce(b, mustGen(workload.DES()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.Analyze(a.CD, a.St)
	}
}

// BenchmarkAblation_Incremental compares Algorithm 1 with incremental
// sweeps (recompute only clusters adjacent to moved elements) against the
// paper's plain full-recompute sweeps (A6). The gap appears when the
// clocks are tight enough that the iterations actually run; at the Table-1
// clocks the first sweep already converges and the modes tie.
func BenchmarkAblation_Incremental(b *testing.B) {
	// DES with one gate slowed by 55ns: exactly one of the 18 stage
	// clusters needs cycle borrowing, so Algorithm 1 iterates but each
	// sweep only moves a couple of latches — the case incremental
	// re-analysis exists for. (When most elements move every sweep the
	// modes tie; see EXPERIMENTS.md.)
	for _, mode := range []struct {
		name string
		full bool
	}{{"incremental", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.FullSweeps = mode.full
			opts.Adjustments = map[string]clock.Time{"g_s3l2w5": 55 * clock.Ns}
			a, err := core.Load(benchLib, mustGen(workload.DES()), opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ResetOffsets()
				rep, err := a.IdentifySlowPaths()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK {
					b.Fatal("fixture should close via borrowing")
				}
				if rep.ForwardSweeps < 2 {
					b.Fatal("fixture should iterate")
				}
			}
		})
	}
}

// BenchmarkSTA_SweepParallel measures the goroutine-parallel variant of the
// block analysis on the DES-sized network (same results as the sequential
// sweep; see internal/sta's equivalence test).
func BenchmarkSTA_SweepParallel(b *testing.B) {
	a := loadOnce(b, mustGen(workload.DES()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.AnalyzeParallel(a.CD, a.St, 4)
	}
}

// BenchmarkClusterBuild isolates elaboration (cluster generation + §7
// pre-processing), Table 1's pre-processing column.
func BenchmarkClusterBuild(b *testing.B) {
	d := mustGen(workload.DES())
	if err := d.Validate(benchLib); err != nil {
		b.Fatal(err)
	}
	cs, err := d.ClockSet()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc, err := delaycalc.New(benchLib, d, delaycalc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Build(benchLib, d, cs, calc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures the dynamic-validation harness on the ALU
// workload: one full 10-cycle worst-case simulation per iteration.
func BenchmarkSimulator(b *testing.B) {
	nwA := loadOnce(b, mustGen(workload.ALU())).CD.Network
	s, err := sim.New(nwA)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(10, func(cycle int, port string) logic.Value {
			return logic.FromBool(r.Intn(2) == 0)
		})
	}
}

// BenchmarkTelemetryOverhead measures the cost of the observability layer
// on the analysis hot path, using the BenchmarkAblation_Incremental
// fixture (DES with one slowed gate) so the fixed-point iterations
// actually run. "off" is the shipping default — the counters' single
// atomic-bool check must stay in the noise (<2%) and allocate nothing —
// and "on" is the full metrics-collection mode. Convergence tracing is a
// separate switch (Options.Trace) and is not exercised here: its cost is
// one slog line per sweep, paid only when requested.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.enabled {
				telemetry.Enable()
				defer telemetry.Disable()
			} else {
				telemetry.Disable()
			}
			opts := core.DefaultOptions()
			opts.Adjustments = map[string]clock.Time{"g_s3l2w5": 55 * clock.Ns}
			a, err := core.Load(benchLib, mustGen(workload.DES()), opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ResetOffsets()
				rep, err := a.IdentifySlowPaths()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK || rep.ForwardSweeps < 2 {
					b.Fatal("fixture should iterate and close")
				}
			}
		})
	}
}
