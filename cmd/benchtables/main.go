// Command benchtables regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) and prints them in
// a form directly comparable with the published numbers:
//
//	-table1     run-time table over DES/ALU/SM1F/SM1H (paper Table 1)
//	-fig1       minimum settling times for the Figure 1 configuration
//	-fig2       generic synchronising-element model demonstration (Figure 2)
//	-fig3       transparent-latch offset example (Figure 3)
//	-fig4       break-open directed-graph example (Figure 4)
//	-ablations  A1 block-vs-enumeration, A2 borrowing, A3 break search,
//	            A4 redesign loop, A5 scaling
//	-all        everything above (default when no flag is given)
//	-scaling    workers x design-size parallel-analysis scaling table on
//	            the SoC workload (opt-in: the 1M-cell point is expensive,
//	            so -all does not imply it)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hummingbird/internal/baseline"
	"hummingbird/internal/benchfmt"
	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/netlist"
	"hummingbird/internal/report"
	"hummingbird/internal/resynth"
	"hummingbird/internal/sta"
	"hummingbird/internal/syncelem"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table 1")
		fig1      = flag.Bool("fig1", false, "regenerate the Figure 1 experiment")
		fig2      = flag.Bool("fig2", false, "demonstrate the Figure 2 element model")
		fig3      = flag.Bool("fig3", false, "reproduce the Figure 3 offset example")
		fig4      = flag.Bool("fig4", false, "reproduce the Figure 4 break-open example")
		ablations = flag.Bool("ablations", false, "run the A1-A5 ablations")
		all       = flag.Bool("all", false, "run everything")
		jsonOut   = flag.String("json-out", "", "write the Table-1 rows as a benchfmt JSON run to this file (implies -table1)")
		label     = flag.String("label", "local", "label recorded in the -json-out run")
		date      = flag.String("date", "", "date (YYYY-MM-DD) recorded in the -json-out run; required with -json-out")

		scaling        = flag.Bool("scaling", false, "run the workers x design-size scaling table on the SoC workload")
		scalingCells   = flag.String("scaling-cells", "10000,100000,1000000", "comma-separated SoC cell counts for -scaling")
		scalingWorkers = flag.String("scaling-workers", "1,2,4,8", "comma-separated worker counts for -scaling")
		scalingGate    = flag.Float64("scaling-gate", 0, "with -scaling: exit non-zero unless the highest worker count reaches this speedup over 1 worker on the largest design (0 = no gate)")
		scalingJSON    = flag.String("scaling-json", "", "merge the -scaling rows into this benchfmt JSON file (created with -label/-date when absent)")
	)
	flag.Parse()
	w := os.Stdout
	if *jsonOut != "" {
		*table1 = true
		if *date == "" {
			must(fmt.Errorf("-json-out requires -date (the run date is recorded, never guessed)"))
		}
	}
	any := *table1 || *fig1 || *fig2 || *fig3 || *fig4 || *ablations || *scaling
	if *all || !any {
		*table1, *fig1, *fig2, *fig3, *fig4, *ablations = true, true, true, true, true, true
	}
	if *table1 {
		rows := runTable1(w)
		if *jsonOut != "" {
			run := benchfmt.NewRun(*label, *date)
			for _, r := range rows {
				run.Rows = append(run.Rows, benchfmt.FromReportRow(r))
			}
			must(benchfmt.WriteFile(*jsonOut, run))
			fmt.Fprintf(w, "wrote %d benchmark rows to %s\n\n", len(run.Rows), *jsonOut)
		}
	}
	if *fig1 {
		runFig1(w)
	}
	if *fig2 {
		runFig2(w)
	}
	if *fig3 {
		runFig3(w)
	}
	if *fig4 {
		runFig4(w)
	}
	if *ablations {
		runAblations(w)
	}
	if *scaling {
		rows := runScaling(w, parseIntList(*scalingCells), parseIntList(*scalingWorkers))
		if *scalingJSON != "" {
			run, err := benchfmt.ReadFile(*scalingJSON)
			if os.IsNotExist(err) {
				if *date == "" {
					must(fmt.Errorf("-scaling-json on a new file requires -date"))
				}
				run, err = benchfmt.NewRun(*label, *date), nil
			}
			must(err)
			run.MergeScaling(rows)
			must(benchfmt.WriteFile(*scalingJSON, run))
			fmt.Fprintf(w, "merged %d scaling rows into %s\n\n", len(rows), *scalingJSON)
		}
		checkScalingGate(rows, *scalingGate)
	}
}

// parseIntList splits a comma-separated list of positive integers.
func parseIntList(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		must(err)
		if n < 1 {
			must(fmt.Errorf("list entry %d < 1", n))
		}
		out = append(out, n)
	}
	return out
}

// checkScalingGate enforces the CI speedup floor: on the largest design
// measured, the highest worker count must beat the 1-worker time by the
// given factor.
func checkScalingGate(rows []benchfmt.ScalingRow, gate float64) {
	if gate <= 0 {
		return
	}
	maxCells, maxWorkers := 0, 0
	for _, r := range rows {
		if r.Cells > maxCells {
			maxCells = r.Cells
		}
	}
	for _, r := range rows {
		if r.Cells == maxCells && r.Workers > maxWorkers {
			maxWorkers = r.Workers
		}
	}
	for _, r := range rows {
		if r.Cells == maxCells && r.Workers == maxWorkers {
			if r.Speedup < gate {
				must(fmt.Errorf("scaling gate: %d workers reach %.2fx on %d cells, need %.2fx",
					maxWorkers, r.Speedup, maxCells, gate))
			}
			fmt.Printf("scaling gate ok: %d workers reach %.2fx on %d cells (floor %.2fx)\n",
				maxWorkers, r.Speedup, maxCells, gate)
			return
		}
	}
	must(fmt.Errorf("scaling gate: no row for %d cells at %d workers (is 1 in -scaling-workers?)", maxCells, maxWorkers))
}

// runScaling measures the level-scheduled parallel analysis across the
// workers x design-size grid on the SoC workload, plus the parallel
// incremental recompute over a large dirty set, best of three each.
func runScaling(w io.Writer, cellSizes, workerCounts []int) []benchfmt.ScalingRow {
	fmt.Fprintln(w, "== Scaling: level-scheduled parallel analysis, workers x design size (SoC workload) ==")
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	ctx := context.Background()
	lib := celllib.Default()
	var out []benchfmt.ScalingRow
	fmt.Fprintf(w, "%9s %9s %7s %8s %12s %9s %14s %7s\n",
		"cells", "clusters", "levels", "workers", "analyze", "speedup", "recompute", "dirty")
	for _, cells := range cellSizes {
		d := mustGen(workload.SoCCells(cells, 1))
		stats := d.Stats(lib)
		a, err := core.Load(lib, d, core.DefaultOptions())
		must(err)
		cd, st := a.CD, a.St
		// Dirty set for the incremental point: evenly spaced cluster ids,
		// capped at 256 — large enough for the parallel path on every
		// design size measured here.
		nDirty := len(cd.CC)
		if nDirty > 256 {
			nDirty = 256
		}
		ids := make([]int, nDirty)
		for i := range ids {
			ids[i] = i * len(cd.CC) / nDirty
		}
		res := sta.Analyze(cd, st)
		var base time.Duration
		for _, workers := range workerCounts {
			var analyze, recompute time.Duration
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				_, err := sta.AnalyzeContext(ctx, cd, st, workers)
				must(err)
				if e := time.Since(t0); analyze == 0 || e < analyze {
					analyze = e
				}
				t1 := time.Now()
				must(sta.RecomputeContext(ctx, cd, st, res, ids, workers))
				if e := time.Since(t1); recompute == 0 || e < recompute {
					recompute = e
				}
			}
			if workers == 1 {
				base = analyze
			}
			row := benchfmt.ScalingRow{
				Workload: d.Name, Cells: stats.Cells,
				Clusters: len(cd.CC), Levels: cd.NumLevels(), Workers: workers,
				AnalyzeNs:   analyze.Nanoseconds(),
				RecomputeNs: recompute.Nanoseconds(), DirtyClusters: nDirty,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			}
			if base > 0 {
				row.Speedup = float64(base) / float64(analyze)
			}
			out = append(out, row)
			fmt.Fprintf(w, "%9d %9d %7d %8d %12v %8.2fx %14v %7d\n",
				row.Cells, row.Clusters, row.Levels, row.Workers,
				analyze.Round(time.Microsecond), row.Speedup,
				recompute.Round(time.Microsecond), nDirty)
		}
	}
	fmt.Fprintln(w)
	return out
}

// mustGen unwraps a workload generator result.
func mustGen(d *netlist.Design, err error) *netlist.Design {
	must(err)
	return d
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

// analyzeTimed loads and analyses one design, returning the Table-1 row.
// Telemetry is enabled around the run so the row carries the work counters
// (cluster recomputes, delay evaluations) alongside the wall times.
func analyzeTimed(lib *celllib.Library, d *netlist.Design) report.Row {
	st := d.Stats(lib)
	telemetry.Enable()
	telemetry.Reset()
	defer telemetry.Disable()
	t0 := time.Now()
	a, err := core.Load(lib, d, core.DefaultOptions())
	must(err)
	pre := time.Since(t0)
	t1 := time.Now()
	rep, err := a.IdentifySlowPaths()
	must(err)
	ana := time.Since(t1)
	snap := telemetry.Snapshot()
	return report.Row{
		Name: d.Name, Cells: st.Cells, Nets: st.Nets, Latches: st.Latches,
		Clusters: len(a.CD.Clusters), Passes: a.CD.TotalPasses(),
		PreProcess: pre, Analysis: ana,
		Sweeps:     rep.ForwardSweeps + rep.BackwardSweeps,
		Recomputes: snap.Counters["sta.clusters_analyzed"],
		DelayEvals: snap.Counters["delaycalc.evaluations"],
		OK:         rep.OK,
	}
}

// table1Row measures one Table-1 row including the incremental-edit
// speedup columns.
func table1Row(lib *celllib.Library, d *netlist.Design) report.Row {
	row := analyzeTimed(lib, d)
	row.IncrEdit, row.FullEdit = editSpeedup(lib, d)
	row.OpenCold, row.OpenShared = sessionOpen(lib, d)
	return row
}

// sessionOpen measures the two ways a viewing session comes up: cold
// (elaborate + compile + first analysis) and against an already compiled
// design (a fresh AnalysisState over a shared immutable CompiledDesign, as
// hummingbirdd's compile cache does for concurrent sessions on the same
// design), best of three each.
func sessionOpen(lib *celllib.Library, d *netlist.Design) (cold, shared time.Duration) {
	publisher, err := incremental.Open(lib, d, core.DefaultOptions())
	must(err)
	cd := publisher.CompiledDesign()
	opts := publisher.Options()
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, err := incremental.Open(lib, d, opts)
		must(err)
		if e := time.Since(t0); cold == 0 || e < cold {
			cold = e
		}
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, err := incremental.OpenSharedContext(context.Background(), lib, d, opts, cd, nil)
		must(err)
		if e := time.Since(t0); shared == 0 || e < shared {
			shared = e
		}
	}
	return cold, shared
}

// editSpeedup measures the cost of re-analysing after a single-gate delay
// edit: once through the incremental engine (only the dirty clusters are
// recomputed) and once from scratch (full elaboration + Algorithm 1),
// best of three each.
func editSpeedup(lib *celllib.Library, d *netlist.Design) (incr, full time.Duration) {
	eng, err := incremental.Open(lib, d, core.DefaultOptions())
	must(err)
	inst := pickEditInst(eng)
	delta := clock.Time(100)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		out, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: inst, Delta: delta})
		must(err)
		if !out.Incremental {
			must(fmt.Errorf("edit on %s fell back to full analysis", inst))
		}
		if e := time.Since(t0); incr == 0 || e < incr {
			incr = e
		}
		delta = -delta
	}
	opts := eng.Options()
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		a, err := core.Load(lib, eng.Design(), opts)
		must(err)
		_, err = a.IdentifySlowPaths()
		must(err)
		if e := time.Since(t0); full == 0 || e < full {
			full = e
		}
	}
	return incr, full
}

// pickEditInst finds an instance whose delay adjustment stays on the
// incremental path (a combinational gate off the clock cones).
func pickEditInst(eng *incremental.Engine) string {
	d := eng.Design()
	for i := range d.Instances {
		name := d.Instances[i].Name
		out, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: name, Delta: 100})
		if err != nil {
			continue
		}
		if _, err := eng.Apply(incremental.Edit{Op: incremental.Adjust, Inst: name, Delta: -100}); err != nil {
			must(err)
		}
		if out.Incremental {
			return name
		}
	}
	must(fmt.Errorf("%s: no incrementally editable instance", d.Name))
	return ""
}

// runTable1 prints the Table-1 reproduction and returns every measured
// row (paper rows first, then the extension rows) for -json-out.
func runTable1(w io.Writer) []report.Row {
	fmt.Fprintln(w, "== Table 1: run times (paper: VAX 8800 CPU seconds; here: this machine) ==")
	fmt.Fprintln(w, "paper reference: DES 3681 cells analysed in 14.87s total on a VAX 8800")
	fmt.Fprintln(w, "incr-edit/full-edit: re-analysis after a single-gate delay edit, incremental engine vs from scratch")
	lib := celllib.Default()
	rows := []report.Row{
		table1Row(lib, mustGen(workload.DES())),
		table1Row(lib, mustGen(workload.ALU())),
		table1Row(lib, workload.SM1F()),
		table1Row(lib, workload.SM1H()),
	}
	report.Table1(w, rows)
	fmt.Fprintln(w, "extension rows (not in the paper's Table 1): gated clock / 2x second clock")
	ext := []report.Row{
		table1Row(lib, mustGen(workload.DESGated())),
		table1Row(lib, mustGen(workload.DESMultiFreq())),
	}
	report.Table1(w, ext)
	fmt.Fprintln(w)
	return append(rows, ext...)
}

func runFig1(w io.Writer) {
	fmt.Fprintln(w, "== Figure 1: time-multiplexed logic across four clock phases ==")
	lib := celllib.Default()
	d := workload.Figure1()
	a, err := core.Load(lib, d, core.DefaultOptions())
	must(err)
	rep, err := a.IdentifySlowPaths()
	must(err)
	mid := a.CD.NetIdx["m"]
	for _, cl := range a.CD.Clusters {
		if cl.LocalIndex(mid) < 0 {
			continue
		}
		fmt.Fprintf(w, "shared-gate cluster: %d analysis passes (minimum settling times per node: %d)\n",
			cl.Plan.Passes(), cl.Plan.Passes())
		for pi, beta := range cl.Plan.Breaks {
			fmt.Fprintf(w, "  pass %d: clock period broken open at %v\n", pi, beta)
		}
	}
	fmt.Fprintf(w, "total passes across all clusters: %d (clusters: %d)\n",
		a.CD.TotalPasses(), len(a.CD.Clusters))
	fmt.Fprintf(w, "timing verdict: ok=%v worst slack %v\n\n", rep.OK, rep.WorstSlack())
}

func runFig2(w io.Writer) {
	fmt.Fprintln(w, "== Figure 2: generic synchronising-element model ==")
	cs, err := clock.NewSet(clock.Signal{Name: "phi", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 20 * clock.Ns})
	must(err)
	st := &celllib.SyncTiming{Dsetup: 150, Ddz: 280, Dcz: 320}
	elems, err := syncelem.Build("demo", celllib.Transparent, st, cs, 0, false, 2*clock.Ns, 1*clock.Ns)
	must(err)
	e := elems[0]
	fmt.Fprintf(w, "element %s: transparent, pulse [%v, %v), W=%v\n", e.Name(), e.LeadAt, e.TrailAt, e.Width)
	fmt.Fprintf(w, "  offsets: Odc=%v Odz=%v Ozc=%v Ozd=%v (Oat=%v)\n", e.Odc(), e.Odz, e.Ozc(), e.Ozd(), e.Oat())
	fmt.Fprintf(w, "  input closure  = ideal %v + min(Odc,Odz) = %v\n", e.IdealClose, e.InputClosure())
	fmt.Fprintf(w, "  output assert  = ideal %v + max(Ozc,Ozd) = %v\n", e.IdealAssert, e.OutputAssert())
	fmt.Fprintf(w, "  Odz freedom: [%v, %v]\n\n", e.OdzMin(), e.OdzMax())
}

func runFig3(w io.Writer) {
	fmt.Fprintln(w, "== Figure 3: transparent-latch offset relationship (paper's worked example) ==")
	cs, err := clock.NewSet(clock.Signal{Name: "phi", Period: 100 * clock.Ns, RiseAt: 0, FallAt: 20 * clock.Ns})
	must(err)
	st := &celllib.SyncTiming{} // no internal delays, as in the paper's example
	elems, err := syncelem.Build("lat", celllib.Transparent, st, cs, 0, false, 2*clock.Ns, 2*clock.Ns)
	must(err)
	e := elems[0]
	e.Odz = -15 * clock.Ns
	must(e.Validate())
	fmt.Fprintf(w, "20ns control pulse, no internal delays, output asserted 5ns after the leading edge:\n")
	fmt.Fprintf(w, "  Ozd = %v (paper: 5ns), Odz = %v (paper: -15ns)\n", e.Ozd(), e.Odz)
	fmt.Fprintf(w, "  2ns clock-to-control delay: Oat = Ozc = %v (paper: 2ns)\n", e.Ozc())
	fmt.Fprintf(w, "  identity Ozd = W + Odz + Ddz: %v = %v + %v + %v\n\n", e.Ozd(), e.Width, e.Odz, e.Ddz)
}

func runFig4(w io.Writer) {
	fmt.Fprintln(w, "== Figure 4: breaking open the clock period ==")
	// Eight edge times A..H around an 800-unit period; one requirement:
	// edge E (assertion) must precede edge C (closure).
	T := clock.Time(800)
	names := "ABCDEFGH"
	var cands []clock.Time
	for i := range names {
		cands = append(cands, clock.Time(100*i))
	}
	o := breakopen.Output{ID: 0, Close: 200 /*C*/, Asserts: []clock.Time{400 /*E*/}}
	fmt.Fprintln(w, "requirement: edge E occurs before edge C")
	fmt.Fprint(w, "breaks satisfying it:")
	for i := range names {
		if breakopen.Applies(o, cands[i], T) {
			fmt.Fprintf(w, " %c", names[i])
		}
	}
	fmt.Fprintln(w, "  (paper: removing original arc D->E orders E F G H A B C D)")
	plan, err := breakopen.Solve(T, cands, []breakopen.Output{o})
	must(err)
	letters := make([]string, 0, len(plan.Breaks))
	for _, b := range plan.Breaks {
		letters = append(letters, string(names[int(b)/100]))
	}
	fmt.Fprintf(w, "minimum passes: %d, chosen break edge(s): %v\n\n", plan.Passes(), letters)
}

func runAblations(w io.Writer) {
	lib := celllib.Default()
	fmt.Fprintln(w, "== A1: block method vs explicit path enumeration ==")
	{
		d := workload.SM1F()
		a, err := core.Load(lib, d, core.DefaultOptions())
		must(err)
		t0 := time.Now()
		res := sta.Analyze(a.CD, a.St)
		blockT := time.Since(t0)
		t1 := time.Now()
		enum := baseline.EnumerateSlacks(a.CD, a.St)
		enumT := time.Since(t1)
		mism := baseline.CountMismatches(res, enum)
		fmt.Fprintf(w, "sm1f: block %v, enumeration %v over %d transition-paths; mismatching nets: %d\n",
			blockT, enumT, enum.Paths, mism)
	}
	fmt.Fprintln(w, "\n== A2: transparent vs opaque latch modelling (McWilliams-class baseline) ==")
	{
		d := borrowingDesign()
		cmp, err := baseline.CompareBorrowing(lib, d, core.DefaultOptions())
		must(err)
		fmt.Fprintf(w, "borrowing pipeline: transparent ok=%v (worst %v); opaque ok=%v (worst %v, %d slow terminals)\n",
			cmp.TransparentOK, cmp.TransparentWorst, cmp.OpaqueOK, cmp.OpaqueWorst, cmp.OpaqueSlow)
	}
	fmt.Fprintln(w, "\n== A3: exhaustive vs greedy break-open search ==")
	{
		d := workload.Figure1()
		a, err := core.Load(lib, d, core.DefaultOptions())
		must(err)
		exhaust, greedy := 0, 0
		for _, cl := range a.CD.Clusters {
			exhaust += cl.Plan.Passes()
		}
		// Rerun each cluster's plan greedily.
		for _, cl := range a.CD.Clusters {
			outs := clusterOutputs(a, cl.ID)
			p, err := breakopen.SolveGreedy(a.CD.Clocks.Overall(), a.CD.EdgeTimes, outs)
			must(err)
			greedy += p.Passes()
		}
		fmt.Fprintf(w, "figure1: exhaustive passes=%d, greedy passes=%d\n", exhaust, greedy)
	}
	fmt.Fprintln(w, "\n== A4: Algorithm 3 analysis-redesign loop ==")
	{
		d := redesignDesign()
		res, err := resynth.Run(lib, d, core.DefaultOptions(), 60)
		must(err)
		fmt.Fprintf(w, "closure ok=%v in %d iterations, %d resizings, area %d -> %d, final worst %v\n",
			res.OK, res.Iterations, len(res.Changes), res.AreaBefore, res.AreaAfter, res.WorstSlack)
	}
	fmt.Fprintln(w, "\n== A5: analysis-time scaling with design size ==")
	{
		fmt.Fprintf(w, "%8s %12s %12s\n", "cells", "preprocess", "analysis")
		for _, n := range []int{250, 500, 1000, 2000, 4000} {
			d := mustGen(workload.Scaling(n, 11))
			row := analyzeTimed(lib, d)
			fmt.Fprintf(w, "%8d %12v %12v\n", row.Cells, row.PreProcess, row.Analysis)
		}
	}
}

// clusterOutputs rebuilds the breakopen inputs of one cluster (for the A3
// greedy re-solve).
func clusterOutputs(a *core.Analyzer, clusterID int) []breakopen.Output {
	cl := a.CD.Clusters[clusterID]
	outs := make([]breakopen.Output, len(cl.Outputs))
	for oi, out := range cl.Outputs {
		o := breakopen.Output{ID: oi, Close: a.CD.Elems[out.Elem].IdealClose}
		for ii := range cl.Inputs {
			if cl.Reach[ii][oi] {
				o.Asserts = append(o.Asserts, a.CD.Elems[cl.Inputs[ii].Elem].IdealAssert)
			}
		}
		outs[oi] = o
	}
	return outs
}

// borrowingDesign is feasible only through transparent-latch borrowing.
func borrowingDesign() *netlist.Design {
	text := `
design borrow
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst c1 INV_X1 A=q1 Y=w1
inst c2 INV_X1 A=w1 Y=w2
inst c3 INV_X1 A=w2 Y=w3
inst c4 INV_X1 A=w3 Y=w4
inst c5 INV_X1 A=w4 Y=w5
inst c6 INV_X1 A=w5 Y=w6
inst c7 INV_X1 A=w6 Y=w7
inst c8 INV_X1 A=w7 Y=w8
inst c9 INV_X1 A=w8 Y=w9
inst c10 INV_X1 A=w9 Y=w10
inst c11 INV_X1 A=w10 Y=w11
inst c12 INV_X1 A=w11 Y=w12
inst c13 INV_X1 A=w12 Y=w13
inst c14 INV_X1 A=w13 Y=w14
inst c15 INV_X1 A=w14 Y=w15
inst c16 INV_X1 A=w15 Y=w16
inst c17 INV_X1 A=w16 Y=w17
inst c18 INV_X1 A=w17 Y=w18
inst c19 INV_X1 A=w18 Y=w19
inst c20 INV_X1 A=w19 Y=w20
inst c21 INV_X1 A=w20 Y=w21
inst c22 INV_X1 A=w21 Y=w22
inst c23 INV_X1 A=w22 Y=w23
inst c24 INV_X1 A=w23 Y=w24
inst c25 INV_X1 A=w24 Y=w25
inst c26 INV_X1 A=w25 Y=w26
inst c27 INV_X1 A=w26 Y=w27
inst c28 INV_X1 A=w27 Y=w28
inst c29 INV_X1 A=w28 Y=w29
inst c30 INV_X1 A=w29 Y=w30
inst f2 DFF_X1 D=w30 CK=phi2 Q=q2
inst g3 BUF_X1 A=q2 Y=OUT
end
`
	d, err := netlist.ParseString(text)
	must(err)
	return d
}

// redesignDesign is a marginally slow FF chain the sizing loop can close.
func redesignDesign() *netlist.Design {
	text := `
design sizing
clock phi period 2200ps rise 0 fall 880ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=c0
inst i0 INV_X1 A=c0 Y=c1
inst d00 INV_X1 A=c0 Y=x00
inst d01 INV_X1 A=c0 Y=x01
inst d02 INV_X1 A=c0 Y=x02
inst i1 INV_X1 A=c1 Y=c2
inst d10 INV_X1 A=c1 Y=x10
inst d11 INV_X1 A=c1 Y=x11
inst d12 INV_X1 A=c1 Y=x12
inst i2 INV_X1 A=c2 Y=c3
inst d20 INV_X1 A=c2 Y=x20
inst d21 INV_X1 A=c2 Y=x21
inst d22 INV_X1 A=c2 Y=x22
inst i3 INV_X1 A=c3 Y=c4
inst d30 INV_X1 A=c3 Y=x30
inst d31 INV_X1 A=c3 Y=x31
inst d32 INV_X1 A=c3 Y=x32
inst i4 INV_X1 A=c4 Y=c5
inst d40 INV_X1 A=c4 Y=x40
inst d41 INV_X1 A=c4 Y=x41
inst d42 INV_X1 A=c4 Y=x42
inst i5 INV_X1 A=c5 Y=c6
inst f2 DFF_X1 D=c6 CK=phi Q=qo
inst go BUF_X1 A=qo Y=OUT
end
`
	d, err := netlist.ParseString(text)
	must(err)
	return d
}
