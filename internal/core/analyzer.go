// Package core implements the paper's system-level timing-analysis
// algorithms: Algorithm 1 (identification of slow paths via complete and
// partial slack transfer) and Algorithm 2 (timing-constraint generation via
// time snatching), over the elaborated network of internal/cluster and the
// block slack computation of internal/sta.
//
// The analyzer owns the synchronising-element offsets (the Odz degrees of
// freedom of the transparent latches) and drives them to the fixed points
// the paper defines. After Algorithm 1, every synchronising-element
// terminal on a too-slow path has non-positive node slack and all other
// terminals have strictly positive slack (marginally fast paths may be
// flagged slow — a consequence of the simplified element model the paper
// accepts, §6).
package core

import (
	"context"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/syncelem"
	"hummingbird/internal/telemetry"
)

// Options tunes the analyzer.
type Options struct {
	// PartialDivisor is the divisor n > 1 of the §6 partial slack
	// transfers (iterations 3 and 4 of Algorithm 1). Default 2.
	PartialDivisor int64
	// MaxSweeps caps each iteration's sweep count as a safety net. The
	// paper bounds acyclic designs at one more sweep than the number of
	// synchronising elements on a directed path; combinational cycles
	// through latches (§3) circulate their deficit, and a *feasible* loop
	// operating near its critical utilisation can need on the order of
	// W/loop-slack sweeps before the borrowing settles. Default:
	// max(64, 4 × elements); raise it for near-critical loop-heavy
	// designs if the non-convergence error suggests so.
	MaxSweeps int
	// Delay evaluation options for the load model.
	Delay delaycalc.Options
	// Adjustments holds per-instance additive delay adjustments (ps),
	// applied before elaboration — the interactive what-if mode of §8.
	Adjustments map[string]clock.Time
	// Workers sets the worker count of the level-scheduled parallel block
	// analysis: full analyses and sufficiently large incremental
	// recomputes are spread across this many goroutines, capped at
	// GOMAXPROCS (see sta.AnalyzeContext / sta.RecomputeContext). 0 or 1
	// keeps every analysis sequential; results are identical either way.
	Workers int
	// FullSweeps disables incremental re-analysis: every fixed-point sweep
	// recomputes every cluster, as the paper's plain formulation does.
	// The default (incremental) recomputes only the clusters adjacent to
	// elements whose offsets moved; results are identical (the A6
	// ablation measures the speed difference).
	FullSweeps bool
	// Trace, when non-nil, receives one structured telemetry.SweepEvent
	// per fixed-point sweep (convergence tracing) and causes the full
	// trajectory to be retained on the Report / Constraints. Leave nil
	// on production hot paths: the untraced per-sweep cost is a ring
	// buffer write with no allocation and no clock read.
	Trace *telemetry.Tracer
}

// DefaultOptions returns the options used by the benchmarks.
func DefaultOptions() Options {
	return Options{PartialDivisor: 2, Delay: delaycalc.DefaultOptions()}
}

// defaultMaxSweeps sizes the sweep safety cap; see Options.MaxSweeps.
func defaultMaxSweeps(elems int) int {
	if n := 4 * elems; n > 64 {
		return n
	}
	return 64
}

// Analyzer binds a design to its compiled timing view and drives the
// timing algorithms. The compiled design (CD) is immutable and may be
// shared with other analyzers; everything the algorithms move — the
// element offsets and scratch — lives in the private analysis state (St).
type Analyzer struct {
	Lib    *celllib.Library // resolved library (base + rolled-up modules)
	Design *netlist.Design
	CD     *cluster.CompiledDesign
	St     *sta.AnalysisState
	Opts   Options

	// Cells and Latches are Design.CellStats' leaf-cell and
	// synchronising-element counts against Lib, taken once when the
	// analyzer is built (see cellCounts). No delay-only edit changes them
	// (a resize swaps one non-synchronising cell for another of its
	// interface), and every other edit builds a new analyzer.
	Cells, Latches int

	// dirty/dirtyIDs are sweep's reusable dirty-cluster bitset and sorted
	// id scratch, so fixed-point sweeps stop allocating on the hot path.
	dirty    bitset
	dirtyIDs []int
	// run is the sweep machinery of the current fixed-point run (sweep.go).
	run sweepRun

	// conv is the convergence trail of the current fixed-point run (see
	// trace.go); reset at the top of IdentifySlowPaths and
	// GenerateConstraints.
	conv convTrail
}

// newAnalyzer wires an analyzer onto a compiled design with a fresh state.
func newAnalyzer(lib *celllib.Library, design *netlist.Design, cd *cluster.CompiledDesign, opts Options) *Analyzer {
	a := &Analyzer{
		Lib: lib, Design: design, CD: cd,
		St:    sta.NewState(cd),
		Opts:  opts,
		dirty: newBitset(len(cd.Network.Clusters)),
	}
	a.Cells, a.Latches = cellCounts(cd)
	return a
}

// cellCounts reads the leaf-cell and synchronising-element counts from
// the compiled design's binding (cluster.Build requires its delay
// calculator, so every compiled design carries one). The binding has
// resolved every instance against the resolved library, where each
// instance is one cell, a rolled-up module included, so the counts equal
// Design.CellStats' without hashing a name.
func cellCounts(cd *cluster.CompiledDesign) (cells, latches int) {
	bound := cd.Calc.Binding().Cells
	for _, c := range bound {
		if c.IsSync() {
			latches++
		}
	}
	return len(bound), latches
}

// Load validates a design, resolves its hierarchy (rolling combinational
// modules up into super-cells, §8's SM1H path), evaluates component delays
// and elaborates the timing network. It is the single entry point the
// executables and examples use.
func Load(lib *celllib.Library, design *netlist.Design, opts Options) (*Analyzer, error) {
	t0 := time.Now()
	defer func() { tLoad.Observe(time.Since(t0)) }()
	if opts.PartialDivisor <= 1 {
		opts.PartialDivisor = 2
	}
	if err := design.Validate(lib); err != nil {
		return nil, err
	}
	resolved := lib
	if len(design.Modules) > 0 {
		ext, err := delaycalc.RollUpModules(lib, design, opts.Delay)
		if err != nil {
			return nil, err
		}
		resolved = ext
	}
	cs, err := design.ClockSet()
	if err != nil {
		return nil, err
	}
	calc, err := delaycalc.New(resolved, design, opts.Delay)
	if err != nil {
		return nil, err
	}
	for inst, delta := range opts.Adjustments {
		calc.Adjust(inst, delta)
	}
	nw, err := cluster.Build(resolved, design, cs, calc)
	if err != nil {
		return nil, err
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = defaultMaxSweeps(len(nw.Elems))
	}
	return newAnalyzer(resolved, design, cluster.Compile(nw), opts), nil
}

// LoadFlat is Load for an already-resolved (flat) design with a prebuilt
// network — used by tests that construct networks directly. The network is
// compiled (frozen) here; it must not be mutated afterwards.
func LoadFlat(nw *cluster.Network, opts Options) *Analyzer {
	return LoadCompiled(cluster.Compile(nw), nw.Design, opts)
}

// LoadCompiled binds a new analyzer — with its own fresh AnalysisState —
// onto an existing compiled design, sharing it read-only with whoever else
// holds it. This is how same-design sessions avoid re-elaborating: compile
// once, open many.
func LoadCompiled(cd *cluster.CompiledDesign, design *netlist.Design, opts Options) *Analyzer {
	if opts.PartialDivisor <= 1 {
		opts.PartialDivisor = 2
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = defaultMaxSweeps(len(cd.Elems))
	}
	if design == nil {
		design = cd.Design
	}
	return newAnalyzer(cd.Lib, design, cd, opts)
}

// Report is the outcome of Algorithm 1.
type Report struct {
	// OK is true when every path is fast enough (all slacks positive).
	OK bool
	// Result is the final block analysis at the fixed-point offsets.
	Result *sta.Result
	// ForwardSweeps / BackwardSweeps count the complete-transfer cycles of
	// iterations 1 and 2 (the paper's run-time driver: "the number of
	// iterations required ... depend[s] upon the specified clock speeds").
	ForwardSweeps, BackwardSweeps int
	// SlowElems lists the element indices whose terminals ended with
	// non-positive slack (members of too-slow paths).
	SlowElems []int
	// SlowPaths holds one worst path per violated capture terminal.
	SlowPaths []SlowPath
	// Trajectory is the full convergence trace — one event per
	// fixed-point sweep, in execution order. Populated only when
	// Options.Trace is set.
	Trajectory []telemetry.SweepEvent
}

// WorstSlack returns the minimum terminal slack of the final analysis.
func (r *Report) WorstSlack() clock.Time { return r.Result.WorstSlack() }

// allPositive reports whether every element terminal slack is > 0: an
// O(clusters) read of the segment minima.
func allPositive(res *sta.Result) bool { return res.WorstSlack() > 0 }

// ResetOffsets restores every element's initial offsets (Algorithm 1's
// "select any set of offsets satisfying the synchronising element
// constraints" uses the latest-closure initialisation of syncelem.Build).
func (a *Analyzer) ResetOffsets() { a.St.Reset() }

// IdentifySlowPaths runs Algorithm 1 from a fresh block analysis and
// returns the report. It has no deadline; the incremental engine, which
// has one, runs IdentifySlowPathsReplay.
func (a *Analyzer) IdentifySlowPaths() (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	ctx := context.Background()
	res, err := sta.AnalyzeContext(ctx, a.CD, a.St, a.Opts.Workers)
	if err != nil {
		a.conv.reset(a.Opts.Trace != nil)
		return nil, a.cancelled("", 0, err)
	}
	return a.identifySlowPathsFrom(ctx, res, nil)
}

// IdentifySlowPathsFrom runs Algorithm 1 without a deadline, starting
// from res, which must be the block analysis of the network at its
// current offsets (sign-off runs its steps as separate calls this way).
// res is consumed: the fixed point mutates it in place and the report
// retains it.
func (a *Analyzer) IdentifySlowPathsFrom(res *sta.Result) (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	return a.identifySlowPathsFrom(context.Background(), res, nil)
}

// IdentifySlowPathsReplay is the incremental engine's Algorithm 1: it
// runs from base, the block analysis at the initial offsets, which the
// analyzer's offsets must hold, and keeps the run in t. When t's last run
// started from a result of base's layout, this run replays it as a diff
// (see sweep); on success the record of this run replaces it in t. base
// is not written: the report's result is a clone the fixed point moved.
// The context is checked inside every fixed-point sweep (between
// cluster re-analyses), so an expired deadline interrupts even a single
// long-running sweep; the error is then a *CancelledError wrapping the
// cause. Errors leave t as it was.
func (a *Analyzer) IdentifySlowPathsReplay(ctx context.Context, base *sta.Result, t *Trajectory) (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	rep, err := a.identifySlowPathsFrom(ctx, base, t)
	if err != nil {
		return nil, err
	}
	t.last, t.rec = t.rec, t.last
	t.rec.reset(nil)
	return rep, nil
}

// identifySlowPathsFrom is Algorithm 1; every sweep is interruptible, with
// interruptions surfaced as *CancelledError. With a trajectory t, res is
// the run's base, replayed against and recorded into t (see startRun), and
// the fixed point moves a clone of it.
func (a *Analyzer) identifySlowPathsFrom(ctx context.Context, res *sta.Result, t *Trajectory) (*Report, error) {
	a.conv.reset(a.Opts.Trace != nil)
	a.startRun(t, res)
	defer a.stopRun()
	if t != nil {
		res = res.Clone()
	}
	rep := &Report{}

	// Iteration 1: complete forward slack transfer to a fixed point.
	for sweep := 0; ; sweep++ {
		if sweep > a.Opts.MaxSweeps {
			return nil, a.nonConverged("forward")
		}
		rep.ForwardSweeps++
		if allPositive(res) {
			return a.finish(rep, res)
		}
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "forward", sweep, res, (*syncelem.Element).CompleteForwardAt, inSlack)
		if err != nil {
			return nil, a.cancelled("forward", sweep, err)
		}
		a.record("forward", sweep, moved, recomputed, res, start)
		if moved == 0 {
			break
		}
	}

	// Iteration 2: complete backward slack transfer to a fixed point.
	for sweep := 0; ; sweep++ {
		if sweep > a.Opts.MaxSweeps {
			return nil, a.nonConverged("backward")
		}
		rep.BackwardSweeps++
		if allPositive(res) {
			return a.finish(rep, res)
		}
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "backward", sweep, res, (*syncelem.Element).CompleteBackwardAt, outSlack)
		if err != nil {
			return nil, a.cancelled("backward", sweep, err)
		}
		a.record("backward", sweep, moved, recomputed, res, start)
		if moved == 0 {
			break
		}
	}

	// Iteration 3: one partial forward transfer per complete backward
	// cycle made; iteration 4: one partial backward per forward cycle.
	// These return some time to every fast-enough path so it ends with
	// strictly positive slack (§6). Each stops at its first sweep that
	// moves nothing: that sweep changed no offset and no slack, so every
	// later sweep of the same transfer would move nothing either.
	for k := 0; k < rep.BackwardSweeps; k++ {
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "partial-forward", k, res, func(e *syncelem.Element, odz, slack clock.Time) (clock.Time, clock.Time) {
			return e.PartialForwardAt(odz, slack, a.Opts.PartialDivisor)
		}, inSlack)
		if err != nil {
			return nil, a.cancelled("partial-forward", k, err)
		}
		a.record("partial-forward", k, moved, recomputed, res, start)
		if moved == 0 {
			break
		}
	}
	for k := 0; k < rep.ForwardSweeps; k++ {
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "partial-backward", k, res, func(e *syncelem.Element, odz, slack clock.Time) (clock.Time, clock.Time) {
			return e.PartialBackwardAt(odz, slack, a.Opts.PartialDivisor)
		}, outSlack)
		if err != nil {
			return nil, a.cancelled("partial-backward", k, err)
		}
		a.record("partial-backward", k, moved, recomputed, res, start)
		if moved == 0 {
			break
		}
	}

	// Final step: all node slacks are current in res (sweep keeps them up
	// to date, incrementally or in full).
	return a.finish(rep, res)
}

func (a *Analyzer) finish(rep *Report, res *sta.Result) (*Report, error) {
	rep.Result = res
	rep.OK = allPositive(res)
	rep.Trajectory = a.conv.full
	if !rep.OK {
		for ei := range a.CD.Elems {
			if res.MinElemSlack(ei) <= 0 {
				rep.SlowElems = append(rep.SlowElems, ei)
			}
		}
		rep.SlowPaths = a.traceSlowPaths(res)
	}
	return rep, nil
}

// SlowNets returns the names of all nets whose final node slack is
// non-positive — the nets the OCT-flagging option of §8 would mark.
func (a *Analyzer) SlowNets(res *sta.Result) []string {
	var out []string
	for n := range res.NumNets() {
		if res.NetSlack(n) <= 0 {
			out = append(out, a.CD.Nets[n])
		}
	}
	return out
}
