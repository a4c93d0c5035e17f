// Package incremental is a change-driven analysis engine over one design:
// an edit API (resize/replace cell, adjust delays, add/remove instances,
// rewire pins), a dirty-set propagator mapping each edit to the minimal set
// of affected clusters, and a cached block-analysis state reused across
// edits through sta.RecomputeContext.
//
// The paper's Algorithm 3 re-analyzes the network after every resynthesis
// edit; a full re-analysis re-elaborates clusters and re-runs every pass
// even when one gate changed. The engine instead keeps the elaborated
// network alive between edits and classifies each edit batch:
//
//   - Delay-only edits (adjustments, and resizes that preserve the cell's
//     pin/arc interface, on combinational instances outside the clock
//     cones) patch the affected arc delays in place, recompute only the
//     clusters owning those arcs against the cached initial-offset result,
//     and re-run the Algorithm 1 fixed point from there. The fixed point
//     replays the previous edit's run as a diff, kept in a core.Trajectory:
//     each sweep visits only the elements whose offset or slack differs
//     from that run's same sweep, takes that run's moves for the others,
//     and takes its segment for every cluster whose delays and boundary
//     offsets match it (core.Analyzer.IdentifySlowPathsReplay).
//   - Anything that reshapes the timing network — replacing a cell with a
//     different interface, adding or removing instances, rewiring pins, or
//     touching a synchronising element or a control cone — falls back to a
//     full re-elaboration of a copy of the design, so a failed edit never
//     corrupts the engine. The copy has its own instance slice and shares
//     the instances' Conns maps, cloning only those the batch rewires, so
//     the rebuild costs one elaboration and nothing more that grows with
//     the design.
//
// A topology checksum over the design's structure (instances, connections,
// cell interfaces — but not delays or pin caps) backstops the classifier:
// if a supposedly delay-only batch changes the checksum the engine falls
// back to full analysis rather than trust a stale elaboration. The engine
// hashes the whole design once, at open; every batch after that shifts
// the running checksum by the terms of the instances it touches.
//
// Results are bit-identical to a from-scratch core.Load + IdentifySlowPaths
// + GenerateConstraints at the same cumulative options (the equivalence
// tests assert deep equality after randomized edit sequences).
package incremental

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
)

// Edit-loop instruments, exposed in -metrics-out snapshots wherever the
// engine is linked (CLI, server, resynthesis).
var (
	mEdits             = telemetry.NewCounter("incr.edits")
	mIncrAnalyses      = telemetry.NewCounter("incr.incremental_analyses")
	mFullAnalyses      = telemetry.NewCounter("incr.full_analyses")
	mFullFallbacks     = telemetry.NewCounter("incr.full_fallbacks")
	mChecksumFallbacks = telemetry.NewCounter("incr.checksum_fallbacks")
	mDirtyClusters     = telemetry.NewCounter("incr.dirty_clusters")
)

// Op enumerates the edit kinds.
type Op uint8

const (
	// Adjust adds Delta to every arc delay of instance Inst (the
	// interactive what-if mode of §8).
	Adjust Op = iota
	// Resize points Inst at cell To. When To has the same pin and arc
	// interface as the current cell (the drive-strength ladder case) the
	// edit is delay-only; otherwise it degrades to a Replace.
	Resize
	// Replace points Inst at cell (or module) To, whatever its interface.
	Replace
	// AddInst places the instance New.
	AddInst
	// RemoveInst deletes instance Inst.
	RemoveInst
	// Rewire connects pin Pin of instance Inst to net Net (empty Net
	// disconnects the pin).
	Rewire
)

// String names the op for reports and server responses.
func (o Op) String() string {
	switch o {
	case Adjust:
		return "adjust"
	case Resize:
		return "resize"
	case Replace:
		return "replace"
	case AddInst:
		return "add"
	case RemoveInst:
		return "remove"
	case Rewire:
		return "rewire"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Edit is one design change. Which fields matter depends on Op.
type Edit struct {
	Op    Op
	Inst  string
	To    string
	Delta clock.Time
	Pin   string
	Net   string
	New   *netlist.Instance
}

// Outcome describes how one Apply batch was analyzed.
type Outcome struct {
	// Incremental is true when the cached state was patched and only the
	// dirty clusters recomputed; false when the engine fell back to a full
	// re-elaboration.
	Incremental bool
	// DirtyClusters counts the clusters invalidated by the batch
	// (meaningful when Incremental).
	DirtyClusters int
	// FallbackReason explains a non-incremental analysis: "topology
	// change" for edits classified as structural, "checksum mismatch" when
	// the topology checksum caught a misclassified batch.
	FallbackReason string
	// Report is the Algorithm 1 report after the batch.
	Report *core.Report
}

// arcRef addresses one arc: Clusters[cluster].Arcs[arc].
type arcRef struct {
	cluster, arc int32
}

// arcTable is a CSR index of the compiled design's arcs: the arcs filed
// under key k are refs[start[k]:start[k+1]].
type arcTable struct {
	start []int32
	refs  []arcRef
}

func (t *arcTable) of(k int) []arcRef { return t.refs[t.start[k]:t.start[k+1]] }

// Engine holds one design's live analysis state.
//
// Engines are not safe for concurrent use; callers serialise access
// (hummingbirdd holds one mutex per session).
type Engine struct {
	lib  *celllib.Library
	opts core.Options // cumulative; Adjustments owned by the engine

	design *netlist.Design
	an     *core.Analyzer
	// base is the block analysis at the *initial* offsets (ResetOffsets
	// state) for the current design and delays: the cached sta.Result that
	// delay-only edits patch by clone-and-swap — sta.RecomputeContext over
	// just the clusters whose delays changed, into a clone adopted only
	// when the whole edit succeeds — instead of re-running every cluster.
	// It is never handed out; each edit's working result is one Clone of
	// it.
	base *sta.Result
	// traj keeps the last Algorithm 1 run, from base, for the next delay
	// edit's run to replay as a diff.
	traj core.Trajectory
	// Reusable applyDelayOnly scratch (cleared, never reallocated, so
	// steady-state delay edits stay off the allocator).
	scrArcs map[arcRef]bool
	scrNets map[string]bool
	scrUndo []undoStep
	scrIDs  []int
	rep     *core.Report
	cons    *core.Constraints
	// odz is a second offset vector, of the analyzer's length, that holds
	// the Algorithm-1 fixed point while something else moves the state's:
	// a delay edit swaps it in before the replay, so a failed batch swaps
	// it back, and Constraints copies it in before the snatch sweeps and
	// back after them.
	odz []clock.Time
	// topo is TopologyChecksum(design, an.Lib), hashed in full at open and
	// after a checksum fallback, and shifted by every other batch.
	topo uint64

	instIdx map[string]int
	// byInst files each arc under its instance's index in the design
	// (cluster.ArcSource.Inst), byTo under the id of the net it drives.
	byInst, byTo arcTable

	// sharedCD marks that the analyzer's CompiledDesign is shared read-only
	// with other engines (opened through OpenSharedContext or published to
	// a compile cache). The first mutation of arc delays unshares it via a
	// copy-on-write clone; release is then invoked exactly once to drop the
	// engine's reference on the shared design.
	sharedCD bool
	release  func()
}

// Open is OpenContext without a deadline.
func Open(lib *celllib.Library, design *netlist.Design, opts core.Options) (*Engine, error) {
	return OpenContext(context.Background(), lib, design, opts)
}

// OpenContext elaborates the design and runs the first full analysis; on
// an expired deadline no engine is returned. The engine owns the design
// from then on: delay-only edits write it in place, and topology edits
// replace it by a copy that shares its instances' Conns maps, so neither
// the caller nor a reader of Design() may modify it — always read it back
// through Design().
func OpenContext(ctx context.Context, lib *celllib.Library, design *netlist.Design, opts core.Options) (*Engine, error) {
	opts.Adjustments = cloneAdjust(opts.Adjustments)
	e := &Engine{lib: lib, opts: opts, design: design}
	if err := e.loadFull(ctx); err != nil {
		return nil, err
	}
	e.topo = TopologyChecksum(e.design, e.an.Lib)
	return e, nil
}

// OpenSharedContext opens an engine directly on an already-compiled
// design, skipping elaboration: the first full analysis runs against cd
// with a fresh AnalysisState. design must be equivalent to the one cd was
// compiled from at the same cumulative options (callers key their compile
// caches by StateKey to guarantee this). release, if non-nil, is called
// exactly once when the engine stops referencing cd — on its first
// structural or delay mutation (which unshares onto a private copy), or
// through ReleaseShared. On error (including an expired deadline during
// the initial analysis) the shared reference is released before
// returning.
func OpenSharedContext(ctx context.Context, lib *celllib.Library, design *netlist.Design, opts core.Options, cd *cluster.CompiledDesign, release func()) (*Engine, error) {
	opts.Adjustments = cloneAdjust(opts.Adjustments)
	e := &Engine{lib: lib, opts: opts, design: design, sharedCD: true, release: release}
	mFullAnalyses.Inc()
	an := core.LoadCompiled(cd, design, e.opts)
	if err := e.analyzeFresh(ctx, an); err != nil {
		e.ReleaseShared()
		return nil, err
	}
	e.topo = TopologyChecksum(e.design, e.an.Lib)
	return e, nil
}

// Design returns the engine's current design.
func (e *Engine) Design() *netlist.Design { return e.design }

// Instance returns the current design's instance named name, or nil,
// through the engine's name index. It belongs to the engine's design:
// read it, never write it.
func (e *Engine) Instance(name string) *netlist.Instance {
	if i, ok := e.instIdx[name]; ok {
		return &e.design.Instances[i]
	}
	return nil
}

// CompiledDesign returns the analyzer's current compiled design.
func (e *Engine) CompiledDesign() *cluster.CompiledDesign { return e.an.CD }

// ShareCompiled marks the engine's compiled design as shared and installs
// the reference-drop callback — the cold-open half of a compile cache:
// open privately, publish the compiled design, then mark it shared so a
// later mutation unshares instead of corrupting other sessions.
func (e *Engine) ShareCompiled(release func()) {
	e.sharedCD = true
	e.release = release
}

// ReleaseShared drops the engine's reference on a shared compiled design,
// if any, without unsharing. Idempotent. Owners (session servers) call it
// when discarding an engine.
func (e *Engine) ReleaseShared() {
	e.sharedCD = false
	if e.release != nil {
		e.release()
		e.release = nil
	}
}

// unshare gives the engine a private copy-on-write twin of a shared
// compiled design before the first delay mutation: the flat arc backing is
// copied, and a private delay calculator is rebuilt at the engine's
// cumulative adjustments (delay evaluation is deterministic, so the clone's
// delays are bit-identical to the shared ones). No-op on private designs.
func (e *Engine) unshare() error {
	if !e.sharedCD {
		return nil
	}
	cd2 := e.an.CD.CloneArcs()
	calc, err := delaycalc.New(e.an.Lib, e.design, e.opts.Delay)
	if err != nil {
		return err
	}
	for inst, delta := range e.opts.Adjustments {
		calc.Adjust(inst, delta)
	}
	cd2.Network.Calc = calc
	e.an.CD = cd2
	e.an.St.Rebind(cd2)
	e.ReleaseShared()
	return nil
}

// Analyzer returns the live analyzer (elaborated network, resolved
// library). It is replaced by topology edits — re-fetch after Apply.
func (e *Engine) Analyzer() *core.Analyzer { return e.an }

// Report returns the Algorithm 1 report for the current state. It is
// never nil on an engine Open returned: a failed batch leaves the previous
// report in place.
func (e *Engine) Report() *core.Report { return e.rep }

// Options returns the cumulative options (base options plus every
// adjustment applied so far); the Adjustments map is a copy. Loading the
// current Design() with these options from scratch reproduces the engine's
// state exactly.
func (e *Engine) Options() core.Options {
	opts := e.opts
	opts.Adjustments = cloneAdjust(opts.Adjustments)
	return opts
}

// Constraints is ConstraintsContext without a deadline.
func (e *Engine) Constraints() (*core.Constraints, error) {
	return e.ConstraintsContext(context.Background())
}

// ConstraintsContext runs Algorithm 2 at the current fixed point, reusing
// the final Algorithm 1 analysis instead of re-analyzing, and restores the
// fixed-point offsets afterwards (the snatch sweeps move them). The result
// is cached until the next edit. An interrupted snatch fixed point also
// restores the Algorithm-1 offsets before returning, so the engine stays
// usable; only the constraints cache is left cold.
func (e *Engine) ConstraintsContext(ctx context.Context) (*core.Constraints, error) {
	if e.cons != nil {
		return e.cons, nil
	}
	e.snapshotOffsets()
	cons, err := e.an.GenerateConstraintsFromCtx(ctx, e.rep.Result.Clone())
	e.restoreOffsets()
	if err != nil {
		return nil, err
	}
	e.cons = cons
	return cons, nil
}

// Apply is ApplyContext without a deadline.
func (e *Engine) Apply(edits ...Edit) (*Outcome, error) {
	return e.ApplyContext(context.Background(), edits...)
}

// ApplyContext applies a batch of edits as one unit and re-analyzes. It
// is atomic: on any error — validation, cancellation, or a non-convergent
// fixed point — the engine (design, adjustments, delays, cached report)
// is exactly as it was before the call, so the previous report keeps
// serving and retrying the same batch applies it exactly once. A
// cancelled delay-only batch rolls its in-place patches back and a
// cancelled full rebuild never adopts the edited design copy, so callers
// that persist acknowledged batches (hummingbirdd's journal) stay
// consistent with the live engine across timeouts.
func (e *Engine) ApplyContext(ctx context.Context, edits ...Edit) (*Outcome, error) {
	// perfbench's untraced edit loop passes a nil ctx: no deadline.
	if ctx == nil {
		ctx = context.Background()
	}
	if len(edits) == 0 {
		return &Outcome{Incremental: true, Report: e.rep}, nil
	}
	_, csp := span.Start(ctx, "incr.classify")
	csp.AnnotateInt("edits", len(edits))
	delayOnly, err := e.classify(edits)
	if delayOnly {
		csp.Annotate("class", "delay-only")
	} else {
		csp.Annotate("class", "topology")
	}
	csp.End()
	if err != nil {
		return nil, err
	}
	mEdits.Add(int64(len(edits)))
	if !delayOnly {
		return e.applyFull(ctx, edits)
	}
	return e.applyDelayOnly(ctx, edits)
}

// classify validates every edit and reports whether the whole batch is
// delay-only. It performs no mutation — which makes it the chaos suite's
// injection site for "edit rejected before touching anything".
func (e *Engine) classify(edits []Edit) (bool, error) {
	if err := failpoint.Hit("incr.classify"); err != nil {
		return false, err
	}
	delayOnly := true
	// batch tracks instances added (true) or removed (false) by earlier
	// edits in this batch, so later edits can reference them.
	batch := map[string]bool{}
	exists := func(name string) bool {
		if v, ok := batch[name]; ok {
			return v
		}
		_, ok := e.instIdx[name]
		return ok
	}
	for i := range edits {
		ed := &edits[i]
		switch ed.Op {
		case AddInst:
			if ed.New == nil || ed.New.Name == "" {
				return false, fmt.Errorf("incremental: add: missing instance")
			}
			if exists(ed.New.Name) {
				return false, fmt.Errorf("incremental: add: duplicate instance %q", ed.New.Name)
			}
			batch[ed.New.Name] = true
			delayOnly = false
		case Adjust, Resize, Replace, RemoveInst, Rewire:
			if !exists(ed.Inst) {
				return false, fmt.Errorf("incremental: %s: unknown instance %q", ed.Op, ed.Inst)
			}
			switch ed.Op {
			case Adjust:
				if !e.delayLocal(ed.Inst) {
					delayOnly = false
				}
			case Resize, Replace:
				if e.lib.Cell(ed.To) == nil && e.design.Modules[ed.To] == nil {
					return false, fmt.Errorf("incremental: %s %s: unknown cell %q", ed.Op, ed.Inst, ed.To)
				}
				if ed.Op == Replace || !e.resizeCompatible(ed.Inst, ed.To) {
					delayOnly = false
				}
			case RemoveInst:
				batch[ed.Inst] = false
				delayOnly = false
			case Rewire:
				if ed.Pin == "" {
					return false, fmt.Errorf("incremental: rewire %s: missing pin", ed.Inst)
				}
				delayOnly = false
			}
		default:
			return false, fmt.Errorf("incremental: unknown op %d", ed.Op)
		}
	}
	return delayOnly, nil
}

// delayLocal reports whether edits to the instance's delays stay inside
// cluster arcs: a resolved combinational cell with no connection into a
// clock cone. Instances added earlier in the same batch never qualify.
func (e *Engine) delayLocal(name string) bool {
	idx, ok := e.instIdx[name]
	if !ok {
		return false
	}
	inst := &e.design.Instances[idx]
	cell := e.an.Lib.Cell(inst.Ref)
	if cell == nil || cell.IsSync() {
		return false
	}
	for _, net := range inst.Conns {
		if id, ok := e.an.CD.NetIdx[net]; ok && e.an.CD.IsControlNet(id) {
			return false
		}
	}
	return true
}

// resizeCompatible reports whether swapping the instance's cell for `to`
// preserves the elaborated network's shape (same pins, same arcs — only
// the delay expressions and input capacitances may differ).
func (e *Engine) resizeCompatible(name, to string) bool {
	if !e.delayLocal(name) {
		return false
	}
	cur := e.an.Lib.Cell(e.design.Instances[e.instIdx[name]].Ref)
	neu := e.an.Lib.Cell(to)
	return cur != nil && neu != nil && sameInterface(cur, neu)
}

func sameInterface(a, b *celllib.Cell) bool {
	if a.Kind != b.Kind || a.IsSync() || b.IsSync() {
		return false
	}
	if len(a.Pins) != len(b.Pins) || len(a.Arcs) != len(b.Arcs) {
		return false
	}
	pins := make(map[string]celllib.PinDir, len(a.Pins))
	for _, p := range a.Pins {
		pins[p.Name] = p.Dir
	}
	for _, p := range b.Pins {
		if d, ok := pins[p.Name]; !ok || d != p.Dir {
			return false
		}
	}
	type arcKey struct {
		from, to string
		sense    celllib.Sense
	}
	arcs := make(map[arcKey]int, len(a.Arcs))
	for _, ar := range a.Arcs {
		arcs[arcKey{ar.From, ar.To, ar.Sense}]++
	}
	for _, ar := range b.Arcs {
		k := arcKey{ar.From, ar.To, ar.Sense}
		if arcs[k] == 0 {
			return false
		}
		arcs[k]--
	}
	return true
}

// undoStep records how to reverse one delay-only mutation; adjustments
// are additive (reverse by negating the delta) and resizes restore the
// previous cell ref.
type undoStep struct {
	isAdjust bool
	inst     string     // Adjust: instance name
	delta    clock.Time // Adjust: applied delta
	instIdx  int        // Resize: instance index
	oldRef   string     // Resize: previous cell ref
}

// applyDelayOnly patches arc delays in place and recomputes only the dirty
// clusters, into a clone of the cached initial-offset result. Every error
// path runs the undo log, so a failed batch (cancellation, non-convergence,
// a failed checksum-fallback rebuild) leaves the engine bit-identical to
// its state before the call — including the cached base, which a failed
// batch never replaced, and the still-valid previous report.
func (e *Engine) applyDelayOnly(ctx context.Context, edits []Edit) (*Outcome, error) {
	// Delay-only edits mutate arc delays and the delay calculator — never
	// a shared compiled design. Unshare (copy-on-write) first.
	if err := e.unshare(); err != nil {
		return nil, err
	}
	if e.scrArcs == nil {
		e.scrArcs = map[arcRef]bool{}
		e.scrNets = map[string]bool{}
	}
	clear(e.scrArcs)
	clear(e.scrNets)
	affectedNets := e.scrNets
	dirtyArcs := e.scrArcs
	undo := e.scrUndo[:0]
	swapped := false // the fixed point's offsets are in e.odz
	rollback := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			if u.isAdjust {
				e.opts.Adjustments[u.inst] -= u.delta
				if e.opts.Adjustments[u.inst] == 0 {
					delete(e.opts.Adjustments, u.inst)
				}
				e.an.CD.Calc.Adjust(u.inst, -u.delta)
			} else {
				inst := &e.design.Instances[u.instIdx]
				e.shiftPinLoads(inst, e.an.Lib.Cell(inst.Ref), e.an.Lib.Cell(u.oldRef), affectedNets)
				inst.Ref = u.oldRef
			}
		}
		for r := range dirtyArcs {
			e.reevalArc(r)
		}
		if swapped {
			e.an.St.Odz, e.odz = e.odz, e.an.St.Odz
		}
	}
	// topo tracks the checksum across the batch: the sum-composed
	// TopologyChecksum lets each mutation shift it by (new term − old term)
	// without rehashing the whole design.
	topo := e.topo
	for _, ed := range edits {
		idx := e.instIdx[ed.Inst]
		inst := &e.design.Instances[idx]
		switch ed.Op {
		case Adjust:
			if e.opts.Adjustments == nil {
				e.opts.Adjustments = map[string]clock.Time{}
			}
			e.opts.Adjustments[inst.Name] += ed.Delta
			if e.opts.Adjustments[inst.Name] == 0 {
				delete(e.opts.Adjustments, inst.Name)
			}
			e.an.CD.Calc.Adjust(inst.Name, ed.Delta)
			undo = append(undo, undoStep{isAdjust: true, inst: inst.Name, delta: ed.Delta})
		case Resize:
			e.shiftPinLoads(inst, e.an.Lib.Cell(inst.Ref), e.an.Lib.Cell(ed.To), affectedNets)
			topo -= instanceTerm(inst, e.an.Lib, nil)
			undo = append(undo, undoStep{instIdx: idx, oldRef: inst.Ref})
			inst.Ref = ed.To
			topo += instanceTerm(inst, e.an.Lib, nil)
		}
		for _, r := range e.byInst.of(idx) {
			dirtyArcs[r] = true
		}
	}
	for net := range affectedNets {
		if id, ok := e.an.CD.NetIdx[net]; ok {
			for _, r := range e.byTo.of(id) {
				dirtyArcs[r] = true
			}
		}
	}
	ids := e.scrIDs[:0]
	for r := range dirtyArcs {
		e.reevalArc(r)
		seen := false
		for _, id := range ids {
			if id == int(r.cluster) {
				seen = true
				break
			}
		}
		if !seen {
			ids = append(ids, int(r.cluster))
		}
	}
	sort.Ints(ids)
	e.scrUndo, e.scrIDs = undo, ids

	// Checksum fallback: if the batch somehow changed the design's
	// structure (e.g. a resize onto a cell whose interface differs in a way
	// the classifier's check missed), the elaboration above is stale —
	// rebuild everything.
	if topo != e.topo {
		mChecksumFallbacks.Inc()
		if err := e.loadFull(ctx); err != nil {
			// loadFull failed before adopting anything, so the surviving
			// analyzer still matches the pre-batch design once the patches
			// are reversed.
			rollback()
			return nil, err
		}
		e.topo = TopologyChecksum(e.design, e.an.Lib)
		return &Outcome{FallbackReason: "checksum mismatch", Report: e.rep}, nil
	}

	mIncrAnalyses.Inc()
	mDirtyClusters.Add(int64(len(ids)))

	// Replay the from-scratch computation: initial offsets, a clone of the
	// cached base with just the dirty clusters recomputed, then the
	// incremental Algorithm 1 fixed point on one clone of that. Both clones
	// copy one segment header per cluster. Any interruption rolls the
	// patches back and drops the clone — the cached base and the
	// trajectory were never written, the previous report stays live, and
	// the caller can retry the identical batch. The fixed point's offsets
	// wait in e.odz, swapped out rather than copied.
	e.an.St.Odz, e.odz = e.odz, e.an.St.Odz
	swapped = true
	e.an.ResetOffsets()
	base := e.base
	if len(ids) > 0 {
		base = e.base.Clone()
		// Large dirty sets (≥ the sta threshold) ride the level-scheduled
		// parallel walk when the engine was opened with Options.Workers;
		// small ones stay on the inline path.
		if err := sta.RecomputeContext(ctx, e.an.CD, e.an.St, base, ids, e.opts.Workers); err != nil {
			rollback()
			return nil, err
		}
	}
	// The fixed point replays the previous edit's run as a diff: that run
	// started from the same initial offsets and a base that differs only
	// in the clusters recomputed above (core.Analyzer.IdentifySlowPathsReplay).
	rep, err := e.an.IdentifySlowPathsReplay(ctx, base, &e.traj)
	if err != nil {
		rollback()
		return nil, err
	}
	e.base, e.rep, e.cons = base, rep, nil
	return &Outcome{Incremental: true, DirtyClusters: len(ids), Report: rep}, nil
}

// reevalArc re-evaluates one cluster arc's delays at the current loads and
// adjustments. An instance still on the cell it was bound to evaluates the
// elaborated arc itself. After a resize, its current cell may list its pins
// and arcs in another order, so the arc is found by the elaborated arc's
// pin names.
func (e *Engine) reevalArc(r arcRef) {
	cd := e.an.CD
	cl := cd.Network.Clusters[r.cluster]
	src := cl.Src[r.arc]
	inst := &e.design.Instances[src.Inst]
	cell := e.an.Lib.Cell(inst.Ref)
	if cell == nil {
		return
	}
	ca := src.Arc
	if cell != cd.Calc.Binding().Cells[src.Inst] {
		ca = nil
		for ai := range cell.Arcs {
			if cell.Arcs[ai].From == src.Arc.From && cell.Arcs[ai].To == src.Arc.To {
				ca = &cell.Arcs[ai]
				break
			}
		}
		if ca == nil {
			return
		}
	}
	cl.Arcs[r.arc].D = cd.Calc.ArcDelaysOn(inst, ca, cl.Arcs[r.arc].To)
}

// shiftPinLoads moves the load of each net on one of inst's input pins by
// that pin's capacitance change from cell from to cell to (the same
// interface) and adds the net to nets: a changed load alters the delay of
// every arc driving the net.
func (e *Engine) shiftPinLoads(inst *netlist.Instance, from, to *celllib.Cell, nets map[string]bool) {
	for _, p := range from.Pins {
		if p.Dir != celllib.In {
			continue
		}
		if np := to.Pin(p.Name); np != nil && np.C != p.C {
			if net, ok := inst.Conns[p.Name]; ok {
				e.an.CD.Calc.ShiftLoad(net, np.C-p.C)
				nets[net] = true
			}
		}
	}
}

// applyFull applies the batch to a copy of the design and re-elaborates;
// the engine only adopts the copy if the rebuild succeeds. Around the one
// core.Load and Algorithm 1 the work follows the edit: the copy shares
// the design's Conns maps (editedCopy), and the checksum shifts by the old
// and new terms of the instances the batch touches — the new ones hashed
// against the rebuilt analyzer's library — instead of rehashing the design.
func (e *Engine) applyFull(ctx context.Context, edits []Edit) (*Outcome, error) {
	mFullFallbacks.Inc()
	const reason = "topology change"
	ctx, sp := span.Start(ctx, "incr.rebuild")
	defer sp.End()
	sp.AnnotateInt("edits", len(edits))
	sp.Annotate("reason", reason)
	d2, adj2, touched := e.editedCopy(edits)
	topo := e.topo - e.termSum(touched)
	oldDesign, oldAdj := e.design, e.opts.Adjustments
	e.design, e.opts.Adjustments = d2, adj2
	if err := e.loadFull(ctx); err != nil {
		e.design, e.opts.Adjustments = oldDesign, oldAdj
		return nil, err
	}
	e.topo = topo + e.termSum(touched)
	return &Outcome{FallbackReason: reason, Report: e.rep}, nil
}

// termSum adds up the checksum terms of the named instances the current
// design holds, hashed against the analyzer's library.
func (e *Engine) termSum(names []string) uint64 {
	var sum uint64
	for _, name := range names {
		if i, ok := e.instIdx[name]; ok {
			sum += instanceTerm(&e.design.Instances[i], e.an.Lib, nil)
		}
	}
	return sum
}

// editedCopy applies a topology batch to a copy of the design and returns
// it with the edited adjustments and the sorted names of the instances the
// batch replaces, adds, removes or rewires. The copy has its own instance
// slice but shares each instance's Conns map with the current design,
// which must therefore never be written: a Rewire edits a clone of the
// map, and an added instance gets a map of its own. Removed instances
// are tombstoned while the batch applies and compacted out in one pass at
// the end, so no edit shifts the instance slice. Module bodies are shared:
// the engine never edits inside modules.
func (e *Engine) editedCopy(edits []Edit) (*netlist.Design, map[string]clock.Time, []string) {
	d2 := *e.design
	d2.Instances = slices.Clone(e.design.Instances)
	adj2 := cloneAdjust(e.opts.Adjustments)
	// batch indexes the instances this batch added (or removed: -1).
	batch := map[string]int{}
	index := func(name string) int {
		if i, ok := batch[name]; ok {
			return i
		}
		return e.instIdx[name]
	}
	var removed []int
	var touched []string
	for _, ed := range edits {
		switch ed.Op {
		case Adjust:
			adj2[ed.Inst] += ed.Delta
			if adj2[ed.Inst] == 0 {
				delete(adj2, ed.Inst)
			}
			continue
		case Resize, Replace:
			d2.Instances[index(ed.Inst)].Ref = ed.To
		case AddInst:
			d2.Instances = append(d2.Instances, netlist.Instance{
				Name: ed.New.Name, Ref: ed.New.Ref, Conns: cloneConns(ed.New.Conns)})
			batch[ed.New.Name] = len(d2.Instances) - 1
			touched = append(touched, ed.New.Name)
			continue
		case RemoveInst:
			removed = append(removed, index(ed.Inst))
			batch[ed.Inst] = -1
			delete(adj2, ed.Inst)
		case Rewire:
			inst := &d2.Instances[index(ed.Inst)]
			inst.Conns = cloneConns(inst.Conns)
			if ed.Net == "" {
				delete(inst.Conns, ed.Pin)
			} else {
				inst.Conns[ed.Pin] = ed.Net
			}
		}
		touched = append(touched, ed.Inst)
	}
	if len(removed) > 0 {
		sort.Ints(removed)
		w := removed[0]
		for r, k := w, 0; r < len(d2.Instances); r++ {
			if k < len(removed) && removed[k] == r {
				k++
				continue
			}
			d2.Instances[w] = d2.Instances[r]
			w++
		}
		clear(d2.Instances[w:])
		d2.Instances = d2.Instances[:w]
	}
	slices.Sort(touched)
	return &d2, adj2, slices.Compact(touched)
}

// loadFull re-elaborates the current design and runs a full analysis,
// refreshing every cache but the topology checksum, which its callers
// keep. The engine's previous state, report included, survives a failed,
// interrupted or non-convergent analysis.
func (e *Engine) loadFull(ctx context.Context) error {
	mFullAnalyses.Inc()
	_, sp := span.Start(ctx, "core.load")
	an, err := core.Load(e.lib, e.design, e.opts)
	sp.End()
	if err != nil {
		return err
	}
	if err := e.analyzeFresh(ctx, an); err != nil {
		return err
	}
	// The rebuilt analyzer owns a private compiled design; drop any
	// reference still held on a shared one.
	e.ReleaseShared()
	return nil
}

// analyzeFresh runs the first full analysis on a freshly constructed
// analyzer and, on success, adopts it along with rebuilt caches and
// indexes. The engine's previous state survives a failure.
func (e *Engine) analyzeFresh(ctx context.Context, an *core.Analyzer) error {
	base, err := sta.AnalyzeContext(ctx, an.CD, an.St, an.Opts.Workers)
	if err != nil {
		return err
	}
	// A new elaboration's base has a layout of its own, so the run
	// replays nothing and records afresh.
	rep, err := an.IdentifySlowPathsReplay(ctx, base, &e.traj)
	if err != nil {
		return err
	}
	e.an, e.base, e.rep, e.cons = an, base, rep, nil
	e.snapshotOffsets() // sizes odz to the new analyzer's elements
	e.buildIndexes()
	return nil
}

func (e *Engine) snapshotOffsets() { e.odz = e.an.St.SnapshotOffsets(e.odz) }

func (e *Engine) restoreOffsets() { e.an.St.RestoreOffsets(e.odz) }

// buildIndexes indexes the instances by name and files every cluster arc
// under its instance and under its driven net.
func (e *Engine) buildIndexes() {
	e.instIdx = make(map[string]int, len(e.design.Instances))
	for i := range e.design.Instances {
		e.instIdx[e.design.Instances[i].Name] = i
	}
	clusters := e.an.CD.Network.Clusters
	e.byInst = fileArcs(clusters, len(e.design.Instances), func(cl *cluster.Cluster, ai int) int { return int(cl.Src[ai].Inst) })
	e.byTo = fileArcs(clusters, len(e.an.CD.Nets), func(cl *cluster.Cluster, ai int) int { return cl.Arcs[ai].To })
}

// fileArcs files every arc of the clusters under its key in [0, n): one
// counting pass and one placing pass. After the counts' prefix sums,
// start[k+1] is where key k's arcs begin; placing each arc advances it,
// ending where they end, which is where key k+1's begin.
func fileArcs(clusters []*cluster.Cluster, n int, key func(cl *cluster.Cluster, ai int) int) arcTable {
	start := make([]int32, n+2)
	arcs := 0
	for _, cl := range clusters {
		arcs += len(cl.Arcs)
		for ai := range cl.Arcs {
			start[key(cl, ai)+2]++
		}
	}
	for k := 2; k < len(start); k++ {
		start[k] += start[k-1]
	}
	refs := make([]arcRef, arcs)
	for ci, cl := range clusters {
		for ai := range cl.Arcs {
			k := key(cl, ai) + 1
			refs[start[k]] = arcRef{int32(ci), int32(ai)}
			start[k]++
		}
	}
	return arcTable{start: start[:n+1], refs: refs}
}

// cloneConns copies a connection map; the copy is never nil.
func cloneConns(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for pin, net := range m {
		c[pin] = net
	}
	return c
}

func cloneAdjust(m map[string]clock.Time) map[string]clock.Time {
	c := make(map[string]clock.Time, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
