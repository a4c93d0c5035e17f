// Package sta performs the block slack computation of §7 (Hitchcock's block
// method [6], with the separate rise/fall settling times of Bening et al.
// [7]): for every cluster and every break-open analysis pass it traces
// signal ready times forward (equation 1), required times backward and node
// slacks (equation 2), at the cluster's current synchronising-element
// offsets.
//
// All times inside one pass are *window coordinates*: picoseconds since the
// pass's break point β. Cluster input assertion times and output closure
// times land in the window via the breakopen position conventions, then the
// element offsets are added. Outputs the pass is not assigned to receive an
// infinite closure time ("we set the node slack to a large number", §7);
// the final slack of a node is the minimum over all passes.
package sta

import (
	"context"
	"math/bits"
	"runtime"
	"slices"

	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
)

// Hot-path instruments. Counters are atomic and lock-free; when
// telemetry is disabled each costs one atomic load (see
// internal/telemetry). Per-worker utilisation of the level-scheduled
// parallel analysis is exported directly: sta.worker.busy is a histogram
// of each worker's busy time per run, and the aggregate utilisation is
// parallel_worker_busy_ns / (parallel_wall_ns × workers). sta.steals
// counts chunks a worker executed from another worker's queue.
// sta.clusters_analyzed and sta.passes count kernel runs.
var (
	mAnalyses         = telemetry.NewCounter("sta.analyses")
	mRecomputes       = telemetry.NewCounter("sta.recomputes")
	mClustersAnalyzed = telemetry.NewCounter("sta.clusters_analyzed")
	mPasses           = telemetry.NewCounter("sta.passes")
	mParallelRuns     = telemetry.NewCounter("sta.parallel_runs")
	mParallelWorkers  = telemetry.NewCounter("sta.parallel_workers")
	mWorkerBusyNs     = telemetry.NewCounter("sta.parallel_worker_busy_ns")
	mParallelWallNs   = telemetry.NewCounter("sta.parallel_wall_ns")
	mCancelled        = telemetry.NewCounter("sta.cancelled")
	mWorkerBusy       = telemetry.NewTimer("sta.worker.busy")
	mSteals           = telemetry.NewCounter("sta.steals")
)

const (
	posInf = clock.Inf
	negInf = -clock.Inf
)

// PassDetail is the full per-net timing of one analysis pass of one
// cluster, in window coordinates.
type PassDetail struct {
	Cluster int
	Pass    int
	Beta    clock.Time
	// Nets lists the cluster's member nets (global ids); the parallel
	// slices below are indexed identically.
	Nets   []int
	ReadyR []clock.Time
	ReadyF []clock.Time
	ReqR   []clock.Time
	ReqF   []clock.Time
}

// Result is one full analysis of a network at its current offsets, held
// as one write-once segment per cluster. Every net and every element
// terminal belongs to at most one cluster (cluster.Layout), so a cluster's
// segment holds all it contributes: its member nets' slacks, its inputs'
// OutSlack, its outputs' InSlack, its pass details and the minimum of its
// terminal slacks. The kernel run that analyzes a cluster allocates its
// segment and nothing writes it afterwards, so results share segments: a
// Clone, a segment a fixed-point replay takes from an earlier run and the
// engine's patched base each copy a slice header per cluster, not slacks. A result's segment
// slice is written only by the analysis that owns it, before the result
// is handed out. A result references the design's shared, immutable
// layout — never the compiled design itself.
type Result struct {
	lay  *cluster.Layout
	segs []segment
}

// A segment is one cluster's share of a result, in one vector: [0] is the
// minimum of its terminal slacks, [1+slot] its slack slots (member nets in
// local order, then one per Input, then one per Output; see
// cluster.Layout), and the tail its pass details, 4×nets per pass:
// ReadyR, ReadyF, ReqR, ReqF. A slot no pass reaches stays +Inf.
type segment []clock.Time

// pass returns the detail vectors of pass pi of a segment of a cluster of
// n nets and np passes.
func (s segment) pass(n, np, pi int) (readyR, readyF, reqR, reqF []clock.Time) {
	d := s[len(s)-4*n*(np-pi):]
	return d[0*n : 1*n : 1*n], d[1*n : 2*n : 2*n], d[2*n : 3*n : 3*n], d[3*n : 4*n : 4*n]
}

// slot returns the value of slack slot i of cluster c, +Inf for c < 0.
func (r *Result) slot(c, i int32) clock.Time {
	if c < 0 {
		return posInf
	}
	return r.segs[c][1+i]
}

// NetSlack returns the minimum node slack of net n over all passes and
// transitions, +Inf for nets outside any analyzed cluster.
func (r *Result) NetSlack(n int) clock.Time {
	return r.slot(r.lay.NetCluster[n], r.lay.NetLocal[n])
}

// InSlack returns the node slack at element e's data input terminal (the
// cluster-output constraint), +Inf if e has no analyzed input.
func (r *Result) InSlack(e int) clock.Time {
	return r.slot(r.lay.InCluster[e], r.lay.InSlot[e])
}

// OutSlack returns the node slack at element e's output terminal: the
// tightest constraint over all paths leaving it, +Inf if none.
func (r *Result) OutSlack(e int) clock.Time {
	return r.slot(r.lay.OutCluster[e], r.lay.OutSlot[e])
}

// NumNets and NumElems return the sizes of the net and element id spaces
// NetSlack and InSlack/OutSlack index.
func (r *Result) NumNets() int  { return len(r.lay.NetCluster) }
func (r *Result) NumElems() int { return len(r.lay.InCluster) }

// Pass returns the detail of pass pi of cluster c. Its vectors are the
// result's write-once segment; callers must not write them.
func (r *Result) Pass(c, pi int) PassDetail {
	nets, breaks := r.lay.Nets[c], r.lay.Breaks[c]
	d := PassDetail{Cluster: c, Pass: pi, Beta: breaks[pi], Nets: nets}
	d.ReadyR, d.ReadyF, d.ReqR, d.ReqF = r.segs[c].pass(len(nets), len(breaks), pi)
	return d
}

// Passes returns every cluster's pass details in (cluster, pass) order,
// in a fresh slice whose vectors share the result's write-once segments.
func (r *Result) Passes() []PassDetail {
	n := 0
	for _, b := range r.lay.Breaks {
		n += len(b)
	}
	out := make([]PassDetail, 0, n)
	for c, b := range r.lay.Breaks {
		for pi := range b {
			out = append(out, r.Pass(c, pi))
		}
	}
	return out
}

// SameSegment reports whether r and o share cluster c's segment, so that
// every value cluster c owns is equal in both. Results of different
// layouts never share one.
func (r *Result) SameSegment(o *Result, c int) bool {
	return r.SameLayout(o) && r.Segment(c).Is(o.Segment(c))
}

// SameLayout reports whether r and o are results of one layout, so that
// cluster c names the same cluster in both.
func (r *Result) SameLayout(o *Result) bool { return r.lay == o.lay }

// A Segment is a handle on one cluster's write-once segment. A
// fixed-point replay moves segments between results of one layout without
// reading them: a segment is a function of its cluster's arc delays and
// boundary offsets, so a result whose cluster has the same of both may
// take another's segment.
type Segment struct{ s segment }

// Segment returns cluster c's segment.
func (r *Result) Segment(c int) Segment { return Segment{r.segs[c]} }

// SetSegment installs s as cluster c's segment. s must be a segment of
// cluster c in a result of r's layout, computed at the delays and boundary
// offsets r's cluster has; r must be the caller's own working result.
func (r *Result) SetSegment(c int, s Segment) { r.segs[c] = s.s }

// Len returns the segment's length in words.
func (s Segment) Len() int { return len(s.s) }

// Is reports whether s and o are the same segment.
func (s Segment) Is(o Segment) bool {
	return len(s.s) > 0 && len(o.s) > 0 && &s.s[0] == &o.s[0]
}

// Clone returns a copy of the result that later analyses may update
// without touching the original. Segments are write-once — the kernel run
// that allocated one is the only writer — so the copy shares them: a Clone
// is two allocations and copies one slice header per cluster.
func (r *Result) Clone() *Result {
	return &Result{lay: r.lay, segs: slices.Clone(r.segs)}
}

// MinElemSlack returns the smaller of the element's terminal slacks.
func (r *Result) MinElemSlack(e int) clock.Time {
	return min(r.InSlack(e), r.OutSlack(e))
}

// WorstSlack returns the minimum slack over every element terminal: the
// minimum of the clusters' segment minima, since a terminal outside every
// cluster reads +Inf.
func (r *Result) WorstSlack() clock.Time {
	w := posInf
	for _, s := range r.segs {
		w = min(w, s[0])
	}
	return w
}

// Analyze is AnalyzeContext on one worker without a deadline.
func Analyze(cd *cluster.CompiledDesign, st *AnalysisState) *Result {
	return AnalyzeParallel(cd, st, 1)
}

// AnalyzeParallel is AnalyzeContext without a deadline. Only an armed
// "sta.cluster" failpoint can interrupt it; it then returns nil.
func AnalyzeParallel(cd *cluster.CompiledDesign, st *AnalysisState, workers int) *Result {
	res, _ := AnalyzeContext(context.Background(), cd, st, workers)
	return res
}

// AnalyzeContext runs every pass of every cluster against the state's
// current element offsets, on up to workers goroutines (capped at
// GOMAXPROCS). The context is checked before every cluster; an expired
// deadline abandons the analysis, returning the cause. The partial result
// is discarded — an interrupted analysis is never a valid block analysis.
// The compiled design is read-only throughout — concurrent analyses may
// share it, each with its own state. Results are identical at every
// worker count.
func AnalyzeContext(ctx context.Context, cd *cluster.CompiledDesign, st *AnalysisState, workers int) (*Result, error) {
	mAnalyses.Inc()
	_, sp := span.Start(ctx, "sta.analyze")
	sp.AnnotateInt("clusters", len(cd.CC))
	defer sp.End()
	st.dirty.clear()
	for id := range cd.CC {
		st.dirty.set(id)
	}
	res := newResult(cd)
	if err := run(ctx, sp, cd, st, res, len(cd.CC), workers); err != nil {
		return nil, err
	}
	return res, nil
}

// recomputeParallelThreshold is the number of dirty clusters below which a recompute stays on the caller's goroutine: small
// sets are dominated by per-goroutine overhead, and the inline loop
// preserves the steady-state allocation guarantee of delay edits.
const recomputeParallelThreshold = 64

// RecomputeContext re-runs the block analysis for just the named clusters,
// installing fresh segments for them in res. Because every net, and every
// element terminal, belongs to at most one cluster, a cluster's
// contributions to the result can be rebuilt independently — the basis of
// the incremental mode of Algorithm 1's sweeps: after a slack transfer
// only the clusters adjacent to the moved element change. Only sets of at
// least recomputeParallelThreshold clusters are spread across the workers. res must be the caller's own working result, never one
// already handed out: results returned to callers are not written again.
// On a non-nil error res holds a mix of old and new segments and must be
// discarded.
func RecomputeContext(ctx context.Context, cd *cluster.CompiledDesign, st *AnalysisState, res *Result, clusterIDs []int, workers int) error {
	mRecomputes.Inc()
	_, sp := span.Start(ctx, "sta.recompute")
	sp.AnnotateInt("clusters", len(clusterIDs))
	defer sp.End()
	st.dirty.clear()
	for _, id := range clusterIDs {
		st.dirty.set(id)
	}
	if len(clusterIDs) < recomputeParallelThreshold {
		workers = 1
	}
	return run(ctx, sp, cd, st, res, len(clusterIDs), workers)
}

// run is the one block-analysis driver: it analyzes the n clusters marked
// in the state's dirty bitset into res, annotating sp with the worker
// count. The worker count is capped at GOMAXPROCS, since oversubscribed
// workers only contend. With one worker the cluster loop runs on the
// caller's goroutine with one pooled scratch arena; with more, the same
// kernel goes to the level-scheduled scheduler (parallel.go). Either way
// each cluster installs only its own segment, so results are
// byte-identical at every worker count.
func run(ctx context.Context, sp *span.Span, cd *cluster.CompiledDesign, st *AnalysisState, res *Result, n, workers int) error {
	workers = max(1, min(workers, n, runtime.GOMAXPROCS(0)))
	sp.AnnotateInt("workers", workers)
	if workers > 1 {
		// The dirty clusters grouped by (level, id): the cache-linear
		// traversal order of the scheduler.
		order := make([]int32, 0, n)
		for _, id := range cd.LevelOrder {
			if st.dirty.has(int(id)) {
				order = append(order, id)
			}
		}
		return runLevelScheduled(cd, st, order, workers, func() error { return interrupt(ctx) },
			func(id int32, buf *[]clock.Time) { analyzeCluster(cd, cd.CC[id], st, res, buf) })
	}
	buf := st.getScratch()
	defer st.putScratch(buf)
	for w, word := range st.dirty {
		for ; word != 0; word &= word - 1 {
			if err := interrupt(ctx); err != nil {
				return err
			}
			id := w*64 + bits.TrailingZeros64(word)
			analyzeCluster(cd, cd.CC[id], st, res, buf)
		}
	}
	return nil
}

// interrupt is the driver's per-cluster cancellation check: the
// "sta.cluster" failpoint first (so chaos tests can inject sleeps, errors
// and panics into the middle of an analysis), then the context. The
// returned error is context.Cause's, so a caller-supplied cancel cause
// propagates.
func interrupt(ctx context.Context) error {
	if err := failpoint.Hit("sta.cluster"); err != nil {
		return err
	}
	if ctx.Err() != nil {
		mCancelled.Inc()
		return context.Cause(ctx)
	}
	return nil
}

func newResult(cd *cluster.CompiledDesign) *Result {
	return &Result{lay: cd.Layout, segs: make([]segment, len(cd.CC))}
}

// analyzeCluster is the per-cluster kernel: it runs every pass of one
// cluster against a caller-owned scratch arena (≥ 4×MaxClusterNets
// entries) into a fresh segment, starting at +Inf, and installs it as the
// cluster's segment of res. Nothing else in res is touched, so concurrent
// calls on distinct clusters need no synchronisation. The segment is one
// allocation however many passes the cluster runs: it escapes into the
// caller's Result (reports and later results share it), so it cannot come
// from the pooled scratch and is never written after this call.
func analyzeCluster(cd *cluster.CompiledDesign, cc *cluster.CompiledCluster, st *AnalysisState, res *Result, buf *[]clock.Time) {
	mClustersAnalyzed.Inc()
	np := len(cc.Plan.Breaks)
	mPasses.Add(int64(np))
	T := cd.Clocks.Overall()
	n, nIn := len(cc.Nets), len(cc.Inputs)
	terms := n + nIn + len(cc.Outputs)
	seg := make(segment, 1+terms+4*n*np)
	for i := range seg[:1+terms] {
		seg[i] = posInf
	}
	netSlack := seg[1 : 1+n]
	outSlack := seg[1+n : 1+n+nIn] // the inputs' launching elements' OutSlack
	inSlack := seg[1+n+nIn : 1+terms]
	scratch := (*buf)[:4*n]
	readyR := scratch[0*n : 1*n]
	readyF := scratch[1*n : 2*n]
	reqR := scratch[2*n : 3*n]
	reqF := scratch[3*n : 4*n]

	for pi, beta := range cc.Plan.Breaks {
		for i := 0; i < n; i++ {
			readyR[i], readyF[i] = negInf, negInf
			reqR[i], reqF[i] = posInf, posInf
		}
		// Cluster input assertions (both transitions assert together).
		for ii, in := range cc.Inputs {
			e := cd.Elems[in.Elem]
			a := breakopen.AssertPos(e.IdealAssert, beta, T) + e.OutputOffsetAt(st.Odz[in.Elem])
			li := cc.InLocal[ii]
			if a > readyR[li] {
				readyR[li] = a
			}
			if a > readyF[li] {
				readyF[li] = a
			}
		}
		// Equation 1: forward ready times in topological order.
		for _, li := range cc.OrderLocal {
			rr, rf := readyR[li], readyF[li]
			if rr == negInf && rf == negInf {
				continue
			}
			for _, ai := range cc.ArcIdx[cc.ArcStart[li]:cc.ArcStart[li+1]] {
				a := &cc.Arcs[ai]
				lo := cc.ToLocal[ai]
				or, of := arcForward(a, rr, rf)
				if or > readyR[lo] {
					readyR[lo] = or
				}
				if of > readyF[lo] {
					readyF[lo] = of
				}
			}
		}
		// Closure times at assigned outputs; input-terminal slacks.
		for oi, out := range cc.Outputs {
			assigned, ok := cc.Plan.Assign[oi]
			if !ok || assigned != pi {
				continue
			}
			e := cd.Elems[out.Elem]
			c := breakopen.ClosePos(e.IdealClose, beta, T) + e.InputOffsetAt(st.Odz[out.Elem])
			li := cc.OutLocal[oi]
			if c < reqR[li] {
				reqR[li] = c
			}
			if c < reqF[li] {
				reqF[li] = c
			}
			ready := max(readyR[li], readyF[li])
			if ready != negInf {
				if s := c - ready; s < inSlack[oi] {
					inSlack[oi] = s
				}
			}
		}
		// Equation 2: required times backward in reverse topological order.
		for k := len(cc.OrderLocal) - 1; k >= 0; k-- {
			li := cc.OrderLocal[k]
			for _, ai := range cc.ArcIdx[cc.ArcStart[li]:cc.ArcStart[li+1]] {
				a := &cc.Arcs[ai]
				lo := cc.ToLocal[ai]
				qr, qf := arcBackward(a, reqR[lo], reqF[lo])
				if qr < reqR[li] {
					reqR[li] = qr
				}
				if qf < reqF[li] {
					reqF[li] = qf
				}
			}
		}
		// Output-terminal slacks of the cluster inputs, and net slacks.
		for ii, in := range cc.Inputs {
			e := cd.Elems[in.Elem]
			a := breakopen.AssertPos(e.IdealAssert, beta, T) + e.OutputOffsetAt(st.Odz[in.Elem])
			li := cc.InLocal[ii]
			q := min(reqR[li], reqF[li])
			if q != posInf {
				if s := q - a; s < outSlack[ii] {
					outSlack[ii] = s
				}
			}
		}
		for i := range netSlack {
			sr, sf := posInf, posInf
			if readyR[i] != negInf && reqR[i] != posInf {
				sr = reqR[i] - readyR[i]
			}
			if readyF[i] != negInf && reqF[i] != posInf {
				sf = reqF[i] - readyF[i]
			}
			if s := min(sr, sf); s < netSlack[i] {
				netSlack[i] = s
			}
		}
		dR, dF, qR, qF := seg.pass(n, np, pi)
		copy(dR, readyR)
		copy(dF, readyF)
		copy(qR, reqR)
		copy(qF, reqF)
	}
	// Clusters may legitimately have zero passes (no outputs): element
	// output terminals feeding them keep +Inf slack.
	for _, s := range seg[1+n : 1+terms] {
		seg[0] = min(seg[0], s)
	}
	res.segs[cc.ID] = seg
}

// arcForward maps input ready times through an arc's unateness to the
// output transitions it produces.
func arcForward(a *cluster.Arc, rr, rf clock.Time) (or, of clock.Time) {
	or, of = negInf, negInf
	switch a.Sense {
	case celllib.PositiveUnate:
		if rr != negInf {
			or = rr + a.D.MaxRise
		}
		if rf != negInf {
			of = rf + a.D.MaxFall
		}
	case celllib.NegativeUnate:
		if rf != negInf {
			or = rf + a.D.MaxRise
		}
		if rr != negInf {
			of = rr + a.D.MaxFall
		}
	default: // NonUnate
		worst := max(rr, rf)
		if worst != negInf {
			or = worst + a.D.MaxRise
			of = worst + a.D.MaxFall
		}
	}
	return or, of
}

// arcBackward maps output required times back to the arc's input.
func arcBackward(a *cluster.Arc, qr, qf clock.Time) (ir, ifl clock.Time) {
	ir, ifl = posInf, posInf
	switch a.Sense {
	case celllib.PositiveUnate:
		if qr != posInf {
			ir = qr - a.D.MaxRise
		}
		if qf != posInf {
			ifl = qf - a.D.MaxFall
		}
	case celllib.NegativeUnate:
		if qr != posInf {
			ifl = qr - a.D.MaxRise
		}
		if qf != posInf {
			ir = qf - a.D.MaxFall
		}
	default: // NonUnate
		var w clock.Time = posInf
		if qr != posInf {
			w = qr - a.D.MaxRise
		}
		if qf != posInf && qf-a.D.MaxFall < w {
			w = qf - a.D.MaxFall
		}
		ir, ifl = w, w
	}
	return ir, ifl
}

// PathDelayMax returns the worst-case combinational delay from net `from`
// to net `to` within the cluster (max over transitions), or −1 if no path
// exists. Used by slow-path enumeration and the baselines.
func PathDelayMax(cl *cluster.Cluster, from, to int) clock.Time {
	n := len(cl.Nets)
	dr := make([]clock.Time, n)
	df := make([]clock.Time, n)
	for i := range dr {
		dr[i], df[i] = negInf, negInf
	}
	ls := cl.LocalIndex(from)
	lt := cl.LocalIndex(to)
	if ls < 0 || lt < 0 {
		return -1
	}
	dr[ls], df[ls] = 0, 0
	for _, netID := range cl.Order {
		li := cl.LocalIndex(netID)
		if dr[li] == negInf && df[li] == negInf {
			continue
		}
		for _, ai := range cl.ArcsFrom(netID) {
			a := &cl.Arcs[ai]
			lo := cl.LocalIndex(a.To)
			or, of := arcForward(a, dr[li], df[li])
			if or > dr[lo] {
				dr[lo] = or
			}
			if of > df[lo] {
				df[lo] = of
			}
		}
	}
	d := max(dr[lt], df[lt])
	if d == negInf {
		return -1
	}
	return d
}

// PathDelayMin returns the best-case combinational delay from net `from` to
// net `to` (min over transitions and paths), or −1 if no path exists. Used
// by the supplementary (double-clocking) path checks of §4.
func PathDelayMin(cl *cluster.Cluster, from, to int) clock.Time {
	n := len(cl.Nets)
	dr := make([]clock.Time, n)
	df := make([]clock.Time, n)
	for i := range dr {
		dr[i], df[i] = posInf, posInf
	}
	ls := cl.LocalIndex(from)
	lt := cl.LocalIndex(to)
	if ls < 0 || lt < 0 {
		return -1
	}
	dr[ls], df[ls] = 0, 0
	for _, netID := range cl.Order {
		li := cl.LocalIndex(netID)
		if dr[li] == posInf && df[li] == posInf {
			continue
		}
		for _, ai := range cl.ArcsFrom(netID) {
			a := &cl.Arcs[ai]
			lo := cl.LocalIndex(a.To)
			var or, of clock.Time = posInf, posInf
			switch a.Sense {
			case celllib.PositiveUnate:
				if dr[li] != posInf {
					or = dr[li] + a.D.MinRise
				}
				if df[li] != posInf {
					of = df[li] + a.D.MinFall
				}
			case celllib.NegativeUnate:
				if df[li] != posInf {
					or = df[li] + a.D.MinRise
				}
				if dr[li] != posInf {
					of = dr[li] + a.D.MinFall
				}
			default:
				best := min(dr[li], df[li])
				if best != posInf {
					or = best + a.D.MinRise
					of = best + a.D.MinFall
				}
			}
			if or < dr[lo] {
				dr[lo] = or
			}
			if of < df[lo] {
				df[lo] = of
			}
		}
	}
	d := min(dr[lt], df[lt])
	if d == posInf {
		return -1
	}
	return d
}
