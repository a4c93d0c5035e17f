package core

import (
	"context"
	"math/bits"
	"slices"

	"hummingbird/internal/clock"
	"hummingbird/internal/sta"
	"hummingbird/internal/syncelem"
	"hummingbird/internal/telemetry/span"
)

// transfer is one slack-transfer operation of §6 on an element's offset,
// given the terminal slack it reads: it returns the new offset and the
// amount moved, positive exactly when the offset changes. The element's
// pure *At operations are transfers.
type transfer func(e *syncelem.Element, odz, slack clock.Time) (clock.Time, clock.Time)

// The terminal slack a transfer reads: the element's data input's or its
// output's.
const (
	inSlack  = true
	outSlack = false
)

// trajectoryWords bounds what a recorded run holds, in words per element
// of the design: a move costs two words and a replaced cluster the length
// of its segment plus two. A run's record stops growing at the bound, and
// the replay of it stops where the record does. Segments dominate: a
// clean SoC's run records a few words per element, all but its moves
// shared with the final result, while a failing design's long backward
// iteration keeps every intermediate segment of the clusters it
// re-analyzes — the whole run of SoC(8, 8, 4, 3) at 22% of its clock fits
// (483 words per element, 1.4 MB), and the 100k-cell SoC at 22% records
// about half of its 3,206 sweeps (106 MB of the 203 MB the run needs).
const trajectoryWords = 512

// A Trajectory is what an incremental engine keeps of its Algorithm 1
// runs, so that each run replays the one before it as a diff (see
// sweep). It holds the record of the last successful run, and a second
// record that the next run writes and that replaces the first only when
// that run succeeds; the two swap buffers, so steady-state runs record
// without allocating. The zero value is an empty trajectory: the first
// run replays nothing.
type Trajectory struct {
	last, rec sweepLog
}

// sweepLog records a fixed-point run sweep by sweep: per sweep, its
// iteration and index, the elements it moved with their new offsets (so
// its moved count), and the clusters whose segments it replaced with the
// new segments; and the block analysis the run started from.
type sweepLog struct {
	base   *sta.Result
	sweeps []sweepRecord
	elems  []int32
	odz    []clock.Time
	clus   []int32
	segs   []sta.Segment
	words  int
}

// sweepRecord is one sweep of a log. Its moves end at elemEnd in the
// log's elems/odz and its replacements at clusEnd in clus/segs; both
// start where the sweep before it ends.
type sweepRecord struct {
	iter             string
	k                int
	elemEnd, clusEnd int
}

func (l *sweepLog) move(e int32, odz clock.Time) {
	l.elems = append(l.elems, e)
	l.odz = append(l.odz, odz)
	l.words += 2
}

// moves records the moves of elems to the parallel offsets odz.
func (l *sweepLog) moves(elems []int32, odz []clock.Time) {
	l.elems = append(l.elems, elems...)
	l.odz = append(l.odz, odz...)
	l.words += 2 * len(elems)
}

func (l *sweepLog) replace(c int32, s sta.Segment) {
	l.clus = append(l.clus, c)
	l.segs = append(l.segs, s)
	l.words += s.Len() + 2
}

// end closes the record of sweep k of iteration iter.
func (l *sweepLog) end(iter string, k int) {
	l.sweeps = append(l.sweeps, sweepRecord{iter: iter, k: k, elemEnd: len(l.elems), clusEnd: len(l.clus)})
}

// starts returns where sweep i's moves and replacements start.
func (l *sweepLog) starts(i int) (int, int) {
	if i == 0 {
		return 0, 0
	}
	return l.sweeps[i-1].elemEnd, l.sweeps[i-1].clusEnd
}

// reset empties the log for a run from base, keeping its buffers. The
// segments it held are dropped, so that they can be collected.
func (l *sweepLog) reset(base *sta.Result) {
	clear(l.segs[:cap(l.segs)])
	*l = sweepLog{base: base, sweeps: l.sweeps[:0], elems: l.elems[:0], odz: l.odz[:0], clus: l.clus[:0], segs: l.segs[:0]}
}

// keepLast makes l the record of src's last sweep alone (src may be l):
// a run that keeps no record needs only the sweep before the current
// one.
func (l *sweepLog) keepLast(src *sweepLog) {
	n := len(src.sweeps)
	if n == 0 {
		l.reset(nil)
		return
	}
	sw := src.sweeps[n-1]
	e0, c0 := src.starts(n - 1)
	l.elems = append(l.elems[:0], src.elems[e0:sw.elemEnd]...)
	l.odz = append(l.odz[:0], src.odz[e0:sw.elemEnd]...)
	l.clus = append(l.clus[:0], src.clus[c0:sw.clusEnd]...)
	l.segs = append(l.segs[:0], src.segs[c0:sw.clusEnd]...)
	l.sweeps = append(l.sweeps[:0], sweepRecord{iter: sw.iter, k: sw.k, elemEnd: len(l.elems), clusEnd: len(l.clus)})
}

// sweepRun is the sweep machinery of one fixed-point run: where its
// sweeps are recorded, the previous run it replays, and scratch reused
// across sweeps and runs.
type sweepRun struct {
	// log receives the run's sweeps: the trajectory being recorded, or
	// scratch, which keeps only the sweep before the current one.
	log     *sweepLog
	scratch sweepLog
	// maxWords is the recorded log's bound (trajectoryWords per element).
	maxWords int

	// prev is the run being replayed, nil when there is none or the
	// replay stopped; next is its sweep the current sweep replays.
	prev *sweepLog
	next int
	// The current run's diff from prev at the replay point: the elements
	// whose offsets differ, with prev's offsets; the clusters whose
	// segments differ, with prev's segments; and the stale clusters,
	// whose delays differ, which stay in the diff.
	dElems, nElems []int32
	dOdz, nOdz     []clock.Time
	dClus, nClus   []int32
	dSegs, nSegs   []sta.Segment
	stale          []int32

	// The visit list and its set, sized to the design on first use.
	visit   []int32
	inVisit bitset
	// Replay scratch, parallel to visit: where each visited element falls
	// among prev's moves, and whether it moved. Then, sized to the design
	// on the first replay: prev's offset of each visited element; prev's
	// segment of each cluster it replaced or that is in the diff, with the
	// set marking them; and the set of the next diff's clusters.
	at      []int
	stepped []bool
	refOdz  []clock.Time
	refSeg  []sta.Segment
	hasRef  bitset
	inDiff  bitset
}

// bitset is a reusable set of element or cluster ids.
type bitset []uint64

func newBitset(n int) bitset      { return make(bitset, (n+63)/64) }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) each(fn func(int32)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			fn(int32(w*64 + bits.TrailingZeros64(word)))
		}
	}
}

// startRun readies the sweep machinery for a fixed-point run. With a
// trajectory t, the run starts from base, records into t's second record
// and replays t's last run when that run started from a result of base's
// layout: both runs start at the initial offsets, so they differ only in
// the clusters whose base segments differ — those whose arc delays
// changed in between — which stay in the diff as stale. Without one, the
// run records into scratch and replays nothing.
func (a *Analyzer) startRun(t *Trajectory, base *sta.Result) {
	r := &a.run
	r.prev, r.next = nil, 0
	if t != nil {
		t.rec.reset(base)
	}
	if t == nil || a.Opts.FullSweeps {
		// Under FullSweeps t records an empty run, so the next run
		// replays nothing either.
		r.log = &r.scratch
		r.scratch.reset(nil)
		return
	}
	r.log = &t.rec
	r.maxWords = trajectoryWords * len(a.CD.Elems)
	last := &t.last
	if last.base == nil || len(last.sweeps) == 0 || !last.base.SameLayout(base) {
		return
	}
	a.initScratch(true)
	r.prev = last
	r.dElems, r.dOdz = r.dElems[:0], r.dOdz[:0]
	r.dClus, r.dSegs, r.stale = r.dClus[:0], r.dSegs[:0], r.stale[:0]
	for c := range a.CD.CC {
		if !base.SameSegment(last.base, c) {
			r.stale = append(r.stale, int32(c))
			r.dClus = append(r.dClus, int32(c))
			r.dSegs = append(r.dSegs, last.base.Segment(c))
		}
	}
}

// stopRun ends a run: the scratch log goes, so an analyzer that records
// nothing keeps nothing of its runs, and the diff lets go of the
// segments it holds.
func (a *Analyzer) stopRun() {
	r := &a.run
	r.log, r.prev = nil, nil
	r.scratch = sweepLog{}
	clear(r.dSegs[:cap(r.dSegs)])
	clear(r.nSegs[:cap(r.nSegs)])
	clear(r.refSeg)
}

// initScratch allocates the design-sized scratch once per analyzer: the
// visit set, and with replay the replay's.
func (a *Analyzer) initScratch(replay bool) {
	r := &a.run
	nE, nC := len(a.CD.Elems), len(a.CD.CC)
	if r.inVisit == nil {
		r.inVisit = newBitset(nE)
	}
	if replay && r.refOdz == nil {
		r.refOdz = make([]clock.Time, nE)
		r.refSeg = make([]sta.Segment, nC)
		r.hasRef, r.inDiff = newBitset(nC), newBitset(nC)
	}
}

// sweep applies op once to the elements against the current result,
// reading each element's InSlack (in == inSlack) or OutSlack, records
// the sweep and refreshes res — incrementally over the touched clusters
// unless FullSweeps is set. It returns how many element offsets moved and
// how many clusters were re-analyzed. iter and k name the fixed-point
// iteration and the sweep's index within it, labelling the per-sweep
// request span (each sweep of a traced request becomes one "core.sweep"
// child whose own child is the sta recompute it triggered). The
// re-analysis is abandoned mid-sweep when ctx expires, returning the
// cause — res is then stale and must be discarded.
//
// A sweep visits only the elements whose inputs may differ from those of
// a reference sweep of the same transfer, and takes the reference's
// outcome for every other element. This is exact: a transfer is a pure
// function of its element, offset and slack, and a cluster's segment —
// every slack it holds — a pure function of the cluster's arc delays and
// its boundary offsets (the offsets of the elements on its inputs and
// outputs). An element whose offset equals the reference's and whose
// slack lies in a segment the reference's result shares therefore moves
// exactly as it moved there, by the same amount. The reference is:
//
//   - while a run replays the previous one (a delay edit on an
//     incremental engine), the previous run's sweep with the same
//     iteration and index. The visited elements are those whose offset
//     differs from the previous run's and the readers of every cluster
//     whose segment differs; every other element takes the previous
//     run's new offset. A cluster whose delays and boundary offsets equal
//     the previous run's after its sweep takes the previous run's segment;
//     the others that this sweep dirtied are re-analyzed. The replay stops
//     for good at the first sweep whose iteration or index differs from
//     the previous run's, or where its record ends.
//   - otherwise, the sweep before in the same iteration: the visited
//     elements are those it moved and the readers of the clusters whose
//     segments it replaced. No other element's offset or slack changed,
//     so none would move.
//   - for the first sweep of an iteration that replays nothing, and for
//     every sweep under FullSweeps (the oracle), none: every element is
//     visited.
//
// Recording or replaying a sweep costs what it moves and replaces, never
// a pass over every element.
func (a *Analyzer) sweep(ctx context.Context, iter string, k int, res *sta.Result, op transfer, in bool) (*sta.Result, int, int, error) {
	mSweeps.Inc()
	sctx, sp := span.Start(ctx, "core.sweep")
	sp.Annotate("iteration", iter)
	sp.AnnotateInt("sweep", k)
	defer sp.End()
	r := &a.run
	log := r.log
	if log == &r.scratch {
		log.keepLast(log)
	} else if log.words > r.maxWords {
		// The record is full: it ends here, and the rest of the run is
		// kept like an unrecorded one's.
		r.scratch.keepLast(log)
		log, r.log = &r.scratch, &r.scratch
	}
	clear(a.dirty)
	ids := a.dirtyIDs[:0]
	var moved, visited int
	if a.replaying(iter, k) {
		mSweepsReplayed.Inc()
		sp.Annotate("reference", "previous run")
		moved, visited, ids = a.replay(res, op, in, log, ids)
	} else {
		if n := len(log.sweeps); !a.Opts.FullSweeps && n > 0 && log.sweeps[n-1].iter == iter && log.sweeps[n-1].k == k-1 {
			sp.Annotate("reference", "previous sweep")
			moved, visited = a.stepChanged(res, op, in, log)
		} else {
			for e := range a.CD.Elems {
				if a.step(int32(e), res, op, in, log) {
					moved++
				}
			}
			visited = len(a.CD.Elems)
		}
		a.dirty.each(func(c int32) { ids = append(ids, int(c)) })
	}
	a.dirtyIDs = ids
	mElemsVisited.Add(int64(visited))
	sp.AnnotateInt("visited", visited)
	sp.AnnotateInt("moved", moved)
	if moved > 0 {
		mOffsetsMoved.Add(int64(moved))
	}
	if a.Opts.FullSweeps {
		log.end(iter, k)
		if moved == 0 {
			return res, 0, 0, nil
		}
		mFullSweeps.Inc()
		r, err := sta.AnalyzeContext(sctx, a.CD, a.St, a.Opts.Workers)
		return r, moved, len(a.CD.CC), err
	}
	mIncrClusters.Add(int64(len(ids)))
	mIncrSkipped.Add(int64(len(a.CD.CC) - len(ids)))
	if len(ids) > 0 {
		if err := sta.RecomputeContext(sctx, a.CD, a.St, res, ids, a.Opts.Workers); err != nil {
			return nil, moved, len(ids), err
		}
		for _, c := range ids {
			log.replace(int32(c), res.Segment(c))
		}
	}
	log.end(iter, k)
	return res, moved, len(ids), nil
}

// transferElem applies op to element e against res; a move dirties the
// clusters on both of e's terminals.
func (a *Analyzer) transferElem(e int32, res *sta.Result, op transfer, in bool) bool {
	var slack clock.Time
	if in {
		slack = res.InSlack(int(e))
	} else {
		slack = res.OutSlack(int(e))
	}
	odz, amt := op(a.CD.Elems[e], a.St.Odz[e], slack)
	if amt <= 0 {
		return false
	}
	a.St.Odz[e] = odz
	a.markMoved(e)
	return true
}

// step is transferElem with the move recorded.
func (a *Analyzer) step(e int32, res *sta.Result, op transfer, in bool, log *sweepLog) bool {
	if !a.transferElem(e, res, op, in) {
		return false
	}
	log.move(e, a.St.Odz[e])
	return true
}

// markMoved marks the clusters on both terminals of a moved element
// dirty.
func (a *Analyzer) markMoved(e int32) {
	lay := a.CD.Layout
	if c := lay.InCluster[e]; c >= 0 {
		a.dirty.set(c)
	}
	if c := lay.OutCluster[e]; c >= 0 {
		a.dirty.set(c)
	}
}

// addVisit adds e to the visit list once.
func (r *sweepRun) addVisit(e int32) bool {
	if r.inVisit.has(e) {
		return false
	}
	r.inVisit.set(e)
	r.visit = append(r.visit, e)
	return true
}

// visitReaders adds to the visit list every element whose transfer reads
// a slack in cluster c: its capturing elements for an input-slack
// transfer, its launching ones for an output-slack transfer. refOdz, if
// set, receives the current offsets of the elements added.
func (a *Analyzer) visitReaders(c int32, in bool, refOdz []clock.Time) {
	r := &a.run
	cl := a.CD.Network.Clusters[c]
	add := func(e int32) {
		if r.addVisit(e) && refOdz != nil {
			refOdz[e] = a.St.Odz[e]
		}
	}
	if in {
		for _, o := range cl.Outputs {
			add(int32(o.Elem))
		}
	} else {
		for _, i := range cl.Inputs {
			add(int32(i.Elem))
		}
	}
}

// stepChanged is a sweep against the sweep before it in its iteration:
// it visits the elements that sweep moved and the readers of the clusters
// whose segments it replaced.
func (a *Analyzer) stepChanged(res *sta.Result, op transfer, in bool, log *sweepLog) (moved, visited int) {
	a.initScratch(false)
	r := &a.run
	i := len(log.sweeps) - 1
	e0, c0 := log.starts(i)
	sw := log.sweeps[i]
	r.visit = r.visit[:0]
	for _, e := range log.elems[e0:sw.elemEnd] {
		r.addVisit(e)
	}
	for _, c := range log.clus[c0:sw.clusEnd] {
		a.visitReaders(c, in, nil)
	}
	slices.Sort(r.visit)
	for _, e := range r.visit {
		r.inVisit.unset(e)
		if a.step(e, res, op, in, log) {
			moved++
		}
	}
	return moved, len(r.visit)
}

// replaying reports whether sweep k of iteration iter replays the
// previous run's sweep; the replay stops for good at the first sweep
// that does not match.
func (a *Analyzer) replaying(iter string, k int) bool {
	r := &a.run
	if r.prev == nil {
		return false
	}
	if r.next < len(r.prev.sweeps) && r.prev.sweeps[r.next].iter == iter && r.prev.sweeps[r.next].k == k {
		return true
	}
	r.prev = nil
	return false
}

// replay is a sweep against the previous run's same sweep (see sweep).
// It appends the clusters to re-analyze to ids. A sweep records its moves
// in element order, so the visited elements are found among the previous
// run's moves by binary search, and the moves between them are copied in
// runs.
func (a *Analyzer) replay(res *sta.Result, op transfer, in bool, log *sweepLog, ids []int) (moved, visited int, _ []int) {
	r := &a.run
	prev, odz, lay := r.prev, a.St.Odz, a.CD.Layout
	e0, c0 := prev.starts(r.next)
	sw := prev.sweeps[r.next]
	r.next++
	pe, po := prev.elems[e0:sw.elemEnd], prev.odz[e0:sw.elemEnd]

	// Visit the elements whose offsets differ, then the readers of the
	// clusters whose segments differ; refOdz holds the previous run's
	// offset of each, and then its new offset there.
	r.visit = r.visit[:0]
	for i, e := range r.dElems {
		r.addVisit(e)
		r.refOdz[e] = r.dOdz[i]
	}
	for _, c := range r.dClus {
		a.visitReaders(c, in, r.refOdz)
	}
	slices.Sort(r.visit)
	// Every element the previous run moved that is not visited moves
	// alike.
	moved = len(pe)
	at := r.at[:0]
	for _, e := range r.visit {
		j, found := slices.BinarySearch(pe, e)
		if found {
			r.refOdz[e] = po[j]
			moved--
		}
		at = append(at, j)
	}
	r.at = at
	// A visited element transfers afresh, and joins the next diff if its
	// new offset differs from the previous run's.
	nE, nO := r.nElems[:0], r.nOdz[:0]
	stepped := r.stepped[:0]
	for _, e := range r.visit {
		ok := a.transferElem(e, res, op, in)
		if ok {
			moved++
		}
		stepped = append(stepped, ok)
		if odz[e] != r.refOdz[e] {
			nE = append(nE, e)
			nO = append(nO, r.refOdz[e])
		}
	}
	r.stepped = stepped

	// The previous run's segments after its sweep: its replacements, else
	// the diff's, else this run's, which were equal until now.
	pc, ps := prev.clus[c0:sw.clusEnd], prev.segs[c0:sw.clusEnd]
	for i, c := range r.dClus {
		r.refSeg[c] = r.dSegs[i]
		r.hasRef.set(c)
	}
	for i, c := range pc {
		r.refSeg[c] = ps[i]
		r.hasRef.set(c)
	}
	// The next diff's clusters: the stale ones and those on a terminal of
	// an element in the next diff. No other cluster's delays or boundary
	// offsets differ from the previous run's.
	nC, nS := r.nClus[:0], r.nSegs[:0]
	addDiff := func(c int32) {
		if c < 0 || r.inDiff.has(c) {
			return
		}
		r.inDiff.set(c)
		nC = append(nC, c)
		if r.hasRef.has(c) {
			nS = append(nS, r.refSeg[c])
		} else {
			nS = append(nS, res.Segment(int(c)))
		}
	}
	for _, c := range r.stale {
		addDiff(c)
	}
	for _, e := range nE {
		addDiff(lay.InCluster[e])
		addDiff(lay.OutCluster[e])
	}
	// A cluster in the next diff is dirty if an element on its boundary
	// moved: a visited one marked it already; an unvisited one moved if
	// the previous run moved it.
	movedAlike := func(e int32) bool {
		_, found := slices.BinarySearch(pe, e)
		return found && !r.inVisit.has(e)
	}
	for _, c := range nC {
		if a.dirty.has(c) {
			continue
		}
		cl := a.CD.Network.Clusters[c]
		for _, i := range cl.Inputs {
			if movedAlike(int32(i.Elem)) {
				a.dirty.set(c)
				break
			}
		}
		for _, o := range cl.Outputs {
			if !a.dirty.has(c) && movedAlike(int32(o.Elem)) {
				a.dirty.set(c)
			}
		}
	}

	// Record the moves in element order: the previous run's between the
	// visited elements, applied here, and the visited ones that moved.
	from := 0
	for i, e := range r.visit {
		r.inVisit.unset(e)
		j := at[i]
		applyMoves(odz, pe[from:j], po[from:j], log)
		if j < len(pe) && pe[j] == e {
			j++
		}
		from = j
		if stepped[i] {
			log.move(e, odz[e])
		}
	}
	applyMoves(odz, pe[from:], po[from:], log)

	// A dirty cluster in the next diff, or one the previous run's sweep
	// left alone, is re-analyzed; every other cluster the previous run's
	// sweep replaced, or that leaves the diff, takes the previous run's
	// segment.
	a.dirty.each(func(c int32) {
		if r.inDiff.has(c) || !r.hasRef.has(c) {
			ids = append(ids, int(c))
		}
	})
	take := func(c int32) {
		if !r.hasRef.has(c) {
			return
		}
		r.hasRef.unset(c)
		if s := r.refSeg[c]; !r.inDiff.has(c) && !res.Segment(int(c)).Is(s) {
			res.SetSegment(int(c), s)
			log.replace(c, s)
		}
	}
	for _, c := range r.dClus {
		take(c)
	}
	for _, c := range pc {
		take(c)
	}
	for _, c := range nC {
		r.inDiff.unset(c)
	}
	r.dElems, r.nElems, r.dOdz, r.nOdz = nE, r.dElems, nO, r.dOdz
	r.dClus, r.nClus, r.dSegs, r.nSegs = nC, r.dClus, nS, r.dSegs
	return moved, len(r.visit), ids
}

// applyMoves sets the offsets of elems to odzs and records the moves.
func applyMoves(odz []clock.Time, elems []int32, odzs []clock.Time, log *sweepLog) {
	for i, e := range elems {
		odz[e] = odzs[i]
	}
	log.moves(elems, odzs)
}
