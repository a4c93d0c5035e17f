package core

import (
	"context"
	"sort"
	"time"

	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/sta"
	"hummingbird/internal/syncelem"
	"hummingbird/internal/telemetry"
)

// Constraints is Algorithm 2's output: signal ready times (traced forward,
// iteration 1) and required times (traced backward, iteration 2) for every
// net, per cluster analysis pass, in that pass's window coordinates.
//
// For every node on a too-slow path these are the *actual* times; for every
// other node they are an upper bound on the ready time and a lower bound on
// the required time such that, for any two nodes on a combinational path,
// the difference exceeds the path delay (§3). A re-synthesis tool may speed
// any path up to meet them, or slow a fast path down within them.
type Constraints struct {
	// Ready holds the pass details after the backward-snatch fixed point;
	// its ReadyR/ReadyF fields are the recorded ready times at all cell
	// inputs.
	Ready []sta.PassDetail
	// Required holds the pass details after the forward-snatch fixed
	// point; its ReqR/ReqF fields are the recorded required times at all
	// cell outputs. Both are in (cluster, pass) order, so Required[i] is
	// the pass Ready[i] is.
	Required []sta.PassDetail
	// BackwardSnatches and ForwardSnatches count the fixed-point sweeps.
	BackwardSnatches, ForwardSnatches int
	// Trajectory is the convergence trace of the snatch iterations, one
	// event per sweep. Populated only when Options.Trace is set.
	Trajectory []telemetry.SweepEvent

	// lay locates each net's cluster and its slot in the cluster's passes.
	lay *cluster.Layout
}

// GenerateConstraints runs Algorithm 2 from a fresh block analysis. The
// analyzer's offsets should already be at Algorithm 1's fixed point
// (Initialise: "Use Algorithm 1 to generate initial offsets"); call
// IdentifySlowPaths first.
func (a *Analyzer) GenerateConstraints() (*Constraints, error) {
	t0 := time.Now()
	defer func() { tConstraints.Observe(time.Since(t0)) }()
	ctx := context.Background()
	res, err := sta.AnalyzeContext(ctx, a.CD, a.St, a.Opts.Workers)
	if err != nil {
		a.conv.reset(a.Opts.Trace != nil)
		return nil, a.cancelled("", 0, err)
	}
	return a.generateConstraintsFrom(ctx, res)
}

// GenerateConstraintsFrom is GenerateConstraintsFromCtx without a
// deadline.
func (a *Analyzer) GenerateConstraintsFrom(res *sta.Result) (*Constraints, error) {
	return a.GenerateConstraintsFromCtx(context.Background(), res)
}

// GenerateConstraintsFromCtx runs Algorithm 2 starting from res, which
// must be the block analysis of the network at the current
// (post-Algorithm-1) offsets — typically a clone of the Report's final
// Result. res is consumed: the snatch fixed points mutate it in place.
// Note the snatches also move the element offsets; callers that want to
// keep using the Algorithm-1 fixed point must save and restore the
// offsets around this call. The context is checked inside every snatch
// sweep; interruptions surface as *CancelledError, after which the
// offsets must be restored (or the analyzer reloaded) before further use.
func (a *Analyzer) GenerateConstraintsFromCtx(ctx context.Context, res *sta.Result) (*Constraints, error) {
	t0 := time.Now()
	defer func() { tConstraints.Observe(time.Since(t0)) }()
	return a.generateConstraintsFrom(ctx, res)
}

// generateConstraintsFrom is Algorithm 2; every sweep is interruptible.
func (a *Analyzer) generateConstraintsFrom(ctx context.Context, res *sta.Result) (*Constraints, error) {
	a.conv.reset(a.Opts.Trace != nil)
	a.startRun(nil, nil, nil, nil)
	defer a.stopRun()
	c := &Constraints{lay: a.CD.Layout}

	// Iteration 1: snatch time backward across all synchronising elements
	// until none is snatched; this traces actual ready times forward
	// through the network, stopping when the actual times have been found
	// for nodes in paths that are too slow.
	for sweep := 0; ; sweep++ {
		if sweep > a.Opts.MaxSweeps {
			return nil, a.nonConverged("snatch-backward")
		}
		c.BackwardSnatches++
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "snatch-backward", sweep, res, (*syncelem.Element).SnatchBackwardAt, inSlack)
		if err != nil {
			return nil, a.cancelled("snatch-backward", sweep, err)
		}
		a.record("snatch-backward", sweep, moved, recomputed, res, start)
		if moved == 0 {
			c.Ready = res.Passes()
			break
		}
	}

	// Iteration 2: snatch time forward until none; traces required times
	// backwards.
	for sweep := 0; ; sweep++ {
		if sweep > a.Opts.MaxSweeps {
			return nil, a.nonConverged("snatch-forward")
		}
		c.ForwardSnatches++
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "snatch-forward", sweep, res, (*syncelem.Element).SnatchForwardAt, outSlack)
		if err != nil {
			return nil, a.cancelled("snatch-forward", sweep, err)
		}
		a.record("snatch-forward", sweep, moved, recomputed, res, start)
		if moved == 0 {
			c.Required = res.Passes()
			break
		}
	}
	c.Trajectory = a.conv.full
	return c, nil
}

// NetTimes is the recorded timing of one net in one analysis pass.
type NetTimes struct {
	Cluster, Pass        int
	Beta                 clock.Time
	ReadyRise, ReadyFall clock.Time
	ReqRise, ReqFall     clock.Time
}

// Ready returns the later of the recorded rise/fall ready times.
func (n NetTimes) Ready() clock.Time {
	if n.ReadyRise > n.ReadyFall {
		return n.ReadyRise
	}
	return n.ReadyFall
}

// Required returns the earlier of the recorded rise/fall required times.
func (n NetTimes) Required() clock.Time {
	if n.ReqRise < n.ReqFall {
		return n.ReqRise
	}
	return n.ReqFall
}

// passes returns the net's cluster and its slot there, and the range of
// that cluster's passes in Ready and Required; an empty range for a net
// outside every cluster.
func (c *Constraints) passes(net int) (cl, slot, lo, hi int) {
	if net < 0 || net >= len(c.lay.NetCluster) || c.lay.NetCluster[net] < 0 {
		return -1, -1, 0, 0
	}
	cl, slot = int(c.lay.NetCluster[net]), int(c.lay.NetLocal[net])
	lo = sort.Search(len(c.Ready), func(i int) bool { return c.Ready[i].Cluster >= cl })
	return cl, slot, lo, lo + len(c.lay.Breaks[cl])
}

// NetTimes collects the per-pass recorded times of one net (global id):
// one entry per pass of its cluster.
func (c *Constraints) NetTimes(net int) []NetTimes {
	_, li, lo, hi := c.passes(net)
	var out []NetTimes
	for i := lo; i < hi; i++ {
		rp, qp := &c.Ready[i], &c.Required[i]
		out = append(out, NetTimes{
			Cluster: rp.Cluster, Pass: rp.Pass, Beta: rp.Beta,
			ReadyRise: rp.ReadyR[li], ReadyFall: rp.ReadyF[li],
			ReqRise: qp.ReqR[li], ReqFall: qp.ReqF[li],
		})
	}
	return out
}

// Allowed returns the tightest delay budget between two nets over all
// passes where both are analyzed: min over passes of (required(to) −
// ready(from)). A combinational path from→to is fast enough whenever its
// worst delay does not exceed this budget. Returns +Inf if the pair never
// appears in a common pass: the nets are in different clusters, or either
// in none.
func (c *Constraints) Allowed(from, to int) clock.Time {
	budget := clock.Inf
	fc, fi, lo, hi := c.passes(from)
	tc, ti, _, _ := c.passes(to)
	if fc < 0 || fc != tc {
		return budget
	}
	for i := lo; i < hi; i++ {
		rp, qp := &c.Ready[i], &c.Required[i]
		ready := max(rp.ReadyR[fi], rp.ReadyF[fi])
		req := min(qp.ReqR[ti], qp.ReqF[ti])
		if ready == -clock.Inf || req == clock.Inf {
			continue
		}
		budget = min(budget, req-ready)
	}
	return budget
}
