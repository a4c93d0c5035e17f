package core

import (
	"fmt"
	"strings"
	"time"

	"hummingbird/internal/clock"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
)

// Hot-path instruments of the fixed-point driver. Sweep counts and the
// incremental-vs-full recompute split are the measurements the
// Options.FullSweeps tradeoff (ablation A6) is decided by.
var (
	mSweeps         = telemetry.NewCounter("core.sweeps")
	mOffsetsMoved   = telemetry.NewCounter("core.offsets_moved")
	mElemsVisited   = telemetry.NewCounter("core.elements_visited")
	mSweepsReplayed = telemetry.NewCounter("core.sweeps_replayed")
	mFullSweeps     = telemetry.NewCounter("core.full_recomputes")
	mIncrClusters   = telemetry.NewCounter("core.incremental_clusters")
	mIncrSkipped    = telemetry.NewCounter("core.incremental_clusters_skipped")

	tLoad        = telemetry.NewTimer("phase.load")
	tAnalysis    = telemetry.NewTimer("phase.analysis")
	tConstraints = telemetry.NewTimer("phase.constraints")
)

// trailLen is how many of the most recent sweeps every analysis run
// retains for non-convergence diagnostics, tracing or not.
const trailLen = 6

// convTrail is the convergence-trace state of one fixed-point run: an
// always-on ring of the most recent sweep events (preallocated — the
// untraced path must not allocate per sweep) plus, when a Tracer is
// attached, the full trajectory for the Report.
type convTrail struct {
	ring   [trailLen]telemetry.SweepEvent
	n      int
	retain bool
	full   []telemetry.SweepEvent
}

func (c *convTrail) reset(retain bool) {
	c.n = 0
	c.retain = retain
	c.full = nil
}

func (c *convTrail) add(ev telemetry.SweepEvent) {
	c.ring[c.n%trailLen] = ev
	c.n++
	if c.retain {
		c.full = append(c.full, ev)
	}
}

// tail returns the retained most-recent events, oldest first.
func (c *convTrail) tail() []telemetry.SweepEvent {
	k := c.n
	if k > trailLen {
		k = trailLen
	}
	out := make([]telemetry.SweepEvent, 0, k)
	for i := c.n - k; i < c.n; i++ {
		out = append(out, c.ring[i%trailLen])
	}
	return out
}

// NonConvergenceError reports a fixed-point iteration that exhausted
// Options.MaxSweeps. Trail carries the last few convergence-trajectory
// entries so a user can tell a genuinely diverging configuration from a
// feasible near-critical latch loop (§6: such loops legitimately need
// on the order of W/loop-slack sweeps — raise MaxSweeps for those).
type NonConvergenceError struct {
	// Iteration names the loop that failed to settle (see
	// telemetry.SweepEvent.Iteration).
	Iteration string
	// MaxSweeps is the cap that was exhausted.
	MaxSweeps int
	// Trail holds the trailing sweep events, oldest first.
	Trail []telemetry.SweepEvent
}

func (e *NonConvergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %s iteration exceeded %d sweeps (non-convergence); "+
		"a feasible near-critical latch loop may need ~W/loop-slack sweeps — raise Options.MaxSweeps if the trailing slacks are still improving", e.Iteration, e.MaxSweeps)
	if len(e.Trail) > 0 {
		b.WriteString("; trailing sweeps:")
		for _, ev := range e.Trail {
			fmt.Fprintf(&b, " [%s %d: moved %d, recomputed %d, worst %v]",
				ev.Iteration, ev.Sweep, ev.Moved, ev.Recomputed, clock.Time(ev.WorstSlackPs))
		}
	}
	return b.String()
}

// nonConverged builds the error for the named iteration from the
// current trail.
func (a *Analyzer) nonConverged(iter string) error {
	return &NonConvergenceError{Iteration: iter, MaxSweeps: a.Opts.MaxSweeps, Trail: a.conv.tail()}
}

// CancelledError reports a fixed-point run interrupted before it settled —
// a request deadline expired, the caller cancelled, or a fault was
// injected. It carries the same trailing convergence trajectory as
// NonConvergenceError, so the partial progress is visible, and unwraps to
// the cause: errors.Is(err, context.DeadlineExceeded) distinguishes a
// deadline from an explicit cancel.
type CancelledError struct {
	// Iteration names the loop that was interrupted (empty if the
	// interruption hit the initial full analysis, before any sweep).
	Iteration string
	// Sweep is the sweep index within the iteration at interruption.
	Sweep int
	// Trail holds the trailing sweep events, oldest first.
	Trail []telemetry.SweepEvent
	// Cause is the underlying interruption (context cause or injected
	// fault).
	Cause error
}

func (e *CancelledError) Error() string {
	where := "initial analysis"
	if e.Iteration != "" {
		where = fmt.Sprintf("%s iteration, sweep %d", e.Iteration, e.Sweep)
	}
	return fmt.Sprintf("core: analysis cancelled during %s: %v", where, e.Cause)
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// cancelled builds the error for an interruption in the named iteration.
func (a *Analyzer) cancelled(iter string, sweep int, cause error) error {
	return &CancelledError{Iteration: iter, Sweep: sweep, Trail: a.conv.tail(), Cause: cause}
}

// sweepStart reads the clock only when a tracer is attached: untraced
// sweeps never pay for time.Now.
func (a *Analyzer) sweepStart() time.Time {
	if a.Opts.Trace != nil {
		return time.Now()
	}
	return time.Time{}
}

// record captures one sweep's convergence event: always into the ring
// (for error tails), and to the tracer + retained trajectory when
// tracing is on.
func (a *Analyzer) record(iter string, sweep, moved, recomputed int, res *sta.Result, start time.Time) {
	ev := telemetry.SweepEvent{
		Iteration: iter, Sweep: sweep, Moved: moved, Recomputed: recomputed,
		WorstSlackPs: int64(res.WorstSlack()),
	}
	if a.Opts.Trace != nil {
		ev.ElapsedNs = time.Since(start).Nanoseconds()
		a.Opts.Trace.Sweep(ev)
	}
	a.conv.add(ev)
}
