package telemetry

import (
	"context"
	"io"
	"log/slog"
)

// SweepEvent is one structured convergence-trace record: a single
// fixed-point sweep of Algorithm 1 (slack transfer) or Algorithm 2
// (time snatching). The per-sweep trajectory is what §6's run-time
// discussion asks users to look at: a near-critical latch loop shows up
// as sweeps whose Moved count stays positive while the worst slack
// creeps toward zero by ever smaller steps.
type SweepEvent struct {
	// Iteration names the fixed-point loop: "forward", "backward",
	// "partial-forward", "partial-backward" (Algorithm 1) or
	// "snatch-backward", "snatch-forward" (Algorithm 2).
	Iteration string `json:"iteration"`
	// Sweep is the zero-based sweep number within the iteration.
	Sweep int `json:"sweep"`
	// Moved counts the synchronising elements whose offsets changed.
	Moved int `json:"moved"`
	// Recomputed counts the clusters re-analysed by this sweep (all of
	// them under Options.FullSweeps, only the dirty ones otherwise; a
	// sweep replayed against an earlier run's does not count the
	// clusters that take that run's segments).
	Recomputed int `json:"recomputed"`
	// WorstSlackPs is the minimum element-terminal slack after the
	// sweep, in picoseconds.
	WorstSlackPs int64 `json:"worstSlackPs"`
	// ElapsedNs is the sweep's wall time; only populated when a Tracer
	// is attached (the disabled path never reads the clock).
	ElapsedNs int64 `json:"elapsedNs,omitempty"`
}

// Tracer renders convergence events as structured log lines via
// log/slog. A nil *Tracer is valid and discards everything, so callers
// can pass their configured tracer down unconditionally.
type Tracer struct {
	logger *slog.Logger
}

// NewTracer builds a tracer emitting one text-format slog line per
// sweep to w. The time attribute is dropped so output is deterministic
// and diffable.
func NewTracer(w io.Writer) *Tracer {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	})
	return &Tracer{logger: slog.New(h)}
}

// Sweep emits one convergence event.
func (t *Tracer) Sweep(ev SweepEvent) {
	if t == nil || t.logger == nil {
		return
	}
	t.logger.LogAttrs(context.Background(), slog.LevelInfo, "sweep",
		slog.String("iteration", ev.Iteration),
		slog.Int("sweep", ev.Sweep),
		slog.Int("moved", ev.Moved),
		slog.Int("recomputed", ev.Recomputed),
		slog.Int64("worst_slack_ps", ev.WorstSlackPs),
		slog.Int64("elapsed_ns", ev.ElapsedNs),
	)
}
