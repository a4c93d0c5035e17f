package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/report"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
	"hummingbird/internal/workload"
)

// editTargets is how many gates edit-soc spreads its edits over: enough that
// the latency distribution averages over many clusters and slack-transfer
// reaches, so its median does not hinge on a few draws.
const editTargets = 256

// editWarmup edits are made before measuring, so that the engine's
// copy-on-write and scratch buffers are in their steady state.
const editWarmup = 10

// target is one gate edits may touch, with the cell it currently uses.
type target struct {
	inst, ref string
}

// twin is the other drive strength of an X1/X2 cell, "" if none.
func twin(lib *celllib.Library, ref string) string {
	var to string
	switch {
	case strings.HasSuffix(ref, "_X1"):
		to = strings.TrimSuffix(ref, "_X1") + "_X2"
	case strings.HasSuffix(ref, "_X2"):
		to = strings.TrimSuffix(ref, "_X2") + "_X1"
	default:
		return ""
	}
	if lib.Cell(to) == nil {
		return ""
	}
	return to
}

// probeTargets picks up to n combinational gates, in seeded random order,
// that touch no clock-control net and have an X1/X2 twin, then confirms
// them in one batch — an adjust and a resize on each, then both undone —
// which must stay on the engine's incremental path and leave it unchanged.
func probeTargets(lib *celllib.Library, eng *incremental.Engine, rng *rand.Rand, n int) ([]target, error) {
	cd := eng.Analyzer().CD
	var cands []target
	for _, inst := range eng.Design().Instances {
		cell := lib.Cell(inst.Ref)
		if cell == nil || cell.IsSync() || twin(lib, inst.Ref) == "" {
			continue
		}
		control := false
		for _, net := range inst.Conns {
			if id, ok := cd.NetIdx[net]; ok && cd.IsControlNet(id) {
				control = true
			}
		}
		if !control {
			cands = append(cands, target{inst: inst.Name, ref: inst.Ref})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].inst < cands[j].inst })
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("no editable gates in %s", eng.Design().Name)
	}
	var batch []incremental.Edit
	for _, t := range cands {
		batch = append(batch,
			incremental.Edit{Op: incremental.Adjust, Inst: t.inst, Delta: clock.Ps},
			incremental.Edit{Op: incremental.Resize, Inst: t.inst, To: twin(lib, t.ref)})
	}
	for _, t := range cands {
		batch = append(batch,
			incremental.Edit{Op: incremental.Resize, Inst: t.inst, To: t.ref},
			incremental.Edit{Op: incremental.Adjust, Inst: t.inst, Delta: -clock.Ps})
	}
	out, err := eng.Apply(batch...)
	if err != nil {
		return nil, fmt.Errorf("probe edits: %w", err)
	}
	if !out.Incremental {
		return nil, fmt.Errorf("probe edits left the incremental path: %s", out.FallbackReason)
	}
	return cands, nil
}

// nextEdit draws the i-th delay-only edit on a seeded random target: every
// third is a drive-strength flip, the rest adjust by ±50..200ps. The two
// kinds cost about 2:1 (a resize also re-times the gates driving the pins
// it reloads), so a fixed ratio keeps the median inside the adjust mode and
// p90 inside the resize mode; a coin flip per edit would let the median
// wander in the gap between them.
func nextEdit(lib *celllib.Library, rng *rand.Rand, ts []target, i int) (incremental.Edit, *target) {
	t := &ts[rng.Intn(len(ts))]
	if i%3 == 2 {
		return incremental.Edit{Op: incremental.Resize, Inst: t.inst, To: twin(lib, t.ref)}, t
	}
	d := clock.Time(1+rng.Intn(4)) * 50 * clock.Ps
	if rng.Intn(2) == 0 {
		d = -d
	}
	return incremental.Edit{Op: incremental.Adjust, Inst: t.inst, Delta: d}, t
}

// worstSink keeps the slack read after each edit observable.
var worstSink clock.Time

type editState struct {
	eng     *incremental.Engine
	targets []target
}

// runEdit drives edit-soc: Algorithm 3's loop on one open engine, each edit
// followed by a read of the worst slack, closed-loop on one goroutine.
func runEdit(ctx context.Context, b *bench) error {
	base := liveHeap()
	st, err := setupMedian(ctx, b, func() (*editState, error) {
		d, err := workload.SoCCells(socCells, socSeed)
		if err != nil {
			return nil, err
		}
		eng, err := incremental.Open(b.lib, d, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("open engine: %w", err)
		}
		ts, err := probeTargets(b.lib, eng, rand.New(rand.NewSource(b.seed)), editTargets)
		if err != nil {
			return nil, err
		}
		return &editState{eng: eng, targets: ts}, nil
	}, func(*editState) {})
	if err != nil {
		return err
	}
	b.set("live_heap_mb", (float64(liveHeap())-float64(base))/1e6)
	if err := enumOracle(b); err != nil {
		return err
	}
	eng := st.eng
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	drawn, edits, hits := 0, 0, 0
	apply := func(ctx context.Context) (time.Duration, bool) {
		ed, t := nextEdit(b.lib, rng, st.targets, drawn)
		drawn++
		t0 := time.Now()
		out, err := eng.ApplyContext(ctx, ed)
		if err == nil {
			worstSink = eng.Report().WorstSlack()
		}
		dt := time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: edit %s %s: %v\n", ed.Op, ed.Inst, err)
			b.ops(1, 1)
			return 0, false
		}
		b.ops(1, 0)
		edits++
		if ed.Op == incremental.Resize {
			t.ref = ed.To
		}
		if out.Incremental {
			hits++
		}
		return dt, true
	}
	// A nil context takes the engine's plain Apply path, as the CLI does;
	// only the traced half passes a context.
	for i := 0; i < editWarmup; i++ {
		apply(nil)
	}

	window := b.window
	if b.trace {
		window /= 2
	}
	var lat []float64
	cpu0 := selfCPU()
	for start := time.Now(); time.Since(start) < window && ctx.Err() == nil; {
		if dt, ok := apply(nil); ok {
			lat = append(lat, ms(dt))
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no edit completed in the window")
	}
	b.latencies(lat)
	b.set("cpu_ms_per_op", ms(selfCPU()-cpu0)/float64(len(lat)))
	signoffShape(b, eng.Analyzer())

	if b.trace {
		if err := traceEdits(ctx, b, eng, apply, window, median(lat)); err != nil {
			return err
		}
	}
	b.set("incremental.hit_ratio", float64(hits)/float64(edits))
	return editOracle(b, eng, st.targets)
}

// editOracle checks the engine against a from-scratch analysis of its own
// design and cumulative options: the two reports must encode identically.
func editOracle(b *bench, eng *incremental.Engine, ts []target) error {
	opts := eng.Options()
	if b.perturb == "edit" {
		if opts.Adjustments == nil {
			opts.Adjustments = map[string]clock.Time{}
		}
		opts.Adjustments[ts[0].inst] += clock.Ps
	}
	fresh, err := core.Load(b.lib, eng.Design(), opts)
	if err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	rep, err := fresh.IdentifySlowPaths()
	if err != nil {
		return fmt.Errorf("oracle analysis: %w", err)
	}
	want, got := newDigestWriter(), newDigestWriter()
	if err := report.WriteJSON(want, fresh, rep); err != nil {
		return err
	}
	if err := report.WriteJSON(got, eng.Analyzer(), eng.Report()); err != nil {
		return err
	}
	b.check("edit-fresh-load", want.n == got.n && want.Sum() == got.Sum(),
		"engine report (%d bytes, crc %08x) differs from a fresh core.Load (%d bytes, crc %08x)",
		got.n, got.Sum(), want.n, want.Sum())
	return nil
}

// traceEdits is the traced half of a -trace 1 run: every edit carries a
// span trace through ApplyContext, with the program's counters on. Times
// are means per edit, so the layers add up to the mean edit time.
func traceEdits(ctx context.Context, b *bench, eng *incremental.Engine, apply func(context.Context) (time.Duration, bool), window time.Duration, untracedMs float64) error {
	telemetry.Reset()
	telemetry.Enable()
	defer telemetry.Disable()
	sums := newSpanSums()
	var lat []float64
	m0 := memStats()
	for start := time.Now(); time.Since(start) < window && ctx.Err() == nil; {
		tr := span.New(fmt.Sprintf("e%d", len(lat)), "bench.edit")
		dt, ok := apply(span.NewContext(context.Background(), tr))
		tr.Finish()
		if ok {
			lat = append(lat, ms(dt))
			sums.add(tr.Tree())
		}
	}
	m1 := memStats()
	n := float64(len(lat))
	if n == 0 {
		return fmt.Errorf("no traced edit completed in the window")
	}
	b.set("incremental.classify_us", us(sums.dur["incr.classify"])/n)
	b.set("sta.recompute_us", us(sums.dur["sta.recompute"]+sums.dur["sta.recompute_parallel"])/n)
	b.set("core.sweep_self_us", us(sums.self["core.sweep"])/n)
	b.set("incremental.apply_self_us", us(sums.self["bench.edit"])/n)
	c := telemetry.Snapshot().Counters
	b.set("incremental.dirty_clusters", float64(c["incr.dirty_clusters"])/n)
	b.set("core.sweeps", float64(c["core.sweeps"])/n)
	b.set("core.offsets_moved", float64(c["core.offsets_moved"])/n)
	b.set("sta.clusters_analyzed", float64(c["sta.clusters_analyzed"])/n)
	b.set("delaycalc.evaluations", float64(c["delaycalc.evaluations"])/n)
	b.set("sta.recompute_ratio", float64(c["sta.clusters_analyzed"])/n/float64(len(eng.Analyzer().CD.CC)))
	b.traced(m0, m1, lat, untracedMs)
	return nil
}

// spanSums totals span trees by span name: dur sums the durations of every
// span so named, self their self time (duration minus what their children
// cover; children of one span never overlap here), count how many there
// were.
type spanSums struct {
	dur, self map[string]time.Duration
	count     map[string]int
}

func newSpanSums() *spanSums {
	return &spanSums{dur: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
}

func (s *spanSums) add(n *span.Node) {
	d := time.Duration(n.DurNs)
	self := d
	for _, c := range n.Children {
		self -= time.Duration(c.DurNs)
		s.add(c)
	}
	s.dur[n.Name] += d
	s.self[n.Name] += self
	s.count[n.Name]++
}
