package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
	"hummingbird/internal/report"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// socCells sizes the SoC of signoff-soc and edit-soc. socSeed fixes its
// random logic: the SoC's seed moves the fixed point's reach, and so the
// cost of every sign-off and edit, by more than run-to-run noise, so runs
// under different -seed values measure one design and vary what is done to
// it (edit targets and order, the oracle pipeline).
const (
	socCells = 100_000
	socSeed  = 1
)

// signoffDigest identifies one sign-off's outcome: the encoded report (which
// carries the verdict, every net and endpoint slack, the slow paths and the
// pass plan) and Algorithm 2's constraints.
type signoffDigest struct {
	reportCRC   uint32
	reportBytes int64
	consCRC     uint32
}

// signoffResult is one finished sign-off, kept until its digest is taken.
type signoffResult struct {
	a      *core.Analyzer
	cons   *core.Constraints
	report *digestWriter
}

func (r *signoffResult) digest() signoffDigest {
	return signoffDigest{reportCRC: r.report.Sum(), reportBytes: r.report.n, consCRC: constraintsCRC(r.cons)}
}

// constraintsCRC checksums every recorded ready and required time.
func constraintsCRC(c *core.Constraints) uint32 {
	tab := crc32.MakeTable(crc32.Castagnoli)
	buf := binary.LittleEndian.AppendUint64(nil, uint64(c.BackwardSnatches))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ForwardSnatches))
	sum := crc32.Checksum(buf, tab)
	add := func(ts []clock.Time) {
		buf = buf[:0]
		for _, t := range ts {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
		sum = crc32.Update(sum, tab, buf)
	}
	for _, ps := range [][]sta.PassDetail{c.Ready, c.Required} {
		for _, p := range ps {
			add([]clock.Time{clock.Time(p.Cluster), clock.Time(p.Pass), p.Beta})
			add(p.ReadyR)
			add(p.ReadyF)
			add(p.ReqR)
			add(p.ReqF)
		}
	}
	return sum
}

// signoff is the measured operation: parse the netlist text, load (validate,
// evaluate delays, elaborate), run Algorithms 1 and 2, and encode the JSON
// report into a byte counter.
func signoff(lib *celllib.Library, text []byte) (*signoffResult, error) {
	d, err := netlist.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		return nil, fmt.Errorf("identify slow paths: %w", err)
	}
	cons, err := a.GenerateConstraints()
	if err != nil {
		return nil, fmt.Errorf("generate constraints: %w", err)
	}
	w := newDigestWriter()
	if err := report.WriteJSON(w, a, rep); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return &signoffResult{a: a, cons: cons, report: w}, nil
}

// signoffSteps is signoff with core.Load and the two algorithms taken apart
// into the public calls they are made of, each timed: the traced run's
// per-layer split. Its outcome must equal signoff's exactly.
func signoffSteps(lib *celllib.Library, text []byte, step map[string]time.Duration) (*signoffResult, error) {
	t := time.Now()
	// lap charges the time since the previous lap to the named step; an
	// empty name leaves it to signoff.unattributed_ms.
	lap := func(name string) {
		now := time.Now()
		if name != "" {
			step[name] += now.Sub(t)
		}
		t = now
	}
	d, err := netlist.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	lap("netlist.parse_ms")
	if err := d.Validate(lib); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	lap("netlist.validate_ms")
	opts := core.DefaultOptions()
	resolved := lib
	if len(d.Modules) > 0 {
		if resolved, err = delaycalc.RollUpModules(lib, d, opts.Delay); err != nil {
			return nil, fmt.Errorf("roll up modules: %w", err)
		}
	}
	cs, err := d.ClockSet()
	if err != nil {
		return nil, fmt.Errorf("clock set: %w", err)
	}
	lap("")
	calc, err := delaycalc.New(resolved, d, opts.Delay)
	if err != nil {
		return nil, fmt.Errorf("delaycalc: %w", err)
	}
	lap("delaycalc.new_ms")
	nw, err := cluster.Build(resolved, d, cs, calc)
	if err != nil {
		return nil, fmt.Errorf("cluster build: %w", err)
	}
	lap("cluster.build_ms")
	cd := cluster.Compile(nw)
	lap("cluster.compile_ms")
	a := core.LoadCompiled(cd, d, opts)
	lap("")
	res := sta.AnalyzeParallel(a.CD, a.St, a.Opts.Workers)
	lap("sta.analyze_ms")
	rep, err := a.IdentifySlowPathsFrom(res)
	if err != nil {
		return nil, fmt.Errorf("identify slow paths: %w", err)
	}
	lap("core.identify_ms")
	res2 := sta.Analyze(a.CD, a.St)
	lap("sta.analyze_ms")
	cons, err := a.GenerateConstraintsFrom(res2)
	if err != nil {
		return nil, fmt.Errorf("generate constraints: %w", err)
	}
	lap("core.constraints_ms")
	w := newDigestWriter()
	if err := report.WriteJSON(w, a, rep); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	lap("report.write_ms")
	return &signoffResult{a: a, cons: cons, report: w}, nil
}

// runSignoff drives signoff-soc: every iteration is a cold sign-off of the
// same netlist text, and every outcome must equal the first.
func runSignoff(ctx context.Context, b *bench) error {
	text, err := setupMedian(ctx, b, func() ([]byte, error) {
		d, err := workload.SoCCells(socCells, socSeed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := netlist.Write(&buf, d); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}, func([]byte) {})
	if err != nil {
		return err
	}
	if err := enumOracle(b); err != nil {
		return err
	}

	// The warm-up sign-off grows the heap to its working size and provides
	// the reference every measured outcome is compared with.
	warm, err := signoff(b.lib, text)
	if err != nil {
		return fmt.Errorf("warm-up sign-off: %w", err)
	}
	ref := warm.digest()
	if b.perturb == "signoff" {
		ref.consCRC++
	}

	window := b.window
	if b.trace {
		window /= 2
	}
	var lat []float64
	cpu0 := selfCPU()
	for start := time.Now(); time.Since(start) < window && ctx.Err() == nil; {
		t0 := time.Now()
		r, err := signoff(b.lib, text)
		dt := time.Since(t0)
		if err != nil {
			b.ops(1, 1)
			fmt.Fprintf(os.Stderr, "perfbench: sign-off failed: %v\n", err)
			continue
		}
		b.ops(1, 0)
		lat = append(lat, ms(dt))
		got := r.digest()
		b.check("signoff-repeat", got == ref, "outcome %+v differs from the first sign-off's %+v", got, ref)
	}
	if len(lat) == 0 {
		return fmt.Errorf("no sign-off completed in the window")
	}
	b.latencies(lat)
	b.set("cpu_ms_per_op", ms(selfCPU()-cpu0)/float64(len(lat)))

	// Heap retained by one loaded analyzer with its report and constraints.
	base := liveHeap()
	kept, err := signoff(b.lib, text)
	if err != nil {
		return fmt.Errorf("heap sign-off: %w", err)
	}
	live := float64(liveHeap()) - float64(base)
	cells := len(kept.a.Design.Instances)
	b.set("live_heap_mb", live/1e6)
	b.set("cluster.bytes_per_cell", live/float64(cells))
	signoffShape(b, kept.a)
	runtime.KeepAlive(kept)

	if b.trace {
		return traceSignoff(ctx, b, text, ref, window, median(lat))
	}
	return nil
}

// signoffShape records the size of the design and its timing network.
func signoffShape(b *bench, a *core.Analyzer) {
	b.set("design.cells", float64(len(a.Design.Instances)))
	b.set("design.nets", float64(len(a.CD.Nets)))
	b.set("cluster.clusters", float64(len(a.CD.Clusters)))
	b.set("cluster.levels", float64(a.CD.NumLevels()))
	b.set("cluster.passes", float64(a.CD.TotalPasses()))
}

// traceSignoff is the traced half of a -trace 1 run: sign-offs taken apart
// by signoffSteps with the program's counters on. It reports the mean time
// per step, the counters per sign-off and the overhead against the untraced
// half's median.
func traceSignoff(ctx context.Context, b *bench, text []byte, ref signoffDigest, window time.Duration, untracedMs float64) error {
	telemetry.Reset()
	telemetry.Enable()
	defer telemetry.Disable()
	step := map[string]time.Duration{}
	var lat []float64
	var bytesOut int64
	m0 := memStats()
	for start := time.Now(); time.Since(start) < window && ctx.Err() == nil; {
		t0 := time.Now()
		r, err := signoffSteps(b.lib, text, step)
		dt := time.Since(t0)
		if err != nil {
			b.ops(1, 1)
			fmt.Fprintf(os.Stderr, "perfbench: traced sign-off failed: %v\n", err)
			continue
		}
		b.ops(1, 0)
		lat = append(lat, ms(dt))
		bytesOut = r.report.n
		got := r.digest()
		b.check("signoff-steps", got == ref, "separately called steps gave %+v, core.Load gave %+v", got, ref)
	}
	m1 := memStats()
	n := float64(len(lat))
	if n == 0 {
		return fmt.Errorf("no traced sign-off completed in the window")
	}
	var attributed time.Duration
	for name, d := range step {
		b.set(name, ms(d)/n)
		attributed += d
	}
	b.set("signoff.unattributed_ms", mean(lat)-ms(attributed)/n)
	c := telemetry.Snapshot().Counters
	b.set("delaycalc.evaluations", float64(c["delaycalc.evaluations"])/n)
	b.set("sta.clusters_analyzed", float64(c["sta.clusters_analyzed"])/n)
	b.set("core.sweeps", float64(c["core.sweeps"])/n)
	b.set("report.bytes", float64(bytesOut))
	b.traced(m0, m1, lat, untracedMs)
	return nil
}
