// Package sim is the dynamic-validation harness: an event-driven,
// three-valued gate-level simulator over the same elaborated network the
// static analyzer uses. It operationalises the paper's notion of intended
// behaviour — clocks toggle, gates propagate with their worst-case
// library delays, latches are transparent while their control pulse is
// active — and records every capture event, so a design the static
// analysis passes can be checked to never capture unsettled (or X) data,
// and a design it rejects can be shown violating physically.
//
// The simulator is deliberately worst-case: every gate output changes
// exactly its maximum rise/fall delay after an input event (transport
// delays, glitches preserved), making the last transition before a capture
// comparable with the static ready times.
package sim

import (
	"container/heap"
	"fmt"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/logic"
	"hummingbird/internal/netlist"
)

// Transition is one recorded net value change.
type Transition struct {
	At clock.Time
	V  logic.Value
}

// Capture is one synchronising-element capture event: the instant the
// element became opaque and the data value it latched.
type Capture struct {
	Inst string
	At   clock.Time
	DNet int
	V    logic.Value
}

// Trace is the simulation record.
type Trace struct {
	// End is the simulated horizon.
	End clock.Time
	// Transitions lists every value change per net, in time order.
	Transitions map[int][]Transition
	// Captures lists every capture event, in time order.
	Captures []Capture
}

// LastChangeBefore returns the time and value of the last transition of
// net at or before t, or ok=false if the net never changed.
func (tr *Trace) LastChangeBefore(net int, t clock.Time) (clock.Time, logic.Value, bool) {
	ts := tr.Transitions[net]
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid].At <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, logic.X, false
	}
	return ts[lo-1].At, ts[lo-1].V, true
}

// event is one scheduled net update.
type event struct {
	at  clock.Time
	seq int
	net int
	v   logic.Value
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// gate is one combinational instance prepared for simulation.
type gate struct {
	name      string
	expr      *logic.Expr
	inPins    []string
	inNets    []int
	outNet    int
	riseDelay clock.Time
	fallDelay clock.Time
	minRise   clock.Time
	minFall   clock.Time
	lastOut   logic.Value
	// env is the reusable evaluation scratch map (avoids a per-event
	// allocation in the event loop).
	env map[string]logic.Value
}

// latchSim is one synchronising instance prepared for simulation.
type latchSim struct {
	name      string
	kind      celllib.Kind
	dNet      int
	ctrlNet   int
	qNet      int
	activeLow bool
	ddz, dcz  clock.Time
	active    bool
}

// Simulator drives one design.
type Simulator struct {
	nw        *cluster.Network
	gates     []gate
	byNet     map[int][]int // net -> gate indices
	lats      []latchSim
	latsByNet map[int][]int // net -> latch indices (D or ctrl)
	vals      []logic.Value
	queue     eventHeap
	seq       int
	trace     *Trace
	// minDelays switches gate propagation to the library's best-case
	// delays — the fast corner used by the race detector.
	minDelays bool
}

// UseMinDelays selects the best-case (min) gate delays for subsequent
// runs. Comparing the capture sequences of a min-delay run against a
// max-delay run exposes races: a design whose captured values depend on
// where delays fall inside their ranges is not delay-safe (clock-skew
// hold hazards — the failure class the paper's algorithms explicitly do
// not detect).
func (s *Simulator) UseMinDelays(min bool) { s.minDelays = min }

// New prepares a simulator from an elaborated network. Every combinational
// cell must carry a parsable function (hierarchical super-cells do not —
// flatten the design before simulating).
func New(nw *cluster.Network) (*Simulator, error) {
	s := &Simulator{
		nw:        nw,
		byNet:     map[int][]int{},
		latsByNet: map[int][]int{},
		vals:      make([]logic.Value, len(nw.Nets)),
	}
	for i := range nw.Design.Instances {
		inst := &nw.Design.Instances[i]
		cell := nw.Lib.Cell(inst.Ref)
		if cell == nil {
			return nil, fmt.Errorf("sim: unresolved instance %s", inst.Name)
		}
		if cell.IsSync() {
			ls := latchSim{
				name: inst.Name, kind: cell.Kind,
				activeLow: cell.Sync.ActiveLow,
				ddz:       cell.Sync.Ddz, dcz: cell.Sync.Dcz,
				dNet: -1, ctrlNet: -1, qNet: -1,
			}
			if n, ok := inst.Conns[cell.DataPins()[0]]; ok {
				ls.dNet = nw.NetIdx[n]
			}
			if n, ok := inst.Conns[cell.ControlPin()]; ok {
				ls.ctrlNet = nw.NetIdx[n]
			}
			if n, ok := inst.Conns[cell.Outputs()[0]]; ok {
				ls.qNet = nw.NetIdx[n]
			}
			li := len(s.lats)
			s.lats = append(s.lats, ls)
			if ls.dNet >= 0 {
				s.latsByNet[ls.dNet] = append(s.latsByNet[ls.dNet], li)
			}
			if ls.ctrlNet >= 0 {
				s.latsByNet[ls.ctrlNet] = append(s.latsByNet[ls.ctrlNet], li)
			}
			continue
		}
		expr, err := logic.Parse(cell.Function)
		if err != nil {
			return nil, fmt.Errorf("sim: instance %s (%s): %v", inst.Name, inst.Ref, err)
		}
		outNet, ok := inst.Conns[expr.Out]
		if !ok {
			continue // dangling output: nothing to drive
		}
		g := gate{name: inst.Name, expr: expr, outNet: nw.NetIdx[outNet], lastOut: logic.X,
			env: make(map[string]logic.Value, len(expr.Inputs()))}
		for _, pin := range expr.Inputs() {
			net, ok := inst.Conns[pin]
			if !ok {
				return nil, fmt.Errorf("sim: instance %s: function input %q unconnected", inst.Name, pin)
			}
			g.inPins = append(g.inPins, pin)
			g.inNets = append(g.inNets, nw.NetIdx[net])
		}
		// Worst-case delays at the instance's actual load.
		for ai := range cell.Arcs {
			arc := &cell.Arcs[ai]
			if arc.To != expr.Out {
				continue
			}
			d := nw.Calc.ArcDelays(inst, arc)
			if d.MaxRise > g.riseDelay {
				g.riseDelay = d.MaxRise
			}
			if d.MaxFall > g.fallDelay {
				g.fallDelay = d.MaxFall
			}
		}
		gi := len(s.gates)
		s.gates = append(s.gates, g)
		for _, n := range g.inNets {
			s.byNet[n] = append(s.byNet[n], gi)
		}
	}
	return s, nil
}

// Stimulus provides primary-input values: it is called once per (cycle,
// port) with the overall-period cycle index and must return 0/1/X.
type Stimulus func(cycle int, port string) logic.Value

// Run simulates the given number of overall clock periods and returns the
// trace. Initial net values are X; drive enough warm-up cycles for the
// pipeline to fill before asserting on captures.
func (s *Simulator) Run(cycles int, stim Stimulus) *Trace {
	T := s.nw.Clocks.Overall()
	end := clock.Time(cycles) * T
	s.trace = &Trace{End: end, Transitions: map[int][]Transition{}}
	for i := range s.vals {
		s.vals[i] = logic.X
	}
	s.queue = s.queue[:0]
	s.seq = 0

	// Clock generator events.
	for _, c := range s.nw.Design.Clocks {
		net, ok := s.nw.NetIdx[c.Name]
		if !ok {
			continue
		}
		for t := clock.Time(0); t < end; t += c.Period {
			s.post(t+c.RiseAt, net, logic.One)
			s.post(t+c.FallAt, net, logic.Zero)
		}
	}
	// Primary-input stimulus at the ports' assertion times.
	for _, p := range s.nw.Design.Ports {
		if p.Dir != netlist.Input || p.RefClock == "" {
			continue
		}
		sig := s.nw.Clocks.Index(p.RefClock)
		if sig < 0 {
			continue
		}
		c := s.nw.Clocks.Signal(sig)
		net := s.nw.NetIdx[p.Name]
		base := c.RiseAt
		if p.RefEdge == clock.Fall {
			base = c.FallAt
		}
		cyc := 0
		for t := base + p.Offset; t < end; t += c.Period {
			if t >= 0 {
				s.post(t, net, stim(cyc, p.Name))
			}
			cyc++
		}
	}

	// Event loop.
	heap.Init(&s.queue)
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(event)
		if e.at > end {
			break
		}
		if s.vals[e.net] == e.v {
			continue
		}
		s.vals[e.net] = e.v
		s.trace.Transitions[e.net] = append(s.trace.Transitions[e.net], Transition{At: e.at, V: e.v})
		// Combinational fanout.
		for _, gi := range s.byNet[e.net] {
			g := &s.gates[gi]
			for k, pin := range g.inPins {
				g.env[pin] = s.vals[g.inNets[k]]
			}
			out := g.expr.Eval(g.env)
			if out == g.lastOut {
				continue
			}
			g.lastOut = out
			rise, fall := g.riseDelay, g.fallDelay
			if s.minDelays {
				rise, fall = g.minRise, g.minFall
			}
			d := rise
			if out == logic.Zero {
				d = fall
			} else if out == logic.X && fall > d {
				d = fall
			}
			s.post(e.at+d, g.outNet, out)
		}
		// Synchronising fanout.
		for _, li := range s.latsByNet[e.net] {
			l := &s.lats[li]
			if e.net == l.ctrlNet {
				s.controlEdge(l, e.at)
			}
			if e.net == l.dNet && l.active && l.kind != celllib.EdgeTriggered {
				if l.qNet >= 0 {
					s.post(e.at+l.ddz, l.qNet, s.vals[l.dNet])
				}
			}
		}
	}
	return s.trace
}

// controlEdge updates a latch's transparency and records captures.
func (s *Simulator) controlEdge(l *latchSim, at clock.Time) {
	v := s.vals[l.ctrlNet]
	var active bool
	switch v {
	case logic.One:
		active = !l.activeLow
	case logic.Zero:
		active = l.activeLow
	default:
		// Unknown control: output unknown; stay in the previous
		// transparency state.
		if l.qNet >= 0 {
			s.post(at+l.dcz, l.qNet, logic.X)
		}
		return
	}
	if active == l.active {
		return
	}
	l.active = active
	d := logic.X
	if l.dNet >= 0 {
		d = s.vals[l.dNet]
	}
	if active {
		// Leading edge: transparent kinds start following D; an
		// edge-triggered element does nothing until the trailing edge.
		if l.kind != celllib.EdgeTriggered && l.qNet >= 0 {
			s.post(at+l.dcz, l.qNet, d)
		}
		return
	}
	// Trailing edge: every kind captures.
	s.trace.Captures = append(s.trace.Captures, Capture{Inst: l.name, At: at, DNet: l.dNet, V: d})
	if l.kind == celllib.EdgeTriggered && l.qNet >= 0 {
		s.post(at+l.dcz, l.qNet, d)
	}
}

func (s *Simulator) post(at clock.Time, net int, v logic.Value) {
	s.seq++
	heap.Push(&s.queue, event{at: at, seq: s.seq, net: net, v: v})
}

// SetupViolation is one capture whose data was still unsettled.
type SetupViolation struct {
	Inst string
	At   clock.Time
	// LastChange is the offending data transition (or the capture time
	// itself when an X was latched).
	LastChange clock.Time
	CapturedX  bool
}

// CheckSetup scans the captures after the warm-up horizon: the data net
// must not have changed within the element's set-up window before the
// capture, and the captured value must be determined (not X).
func CheckSetup(nw *cluster.Network, tr *Trace, warmup clock.Time) []SetupViolation {
	var out []SetupViolation
	setup := map[string]clock.Time{}
	for i := range nw.Design.Instances {
		inst := &nw.Design.Instances[i]
		if cell := nw.Lib.Cell(inst.Ref); cell != nil && cell.IsSync() {
			setup[inst.Name] = cell.Sync.Dsetup
		}
	}
	for _, c := range tr.Captures {
		if c.At < warmup {
			continue
		}
		if c.V == logic.X {
			out = append(out, SetupViolation{Inst: c.Inst, At: c.At, LastChange: c.At, CapturedX: true})
			continue
		}
		if c.DNet < 0 {
			continue
		}
		// A transition exactly at the capture instant belongs to the next
		// cycle (the netlist convention asserts inputs *at* edges), so the
		// window is strictly before the capture.
		last, _, ok := tr.LastChangeBefore(c.DNet, c.At-1)
		if ok && c.At-last < setup[c.Inst] {
			out = append(out, SetupViolation{Inst: c.Inst, At: c.At, LastChange: last})
		}
	}
	return out
}

// FromDesign builds a simulator straight from a design, flattening any
// hierarchy first (super-cells carry no simulatable functions) and
// re-elaborating against the base library. adjustments (may be nil) are
// per-instance additive delay adjustments, matching core.Options so the
// simulation sees the same what-if state as the static analysis.
func FromDesign(lib *celllib.Library, design *netlist.Design, opts delaycalc.Options, adjustments map[string]clock.Time) (*Simulator, *cluster.Network, error) {
	d := design
	if len(design.Modules) > 0 {
		d = design.Flatten(lib)
	}
	if err := d.Validate(lib); err != nil {
		return nil, nil, err
	}
	cs, err := d.ClockSet()
	if err != nil {
		return nil, nil, err
	}
	calc, err := delaycalc.New(lib, d, opts)
	if err != nil {
		return nil, nil, err
	}
	for inst, delta := range adjustments {
		calc.Adjust(inst, delta)
	}
	nw, err := cluster.Build(lib, d, cs, calc)
	if err != nil {
		return nil, nil, err
	}
	s, err := New(nw)
	if err != nil {
		return nil, nil, err
	}
	return s, nw, nil
}

// Race is one capture whose value differs between the slow (max-delay) and
// fast (min-delay) corners.
type Race struct {
	Inst string
	// Index is the capture's ordinal for this element.
	Index    int
	At       clock.Time
	MaxValue logic.Value
	MinValue logic.Value
}

// CompareCaptures aligns two traces' capture sequences per element (they
// capture at identical, delay-independent control instants) and returns
// every post-warm-up disagreement — evidence the design's behaviour
// depends on where delays fall within their ranges.
func CompareCaptures(maxRun, minRun *Trace, warmup clock.Time) []Race {
	type key struct{ inst string }
	group := func(tr *Trace) map[string][]Capture {
		m := map[string][]Capture{}
		for _, c := range tr.Captures {
			m[c.Inst] = append(m[c.Inst], c)
		}
		return m
	}
	a, b := group(maxRun), group(minRun)
	var out []Race
	for inst, as := range a {
		bs := b[inst]
		n := len(as)
		if len(bs) < n {
			n = len(bs)
		}
		for i := 0; i < n; i++ {
			if as[i].At < warmup {
				continue
			}
			if as[i].V != bs[i].V {
				out = append(out, Race{Inst: inst, Index: i, At: as[i].At,
					MaxValue: as[i].V, MinValue: bs[i].V})
			}
		}
	}
	return out
}
