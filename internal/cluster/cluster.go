// Package cluster elaborates a resolved netlist into the analyzable timing
// network of the paper: it identifies synchronising elements (replicating
// them per control pulse, §4), analyses control paths from the clock
// generators to every control input (computing Oat and the §3 monotonic
// inversion parity), extracts the combinational *clusters* ("a maximal
// connected network of combinational logic elements", §7), verifies the §3
// acyclicity assumption inside each, and runs the break-open pre-processing
// that decides the minimum set of analysis passes per cluster.
//
// Enable paths (§4) — combinational paths from a synchronising-element
// output (or a primary input) into the control input of another element
// through clock-gating logic — are supported conservatively: each enable
// net entering a control cone becomes a virtual capture endpoint whose
// ideal closure is the *leading* edge of every gated pulse, advanced by the
// worst-case delay of the gating logic between the enable net and the
// control pin. The clock-side spine of the cone must still be a monotonic
// function of exactly one clock; the enable side is ordinary data logic.
package cluster

import (
	"fmt"
	"sort"

	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/graph"
	"hummingbird/internal/netlist"
	"hummingbird/internal/syncelem"
)

// Arc is one combinational timing arc between two nets, carrying its
// evaluated delays: the hot half every analysis kernel streams, 56 bytes
// and pointer-free. Its owning instance and cell arc live in the cold
// ArcSource table alongside (Cluster.Src).
type Arc struct {
	From, To int // net ids
	Sense    celllib.Sense
	D        delaycalc.Delays
}

// ArcSource is an arc's cold half: the owning instance, as an index into
// Network.Design.Instances, and the cell arc it was evaluated from as
// elaborated. Reporting, diagnostics and the incremental engine read names
// from it; the pin names stay those of the elaborated cell even after an
// interface-preserving resize swaps the instance's Ref in place.
type ArcSource struct {
	Inst int32
	Arc  *celllib.Arc
}

// In is a cluster input: one generic-element occurrence asserting onto a
// member net.
type In struct {
	Elem int // index into Network.Elems
	Net  int
}

// Out is a cluster output: one generic-element occurrence whose data input
// is fed from a member net.
type Out struct {
	Elem int // index into Network.Elems
	Net  int
}

// Cluster is one maximal connected combinational network, pre-processed for
// block analysis.
type Cluster struct {
	ID   int
	Nets []int // member net ids, sorted
	Arcs []Arc
	// Src is the cold half of Arcs, parallel to it.
	Src []ArcSource
	// Order is a topological order of the member nets (net ids).
	Order   []int
	Inputs  []In
	Outputs []Out
	// Reach[i][o] reports whether a combinational path connects input i's
	// net to output o's net (same net counts: a direct latch→latch
	// connection is a zero-delay path).
	Reach [][]bool
	// Plan is the break-open pass plan; Plan.Assign is keyed by output
	// position within Outputs.
	Plan *breakopen.Plan

	// ArcStart/ArcIdx are the CSR adjacency of arcs leaving each member
	// net: arcs out of local index li (the net's position within Nets) are
	// ArcIdx[ArcStart[li]:ArcStart[li+1]], each an index into Arcs, in arc
	// order.
	ArcStart []int32
	ArcIdx   []int32

	// netCluster/netLocal are the network's Network.NetCluster and
	// Network.NetLocal tables.
	netCluster, netLocal []int32
}

// LocalIndex returns the position of net id within Nets, or -1.
func (c *Cluster) LocalIndex(net int) int {
	if net >= 0 && net < len(c.netCluster) && int(c.netCluster[net]) == c.ID {
		return int(c.netLocal[net])
	}
	return -1
}

// ArcsFrom returns the indices into Arcs of arcs leaving the given net.
func (c *Cluster) ArcsFrom(net int) []int32 {
	li := c.LocalIndex(net)
	if li < 0 {
		return nil
	}
	return c.ArcIdx[c.ArcStart[li]:c.ArcStart[li+1]]
}

// SyncSite is one physical synchronisation point: a latch/FF/tristate
// instance, a primary port, or a virtual enable-capture endpoint, expanded
// into one or more generic elements.
type SyncSite struct {
	Name   string
	IsPort bool
	Dir    netlist.PortDir // ports and enable endpoints only
	Kind   celllib.Kind
	// DataNet is the net feeding the data input (-1 for primary inputs);
	// OutNet is the driven net (-1 for primary outputs and enable
	// endpoints); CtrlNet is the control net (-1 for ports/endpoints).
	DataNet, OutNet, CtrlNet int
	Sig                      int
	Inverted                 bool
	CtrlMax, CtrlMin         clock.Time
	// Elems indexes the site's generic elements within Network.Elems.
	Elems []int
}

// Network is the fully elaborated timing view of one design.
type Network struct {
	Lib    *celllib.Library
	Design *netlist.Design
	Clocks *clock.Set
	Calc   *delaycalc.Calc

	// Nets and NetIdx are the net table of Calc's binding: sorted names,
	// a net's id being its index.
	Nets   []string
	NetIdx map[string]int
	// NetCluster[n] is the id of the cluster net n is a member of, or -1;
	// NetLocal[n] is n's position within that cluster's Nets.
	NetCluster []int32
	NetLocal   []int32

	Sites []SyncSite
	// Elems holds every generic element occurrence; Elems[i].Inst matches
	// the owning site's Name.
	Elems    []*syncelem.Element
	SiteOf   []int // element index -> site index
	Clusters []*Cluster

	// EdgeTimes are the distinct clock edge times (break candidates).
	EdgeTimes []clock.Time

	// ctrlNets marks the pure clock-cone nets (clock sources, buffers and
	// gating-gate outputs); enable-side nets stay false and remain data.
	ctrlNets []bool

	// arcs and src back every cluster's Arcs and Src, laid out in cluster
	// order; Compile adopts them as CompiledDesign.Arcs and .Src.
	arcs []Arc
	src  []ArcSource
}

// ArcInst returns the name of the instance owning arc ai of cl.
func (nw *Network) ArcInst(cl *Cluster, ai int) string {
	return nw.instName(cl.Src[ai])
}

func (nw *Network) instName(s ArcSource) string { return nw.Design.Instances[s.Inst].Name }

// IsControlNet reports whether the net (global id) lies in a pure clock
// cone: a clock source, buffered clock or gating-gate output. Edits that
// touch control nets re-shape the clock cones and the sites built from
// them, so the incremental engine treats them as topology changes.
func (nw *Network) IsControlNet(id int) bool {
	return id >= 0 && id < len(nw.ctrlNets) && nw.ctrlNets[id]
}

// enableIn is one enable net feeding a control cone, with the worst-case
// gating-logic delay from that net to the control pin.
type enableIn struct {
	net         int
	delayToCtrl clock.Time
}

// Build elaborates a resolved design (every instance reference must resolve
// in lib — flatten or roll up hierarchy first). calc must have been built
// for this design and library: the network adopts its binding's net table
// and reads every pin connection from it.
func Build(lib *celllib.Library, design *netlist.Design, cs *clock.Set, calc *delaycalc.Calc) (*Network, error) {
	if calc.Design() != design || calc.Library() != lib {
		return nil, fmt.Errorf("cluster: design %s: the delay calculator was built for another design or library", design.Name)
	}
	b := calc.Binding()
	nw := &Network{Lib: lib, Design: design, Clocks: cs, Calc: calc, Nets: b.Nets, NetIdx: b.NetIdx}
	seen := map[clock.Time]bool{}
	for _, e := range cs.Edges() {
		if !seen[e.At] {
			seen[e.At] = true
			nw.EdgeTimes = append(nw.EdgeTimes, e.At)
		}
	}
	sort.Slice(nw.EdgeTimes, func(i, j int) bool { return nw.EdgeTimes[i] < nw.EdgeTimes[j] })

	arcs, src := nw.collectArcs()
	if err := nw.buildSites(arcs, src); err != nil {
		return nil, err
	}
	if err := nw.extractClusters(arcs, src); err != nil {
		return nil, err
	}
	return nw, nil
}

// collectArcs gathers every combinational timing arc (arcs of sync cells are
// handled through the element model instead), with its cold half.
func (nw *Network) collectArcs() ([]Arc, []ArcSource) {
	bind := nw.Calc.Binding()
	// Every arc runs input→output, so for single-output cells the pin
	// count less one per instance bounds the arc count.
	est := len(bind.PinNet) - len(nw.Design.Instances)
	arcs := make([]Arc, 0, est)
	src := make([]ArcSource, 0, est)
	for i := range nw.Design.Instances {
		inst := &nw.Design.Instances[i]
		cell := bind.Cells[i]
		if cell.IsSync() {
			continue
		}
		pins := bind.Pins(i)
		for ai := range cell.Arcs {
			arc := &cell.Arcs[ai]
			from, to := pins[cell.PinIndex(arc.From)], pins[cell.PinIndex(arc.To)]
			if from < 0 || to < 0 {
				continue
			}
			arcs = append(arcs, Arc{
				From: int(from), To: int(to), Sense: arc.Sense,
				D: nw.Calc.ArcDelaysOn(inst, arc, int(to)),
			})
			src = append(src, ArcSource{Inst: int32(i), Arc: arc})
		}
	}
	return arcs, src
}

// ctrlInfo is the memoized control-path analysis result for one net.
type ctrlInfo struct {
	sig        int
	parityEven bool // some clock path with an even number of inversions
	parityOdd  bool
	maxDelay   clock.Time
	minDelay   clock.Time
	visiting   bool
	// isEnable marks a net whose cone contains no clock at all: it is
	// driven (transitively) by synchronising-element outputs or primary
	// inputs — the data side of an enable path (§4).
	isEnable bool
}

// buildSites identifies synchronising instances and ports, analyses their
// control paths (including enable-path classification) and builds the
// generic elements.
func (nw *Network) buildSites(arcs []Arc, src []ArcSource) error {
	// The arcs entering each net, in arc order.
	n := len(nw.Nets)
	inStart, inIdx := bucket(len(arcs), n, func(i int) int32 { return int32(arcs[i].To) })
	inArcs := func(net int) []int32 { return inIdx[inStart[net]:inStart[net+1]] }

	clockNet := map[int]int{} // net id -> clock signal index
	for ci, c := range nw.Design.Clocks {
		if n, ok := nw.NetIdx[c.Name]; ok {
			clockNet[n] = ci
		}
	}
	bind := nw.Calc.Binding()
	syncOut := make([]bool, n) // nets driven by sync outputs
	nSync := 0
	for i := range nw.Design.Instances {
		cell := bind.Cells[i]
		if !cell.IsSync() {
			continue
		}
		nSync++
		for k, net := range bind.Pins(i) {
			if net >= 0 && cell.Pins[k].Dir == celllib.Out {
				syncOut[net] = true
			}
		}
	}
	piNet := make([]bool, n)
	for _, p := range nw.Design.Ports {
		if p.Dir == netlist.Input {
			piNet[nw.NetIdx[p.Name]] = true
		}
	}

	memo := make(map[int]*ctrlInfo)
	var trace func(net int) (*ctrlInfo, error)
	trace = func(net int) (*ctrlInfo, error) {
		if ci, ok := memo[net]; ok {
			if ci.visiting {
				return nil, fmt.Errorf("cluster: combinational cycle in control path through net %q", nw.Nets[net])
			}
			return ci, nil
		}
		ci := &ctrlInfo{sig: -1}
		memo[net] = ci
		if sig, ok := clockNet[net]; ok {
			ci.sig = sig
			ci.parityEven = true
			return ci, nil
		}
		// Synchronising-element outputs and primary inputs terminate the
		// cone on its data side: the net is an enable (§4).
		if syncOut[net] || piNet[net] {
			ci.isEnable = true
			return ci, nil
		}
		preds := inArcs(net)
		if len(preds) == 0 {
			return nil, fmt.Errorf("cluster: control input traces back to undriven net %q", nw.Nets[net])
		}
		ci.visiting = true
		sawClock := false
		first := true
		for _, ai := range preds {
			a := &arcs[ai]
			up, err := trace(a.From)
			if err != nil {
				return nil, err
			}
			if up.isEnable {
				continue // enable side: no monotonicity or delay role
			}
			sawClock = true
			if a.Sense == celllib.NonUnate {
				return nil, fmt.Errorf("cluster: control path through instance %s is non-monotonic in the clock (non-unate arc); violates the §3 control assumption", nw.instName(src[ai]))
			}
			if ci.sig == -1 {
				ci.sig = up.sig
			} else if up.sig != ci.sig {
				return nil, fmt.Errorf("cluster: net %q is a function of more than one clock signal", nw.Nets[net])
			}
			inv := a.Sense == celllib.NegativeUnate
			pe := (up.parityEven && !inv) || (up.parityOdd && inv)
			po := (up.parityOdd && !inv) || (up.parityEven && inv)
			ci.parityEven = ci.parityEven || pe
			ci.parityOdd = ci.parityOdd || po
			if d := up.maxDelay + a.D.Max(); d > ci.maxDelay {
				ci.maxDelay = d
			}
			md := up.minDelay + a.D.Min()
			if first || md < ci.minDelay {
				ci.minDelay = md
			}
			first = false
		}
		ci.visiting = false
		if !sawClock {
			ci.isEnable = true
			return ci, nil
		}
		if ci.parityEven && ci.parityOdd {
			return nil, fmt.Errorf("cluster: net %q has control paths of both inversion parities; violates the §3 monotonic-control assumption", nw.Nets[net])
		}
		return ci, nil
	}

	// collectEnables returns, for every enable net feeding one element's
	// control cone, the worst-case combinational delay from that net to the
	// control pin. The cone is acyclic (trace rejects cycles), so a
	// worklist longest-path over the cone is exact.
	collectEnables := func(ctrlNet int) []enableIn {
		best := map[int]clock.Time{}
		downTo := map[int]clock.Time{ctrlNet: 0}
		work := []int{ctrlNet}
		for len(work) > 0 {
			net := work[len(work)-1]
			work = work[:len(work)-1]
			acc := downTo[net]
			for _, ai := range inArcs(net) {
				a := &arcs[ai]
				up := memo[a.From]
				if up == nil {
					continue
				}
				d := acc + a.D.Max()
				if up.isEnable {
					if prev, ok := best[a.From]; !ok || d > prev {
						best[a.From] = d
					}
					continue
				}
				if prev, ok := downTo[a.From]; !ok || d > prev {
					downTo[a.From] = d
					work = append(work, a.From)
				}
			}
		}
		out := make([]enableIn, 0, len(best))
		for net, d := range best {
			out = append(out, enableIn{net: net, delayToCtrl: d})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].net < out[j].net })
		return out
	}

	sites := nSync + len(nw.Design.Ports)
	nw.Sites = make([]SyncSite, 0, sites)
	nw.Elems = make([]*syncelem.Element, 0, sites)
	nw.SiteOf = make([]int, 0, sites)
	addSite := func(site SyncSite, elems []*syncelem.Element) {
		siteIdx := len(nw.Sites)
		for _, e := range elems {
			site.Elems = append(site.Elems, len(nw.Elems))
			nw.Elems = append(nw.Elems, e)
			nw.SiteOf = append(nw.SiteOf, siteIdx)
		}
		nw.Sites = append(nw.Sites, site)
	}

	for i := range nw.Design.Instances {
		inst := &nw.Design.Instances[i]
		cell := bind.Cells[i]
		if !cell.IsSync() {
			continue
		}
		// The control, data and (first) output pins, by position.
		ctrl, data, out, nData := -1, -1, -1, 0
		for k, p := range cell.Pins {
			switch {
			case p.Role == celllib.Control:
				if ctrl < 0 {
					ctrl = k
				}
			case p.Dir == celllib.In:
				data = k
				nData++
			case out < 0:
				out = k
			}
		}
		pins := bind.Pins(i)
		ctrlNet := int(pins[ctrl])
		if ctrlNet < 0 {
			return fmt.Errorf("cluster: %s: control pin %s unconnected", inst.Name, cell.Pins[ctrl].Name)
		}
		ci, err := trace(ctrlNet)
		if err != nil {
			return fmt.Errorf("%w (control input of %s)", err, inst.Name)
		}
		if ci.isEnable || ci.sig < 0 {
			return fmt.Errorf("cluster: control input of %s is not a function of any clock", inst.Name)
		}
		if nData != 1 {
			return fmt.Errorf("cluster: %s (%s): synchronising elements must have exactly one data input, found %d", inst.Name, inst.Ref, nData)
		}
		dataNet := int(pins[data])
		if dataNet < 0 {
			return fmt.Errorf("cluster: %s: data pin %s unconnected", inst.Name, cell.Pins[data].Name)
		}
		outNet := int(pins[out])
		inverted := ci.parityOdd
		elems, err := syncelem.Build(inst.Name, cell.Kind, cell.Sync, nw.Clocks, ci.sig, inverted, ci.maxDelay, ci.minDelay)
		if err != nil {
			return err
		}
		addSite(SyncSite{
			Name: inst.Name, Kind: cell.Kind,
			DataNet: dataNet, OutNet: outNet, CtrlNet: ctrlNet,
			Sig: ci.sig, Inverted: inverted,
			CtrlMax: ci.maxDelay, CtrlMin: ci.minDelay,
		}, elems)

		// Enable paths into this element's control cone: one virtual
		// capture endpoint per enable net per control pulse, closing at
		// the pulse's leading edge advanced by the gating-logic depth
		// (the enable must be stable before the pulse it gates begins;
		// the clock network's own delay is conservatively ignored).
		for idx, en := range collectEnables(ctrlNet) {
			name := fmt.Sprintf("%s.en%d", inst.Name, idx)
			var enElems []*syncelem.Element
			for k, se := range elems {
				enElems = append(enElems, &syncelem.Element{
					Inst: name, Occur: k, Kind: celllib.EdgeTriggered,
					Sig:         ci.sig,
					IdealAssert: se.LeadAt, AssertEdge: se.LeadEdge,
					IdealClose: se.LeadAt, CloseEdge: se.LeadEdge,
					LeadEdge: se.LeadEdge, TrailEdge: se.LeadEdge,
					LeadAt: se.LeadAt, TrailAt: se.LeadAt,
					Port: true, PortOffset: -en.delayToCtrl,
				})
			}
			addSite(SyncSite{
				Name: name, IsPort: true, Dir: netlist.Output,
				Kind: celllib.EdgeTriggered, Sig: ci.sig,
				DataNet: en.net, OutNet: -1, CtrlNet: -1,
			}, enElems)
		}
	}

	for _, p := range nw.Design.Ports {
		if p.RefClock == "" {
			return fmt.Errorf("cluster: primary %s %q needs a clock reference for timing analysis", p.Dir, p.Name)
		}
		sig := nw.Clocks.Index(p.RefClock)
		if sig < 0 {
			return fmt.Errorf("cluster: port %q references unknown clock %q", p.Name, p.RefClock)
		}
		elems, err := syncelem.BuildPort(p.Name, nw.Clocks, sig, p.RefEdge, p.Offset)
		if err != nil {
			return err
		}
		net := nw.NetIdx[p.Name]
		site := SyncSite{Name: p.Name, IsPort: true, Dir: p.Dir, Kind: celllib.EdgeTriggered, Sig: sig,
			DataNet: -1, OutNet: -1, CtrlNet: -1}
		if p.Dir == netlist.Input {
			site.OutNet = net
		} else {
			site.DataNet = net
		}
		addSite(site, elems)
	}

	// The pure clock cone: clock source nets plus every traced net that is
	// not on the enable side.
	nw.ctrlNets = make([]bool, len(nw.Nets))
	for n := range clockNet {
		nw.ctrlNets[n] = true
	}
	for n, ci := range memo {
		if !ci.isEnable {
			nw.ctrlNets[n] = true
		}
	}
	return nil
}

// extractClusters partitions the combinational arcs into maximal connected
// clusters, excluding the pure clock cones, and pre-processes each.
// Clusters are numbered by their smallest member net; every table is a
// slice indexed by net, cluster or arc id.
func (nw *Network) extractClusters(arcs []Arc, src []ArcSource) error {
	n := len(nw.Nets)
	isCtrl := nw.ctrlNets
	// A clock-cone net consumed as data is outside the supported class.
	for _, s := range nw.Sites {
		if s.DataNet >= 0 && isCtrl[s.DataNet] {
			return fmt.Errorf("cluster: control/clock net %q feeds the data input of %s; clock nets as data are not supported", nw.Nets[s.DataNet], s.Name)
		}
	}
	for i := range arcs {
		if isCtrl[arcs[i].From] && !isCtrl[arcs[i].To] {
			return fmt.Errorf("cluster: control net %q feeds data logic through instance %s", nw.Nets[arcs[i].From], nw.instName(src[i]))
		}
	}
	data := func(a *Arc) bool { return !isCtrl[a.From] && !isCtrl[a.To] }

	// Weak components over the data arcs (union-find), and the member
	// nets: nets that carry data arcs or touch a sync terminal.
	comps := graph.NewComponents(n)
	touches := make([]bool, n)
	for i := range arcs {
		if a := &arcs[i]; data(a) {
			touches[a.From], touches[a.To] = true, true
			comps.Union(int32(a.From), int32(a.To))
		}
	}
	for _, s := range nw.Sites {
		if s.OutNet >= 0 && !isCtrl[s.OutNet] {
			touches[s.OutNet] = true
		}
		if s.DataNet >= 0 {
			touches[s.DataNet] = true
		}
	}

	// Number the clusters by first member net, their component's root.
	nw.NetCluster = make([]int32, n)
	nw.NetLocal = make([]int32, n)
	var clusters []*Cluster
	for net := 0; net < n; net++ {
		nw.NetCluster[net] = -1
		if !touches[net] || isCtrl[net] {
			continue
		}
		if r := comps.Root(int32(net)); r == int32(net) {
			nw.NetCluster[net] = int32(len(clusters))
			clusters = append(clusters, &Cluster{ID: len(clusters), netCluster: nw.NetCluster, netLocal: nw.NetLocal})
		} else {
			nw.NetCluster[net] = nw.NetCluster[r]
		}
		cl := clusters[nw.NetCluster[net]]
		nw.NetLocal[net] = int32(len(cl.Nets))
		cl.Nets = append(cl.Nets, net)
	}
	// The data arcs, laid out in cluster order (arc order within a
	// cluster), each cluster's a subslice; then each cluster's adjacency.
	start, order := bucket(len(arcs), len(clusters), func(i int) int32 {
		if !data(&arcs[i]) {
			return -1
		}
		return nw.NetCluster[arcs[i].From]
	})
	nw.arcs, nw.src = make([]Arc, len(order)), make([]ArcSource, len(order))
	for k, i := range order {
		nw.arcs[k], nw.src[k] = arcs[i], src[i]
	}
	for c, cl := range clusters {
		lo, hi := start[c], start[c+1]
		cl.Arcs, cl.Src = nw.arcs[lo:hi:hi], nw.src[lo:hi:hi]
		cl.ArcStart, cl.ArcIdx = bucket(len(cl.Arcs), len(cl.Nets), func(ai int) int32 {
			return nw.NetLocal[cl.Arcs[ai].From]
		})
	}
	// Endpoints, in element order.
	for ei := range nw.Elems {
		site := nw.Sites[nw.SiteOf[ei]]
		if site.OutNet >= 0 && touches[site.OutNet] && !isCtrl[site.OutNet] {
			cl := clusters[nw.NetCluster[site.OutNet]]
			cl.Inputs = append(cl.Inputs, In{Elem: ei, Net: site.OutNet})
		}
		if site.DataNet >= 0 && touches[site.DataNet] {
			cl := clusters[nw.NetCluster[site.DataNet]]
			cl.Outputs = append(cl.Outputs, Out{Elem: ei, Net: site.DataNet})
		}
	}
	for _, cl := range clusters {
		if err := nw.preprocess(cl); err != nil {
			return err
		}
	}
	nw.Clusters = clusters
	return nil
}

// bucket is a stable counting sort of the items 0..n-1 into nb buckets:
// the items keyed b are order[start[b]:start[b+1]], ascending. Items keyed
// -1 are left out.
func bucket(n, nb int, key func(i int) int32) (start, order []int32) {
	start = make([]int32, nb+1)
	for i := 0; i < n; i++ {
		if b := key(i); b >= 0 {
			start[b+1]++
		}
	}
	for b := 0; b < nb; b++ {
		start[b+1] += start[b]
	}
	order = make([]int32, start[nb])
	fill := append([]int32(nil), start[:nb]...)
	for i := 0; i < n; i++ {
		if b := key(i); b >= 0 {
			order[fill[b]] = int32(i)
			fill[b]++
		}
	}
	return start, order
}

// preprocess checks acyclicity, orders the cluster, computes input→output
// reachability and solves the break-open plan (§7).
func (nw *Network) preprocess(cl *Cluster) error {
	// Successor lists by local net, straight off the arc CSR.
	succ := make([]int32, len(cl.ArcIdx))
	for k, ai := range cl.ArcIdx {
		succ[k] = nw.NetLocal[cl.Arcs[ai].To]
	}
	orderLocal, err := graph.TopoSortCSR(cl.ArcStart, succ)
	if err != nil {
		local := graph.New(len(cl.Nets))
		for _, a := range cl.Arcs {
			_ = local.AddEdge(int(nw.NetLocal[a.From]), int(nw.NetLocal[a.To])) // local indices are in range
		}
		cyc := local.FindCycle()
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = nw.Nets[cl.Nets[v]]
		}
		return fmt.Errorf("cluster %d: combinational cycle through nets %v (violates the §3 acyclicity assumption)", cl.ID, names)
	}
	cl.Order = make([]int, len(orderLocal))
	for i, v := range orderLocal {
		cl.Order[i] = cl.Nets[v]
	}
	// Reachability input→output: one walk per input over a reused mask,
	// cleared through the walk's own list of visited nets.
	seen := make([]bool, len(cl.Nets))
	var visited []int32
	rows := make([]bool, len(cl.Inputs)*len(cl.Outputs))
	cl.Reach = make([][]bool, len(cl.Inputs))
	for ii, in := range cl.Inputs {
		visited = graph.ReachCSR(cl.ArcStart, succ, nw.NetLocal[in.Net], seen, visited)
		row := rows[ii*len(cl.Outputs) : (ii+1)*len(cl.Outputs) : (ii+1)*len(cl.Outputs)]
		for oi, out := range cl.Outputs {
			row[oi] = seen[nw.NetLocal[out.Net]]
		}
		cl.Reach[ii] = row
		for _, v := range visited {
			seen[v] = false
		}
	}
	// Break-open outputs.
	outs := make([]breakopen.Output, len(cl.Outputs))
	for oi, out := range cl.Outputs {
		o := breakopen.Output{ID: oi, Close: nw.Elems[out.Elem].IdealClose}
		for ii := range cl.Inputs {
			if cl.Reach[ii][oi] {
				o.Asserts = append(o.Asserts, nw.Elems[cl.Inputs[ii].Elem].IdealAssert)
			}
		}
		outs[oi] = o
	}
	plan, err := breakopen.Solve(nw.Clocks.Overall(), nw.EdgeTimes, outs)
	if err != nil {
		return fmt.Errorf("cluster %d: %w", cl.ID, err)
	}
	cl.Plan = plan
	return nil
}

// TotalPasses sums the analysis passes over all clusters (pre-processing
// statistic reported alongside Table 1).
func (nw *Network) TotalPasses() int {
	total := 0
	for _, cl := range nw.Clusters {
		total += cl.Plan.Passes()
	}
	return total
}

// ElemsOf returns the element indices of the named site (instance, port or
// enable endpoint).
func (nw *Network) ElemsOf(name string) []int {
	for _, s := range nw.Sites {
		if s.Name == name {
			return s.Elems
		}
	}
	return nil
}
