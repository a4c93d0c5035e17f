package cluster

import (
	"hummingbird/internal/clock"
)

// CompiledCluster augments one cluster with flat CSR-style index arrays so
// the block-analysis kernel can walk the topology without map lookups. The
// arrays are frozen at Compile time and never mutated; the only per-analysis
// state they are read against lives in sta.AnalysisState.
type CompiledCluster struct {
	*Cluster

	// OrderLocal is Cluster.Order with every net id replaced by its local
	// index within Nets. The arc adjacency the kernels walk is the
	// cluster's own CSR (Cluster.ArcStart/ArcIdx).
	OrderLocal []int32
	// ToLocal gives each arc's driven net as a local net index, parallel
	// to Cluster.Arcs.
	ToLocal []int32
	// InLocal/OutLocal give each Input's/Output's net as a local index,
	// parallel to Cluster.Inputs/Outputs.
	InLocal  []int32
	OutLocal []int32
}

// CompiledDesign is the frozen, analysis-ready view of one elaborated
// network: the structural half of the old mutable Network. It is produced
// once by Compile and is safe to share read-only across goroutines and
// sessions — no analysis mutates it. Per-analysis values (element offsets,
// slacks, scratch) live in sta.AnalysisState.
//
// CompiledDesign embeds *Network, so all read-only Network accessors
// (Nets, Elems, Clusters, ElemsOf, TotalPasses, ...) apply directly. The
// embedded network's element Odz fields are frozen at their initial values
// and must not be written; analyses carry their own offset vectors.
type CompiledDesign struct {
	*Network

	// Arcs is the design-wide flat arc backing: every cluster's Arcs slice
	// is a subslice of it, laid out in cluster order. CloneArcs copies this
	// one backing to unshare delays.
	Arcs []Arc
	// Src is the cold half of Arcs, parallel to it (every cluster's Src is
	// a subslice). It never changes, so CloneArcs twins share it.
	Src []ArcSource

	// CC holds the compiled view of each cluster, parallel to
	// Network.Clusters.
	CC []*CompiledCluster

	// Layout locates every net and element terminal in the cluster that
	// owns it; block-analysis results are read through it.
	Layout *Layout

	// InitialOdz[e] is the offset Algorithm 1 starts element e from
	// (syncelem.InitialOdz); sta.NewState copies it into each fresh state.
	InitialOdz []clock.Time

	// MaxClusterNets is the largest cluster net count, sizing the pooled
	// per-cluster scratch arenas.
	MaxClusterNets int

	// Level[c] is cluster c's topological level in the cluster DAG: the
	// graph whose edge A→B exists when some synchronising element's data
	// input is captured by A (an Out of A) and whose output asserts into B
	// (an In of B). Levels order clusters for the level-scheduled parallel
	// analysis and group the incremental dirty walk; they are a scheduling
	// structure only — within one block analysis clusters touch disjoint
	// result slices, so no level ever *has* to finish before the next
	// starts. Clusters on combinational-feedback cycles through latches
	// (which levelization cannot order) are all placed together on one
	// final level.
	Level []int32

	// LevelStart/LevelOrder are the flat CSR form of the level grouping:
	// the clusters of level L are LevelOrder[LevelStart[L]:LevelStart[L+1]],
	// ascending by cluster id. Because the shared arc backing is laid out
	// in cluster-id order, a within-level walk of LevelOrder sweeps the
	// backing front to back — the cache-linear traversal the parallel
	// kernels chunk over.
	LevelStart []int32
	LevelOrder []int32
}

// Layout is the immutable index through which a block analysis' result is
// read by owning cluster. Every net belongs to at most one cluster, and so
// does every element terminal: Build appends an element at most once to
// Inputs (its output terminal) and at most once to Outputs (its data-input
// terminal). Each cluster numbers its slack slots: its member nets in
// local order, then one per Input, then one per Output. Compile builds the
// layout once; every result of the design and of its CloneArcs twins
// shares it.
type Layout struct {
	// NetCluster/NetLocal are the network's tables: net n is slot
	// NetLocal[n] of cluster NetCluster[n] (-1: none).
	NetCluster, NetLocal []int32
	// InCluster[e]/InSlot[e] locate element e's data-input terminal (an
	// Output of cluster InCluster[e]); OutCluster[e]/OutSlot[e] its
	// output terminal (an Input of cluster OutCluster[e]). The cluster is
	// -1 for a terminal no cluster owns.
	InCluster, InSlot   []int32
	OutCluster, OutSlot []int32
	// Nets[c] and Breaks[c] are cluster c's member nets and its plan's
	// break points, one analysis pass per break.
	Nets   [][]int
	Breaks [][]clock.Time
}

// newLayout builds the network's layout.
func newLayout(nw *Network) *Layout {
	nE, nC := len(nw.Elems), len(nw.Clusters)
	owners := make([]int32, 4*nE)
	lay := &Layout{
		NetCluster: nw.NetCluster, NetLocal: nw.NetLocal,
		InCluster: owners[0*nE : 1*nE : 1*nE], InSlot: owners[1*nE : 2*nE : 2*nE],
		OutCluster: owners[2*nE : 3*nE : 3*nE], OutSlot: owners[3*nE:],
		Nets:   make([][]int, nC),
		Breaks: make([][]clock.Time, nC),
	}
	for e := range nE {
		lay.InCluster[e], lay.OutCluster[e] = -1, -1
	}
	for c, cl := range nw.Clusters {
		lay.Nets[c], lay.Breaks[c] = cl.Nets, cl.Plan.Breaks
		slot := int32(len(cl.Nets))
		for _, in := range cl.Inputs {
			lay.OutCluster[in.Elem], lay.OutSlot[in.Elem] = int32(c), slot
			slot++
		}
		for _, out := range cl.Outputs {
			lay.InCluster[out.Elem], lay.InSlot[out.Elem] = int32(c), slot
			slot++
		}
	}
	return lay
}

// NumLevels returns the number of topological levels in the cluster DAG.
func (cd *CompiledDesign) NumLevels() int { return len(cd.LevelStart) - 1 }

// Compile freezes an elaborated network into its analysis-ready form. It
// adopts the network's arc backing, which Build lays out in cluster order
// (cl.Arcs are subslices of cd.Arcs), and precomputes the local index
// arrays, the layout and the initial offset vector. After Compile the
// network structure must not change; delay edits go through CloneArcs.
func Compile(nw *Network) *CompiledDesign {
	cd := &CompiledDesign{
		Network:    nw,
		Arcs:       nw.arcs,
		Src:        nw.src,
		CC:         make([]*CompiledCluster, len(nw.Clusters)),
		Layout:     newLayout(nw),
		InitialOdz: make([]clock.Time, len(nw.Elems)),
	}
	for i, cl := range nw.Clusters {
		cd.CC[i] = nw.compileCluster(cl)
		if n := len(cl.Nets); n > cd.MaxClusterNets {
			cd.MaxClusterNets = n
		}
	}
	for i, e := range nw.Elems {
		cd.InitialOdz[i] = e.InitialOdz()
	}
	cd.levelize()
	return cd
}

// levelize computes the topological level of every cluster over the
// inter-cluster element edges and lays the per-level cluster order out as
// flat CSR arrays (see the CompiledDesign field docs). Deterministic:
// edges are derived from the clusters' sorted Inputs/Outputs and levels
// from a Kahn relaxation whose result is independent of visit order.
func (cd *CompiledDesign) levelize() {
	nc := len(cd.Network.Clusters)
	cd.Level = make([]int32, nc)
	if nc == 0 {
		cd.LevelStart = []int32{0}
		return
	}

	// Adjacency producer→consumer, deduplicated: element e's data input is
	// captured by cluster Layout.InCluster[e], its producer. Self-loops (a
	// latch whose input and output touch the same cluster) carry no
	// ordering and are dropped.
	adj := make([][]int32, nc)
	indeg := make([]int32, nc)
	seen := make(map[int64]bool)
	for _, cl := range cd.Network.Clusters {
		for _, in := range cl.Inputs {
			p := int(cd.Layout.InCluster[in.Elem])
			if p < 0 || p == cl.ID {
				continue
			}
			key := int64(p)<<32 | int64(cl.ID)
			if seen[key] {
				continue
			}
			seen[key] = true
			adj[p] = append(adj[p], int32(cl.ID))
			indeg[cl.ID]++
		}
	}

	// Kahn with level relaxation: level(c) = 1 + max level over its
	// predecessors. Clusters left with positive in-degree sit on cycles
	// (or downstream of one); they all land on one final level.
	queue := make([]int32, 0, nc)
	for c := 0; c < nc; c++ {
		if indeg[c] == 0 {
			queue = append(queue, int32(c))
		}
	}
	var maxLevel int32
	processed := 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		processed++
		if cd.Level[c] > maxLevel {
			maxLevel = cd.Level[c]
		}
		for _, d := range adj[c] {
			if l := cd.Level[c] + 1; l > cd.Level[d] {
				cd.Level[d] = l
			}
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if processed < nc {
		cyclic := maxLevel + 1
		for c := 0; c < nc; c++ {
			if indeg[c] > 0 {
				cd.Level[c] = cyclic
			}
		}
		maxLevel = cyclic
	}

	// Counting sort into the CSR arrays; within a level ascending cluster
	// id = ascending arc-backing offset.
	nl := int(maxLevel) + 1
	cd.LevelStart = make([]int32, nl+1)
	for _, l := range cd.Level {
		cd.LevelStart[l+1]++
	}
	for l := 0; l < nl; l++ {
		cd.LevelStart[l+1] += cd.LevelStart[l]
	}
	cd.LevelOrder = make([]int32, nc)
	fill := append([]int32(nil), cd.LevelStart[:nl]...)
	for c := 0; c < nc; c++ {
		l := cd.Level[c]
		cd.LevelOrder[fill[l]] = int32(c)
		fill[l]++
	}
}

func (nw *Network) compileCluster(cl *Cluster) *CompiledCluster {
	cc := &CompiledCluster{
		Cluster:    cl,
		OrderLocal: make([]int32, len(cl.Order)),
		ToLocal:    make([]int32, len(cl.Arcs)),
		InLocal:    make([]int32, len(cl.Inputs)),
		OutLocal:   make([]int32, len(cl.Outputs)),
	}
	for i, netID := range cl.Order {
		cc.OrderLocal[i] = nw.NetLocal[netID]
	}
	for ai := range cl.Arcs {
		cc.ToLocal[ai] = nw.NetLocal[cl.Arcs[ai].To]
	}
	for i, in := range cl.Inputs {
		cc.InLocal[i] = nw.NetLocal[in.Net]
	}
	for i, out := range cl.Outputs {
		cc.OutLocal[i] = nw.NetLocal[out.Net]
	}
	return cc
}

// CloneArcs returns a copy-on-write twin of the design whose arc delays can
// be edited without affecting sharers: the flat arc backing is copied once
// and every cluster is re-pointed at its subslice of the copy. Everything
// else — nets, sites, elements, orders, plans, CSR arrays, the cold arc
// sources — stays shared, since delay edits never change them. The
// clusters themselves are shallow-copied (their Arcs field differs); the
// compiled views are rebuilt as cheap wrappers sharing the index arrays.
//
// The clone carries the receiver's Calc pointer; a caller that will re-run
// delay calculation must install its own private Calc before doing so.
func (cd *CompiledDesign) CloneArcs() *CompiledDesign {
	nw2 := *cd.Network
	nw2.Clusters = make([]*Cluster, len(cd.Network.Clusters))

	cd2 := &CompiledDesign{
		Network:        &nw2,
		Arcs:           append([]Arc(nil), cd.Arcs...),
		Src:            cd.Src,
		CC:             make([]*CompiledCluster, len(cd.CC)),
		Layout:         cd.Layout,
		InitialOdz:     cd.InitialOdz,
		MaxClusterNets: cd.MaxClusterNets,
		Level:          cd.Level,
		LevelStart:     cd.LevelStart,
		LevelOrder:     cd.LevelOrder,
	}
	nw2.arcs = cd2.Arcs
	off := 0
	for i, cl := range cd.Network.Clusters {
		cl2 := *cl
		cl2.Arcs = cd2.Arcs[off : off+len(cl.Arcs) : off+len(cl.Arcs)]
		off += len(cl.Arcs)
		nw2.Clusters[i] = &cl2

		cc2 := *cd.CC[i]
		cc2.Cluster = &cl2
		cd2.CC[i] = &cc2
	}
	return cd2
}
