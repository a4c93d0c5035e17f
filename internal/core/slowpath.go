package core

import (
	"sort"

	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/sta"
)

// SlowPath is one too-slow combinational path: the worst path into one
// violated capture terminal, traced back through the nodes that determined
// its ready time.
type SlowPath struct {
	// Cluster is the owning cluster id; Pass the analysis pass index.
	Cluster, Pass int
	// FromElem / ToElem are network element indices: the launching
	// synchronising-element occurrence and the violated capture occurrence.
	FromElem, ToElem int
	// Nets is the path's net id sequence, launch net first.
	Nets []int
	// Insts is the instance sequence realising the path's arcs
	// (len(Nets)-1 entries).
	Insts []string
	// Slack is the violated terminal's node slack (non-positive).
	Slack clock.Time
	// Delay is the traced path's propagation delay.
	Delay clock.Time
}

// traceSlowPaths extracts one worst path per violated capture terminal.
func (a *Analyzer) traceSlowPaths(res *sta.Result) []SlowPath {
	return a.tracePaths(res, func(slack clock.Time) bool { return slack <= 0 })
}

// WorstPaths traces the critical (ready-time-determining) path into every
// capture terminal — violated or not — and returns the n tightest, most
// critical first. This is the conventional per-endpoint timing report; with
// n <= 0 every traceable endpoint is returned.
func (a *Analyzer) WorstPaths(res *sta.Result, n int) []SlowPath {
	paths := a.tracePaths(res, func(clock.Time) bool { return true })
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Slack != paths[j].Slack {
			return paths[i].Slack < paths[j].Slack
		}
		return paths[i].ToElem < paths[j].ToElem
	})
	if n > 0 && len(paths) > n {
		paths = paths[:n]
	}
	return paths
}

// tracePaths walks every capture terminal whose slack the filter selects.
func (a *Analyzer) tracePaths(res *sta.Result, want func(clock.Time) bool) []SlowPath {
	nw := a.CD.Network
	var paths []SlowPath
	var in fanIn
	for _, cl := range nw.Clusters {
		built := false
		for oi, out := range cl.Outputs {
			slack := res.InSlack(out.Elem)
			if slack == clock.Inf || !want(slack) {
				continue
			}
			pi, ok := cl.Plan.Assign[oi]
			if !ok {
				continue
			}
			if !built {
				in.build(cl)
				built = true
			}
			detail := res.Pass(cl.ID, pi)
			if p, ok := a.traceOne(cl, &detail, &in, out, slack); ok {
				paths = append(paths, p)
			}
		}
	}
	return paths
}

// fanIn is one cluster's reverse adjacency in CSR form: the arcs into
// member net local index li are idx[start[li]:start[li+1]], indices into
// the cluster's Arcs in index order. Its slices are reused from cluster
// to cluster.
type fanIn struct {
	start, idx []int32
}

// build files cl's arcs by the local index of the net they drive, by a
// stable counting sort.
func (f *fanIn) build(cl *cluster.Cluster) {
	f.start = append(f.start[:0], make([]int32, len(cl.Nets)+1)...)
	f.idx = append(f.idx[:0], make([]int32, len(cl.Arcs))...)
	for ai := range cl.Arcs {
		f.start[cl.LocalIndex(cl.Arcs[ai].To)+1]++
	}
	for li := range cl.Nets {
		f.start[li+1] += f.start[li]
	}
	next := f.start[:len(cl.Nets)]
	for ai := range cl.Arcs {
		li := cl.LocalIndex(cl.Arcs[ai].To)
		f.idx[next[li]] = int32(ai)
		next[li]++
	}
	// Placing advanced each start to its successor's; shift them back.
	copy(f.start[1:], f.start[:len(cl.Nets)])
	f.start[0] = 0
}

// of returns the arcs into member net id net, in index order.
func (f *fanIn) of(cl *cluster.Cluster, net int) []int32 {
	li := cl.LocalIndex(net)
	if li < 0 {
		return nil
	}
	return f.idx[f.start[li]:f.start[li+1]]
}

// traceOne walks back from the violated output along the arcs that
// determined the critical ready time.
func (a *Analyzer) traceOne(cl *cluster.Cluster, d *sta.PassDetail, in *fanIn, out cluster.Out, slack clock.Time) (SlowPath, bool) {
	nw := a.CD.Network
	T := nw.Clocks.Overall()
	local := func(net int) int { return cl.LocalIndex(net) }

	cur := out.Net
	// Critical transition: the later of rise/fall ready.
	rise := d.ReadyR[local(cur)] >= d.ReadyF[local(cur)]
	ready := func(net int, r bool) clock.Time {
		if r {
			return d.ReadyR[local(net)]
		}
		return d.ReadyF[local(net)]
	}
	start := ready(cur, rise)
	nets := []int{cur}
	var insts []string

	for steps := 0; steps <= len(cl.Arcs)+1; steps++ {
		target := ready(cur, rise)
		advanced := false
		for _, ai := range in.of(cl, cur) {
			arc := &cl.Arcs[ai]
			// Which input transition feeds this output transition, and
			// with what delay?
			var srcRise bool
			var delay clock.Time
			switch arc.Sense {
			case celllib.PositiveUnate:
				srcRise = rise
			case celllib.NegativeUnate:
				srcRise = !rise
			default: // NonUnate: pick the later source transition
				srcRise = ready(arc.From, true) >= ready(arc.From, false)
			}
			if rise {
				delay = arc.D.MaxRise
			} else {
				delay = arc.D.MaxFall
			}
			src := ready(arc.From, srcRise)
			if src == -clock.Inf {
				continue
			}
			if src+delay == target {
				nets = append(nets, arc.From)
				insts = append(insts, nw.ArcInst(cl, int(ai)))
				cur = arc.From
				rise = srcRise
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}

	// The trace should have ended at a cluster input whose assertion time
	// equals the remaining ready value.
	endReady := ready(cur, rise)
	fromElem := -1
	for _, in := range cl.Inputs {
		if in.Net != cur {
			continue
		}
		e := nw.Elems[in.Elem]
		assert := breakopen.AssertPos(e.IdealAssert, d.Beta, T) + e.OutputOffsetAt(a.St.Odz[in.Elem])
		if assert == endReady {
			fromElem = in.Elem
			break
		}
	}
	if fromElem < 0 {
		return SlowPath{}, false
	}
	// Reverse to launch-first order.
	for i, j := 0, len(nets)-1; i < j; i, j = i+1, j-1 {
		nets[i], nets[j] = nets[j], nets[i]
	}
	for i, j := 0, len(insts)-1; i < j; i, j = i+1, j-1 {
		insts[i], insts[j] = insts[j], insts[i]
	}
	return SlowPath{
		Cluster: cl.ID, Pass: d.Pass,
		FromElem: fromElem, ToElem: out.Elem,
		Nets: nets, Insts: insts,
		Slack: slack, Delay: start - endReady,
	}, true
}
