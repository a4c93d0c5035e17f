// Package report renders the analyzer's results as the textual reports the
// Hummingbird program produced: run-time tables in the style of Table 1,
// slack summaries, slow-path listings, pass plans and constraint dumps.
package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
)

// Row is one design's entry in the Table-1-style run-time table.
type Row struct {
	Name    string
	Cells   int
	Nets    int
	Latches int
	// Clusters and Passes summarise the §7 pre-processing outcome.
	Clusters, Passes int
	// PreProcess covers elaboration: delay calculation, cluster
	// generation and the break-open algorithm ("Pre-processing times
	// include the times taken for generating combinational logic clusters
	// and for performing the algorithm described in Section 7").
	PreProcess time.Duration
	// Analysis is the Algorithm 1 run time.
	Analysis time.Duration
	// Sweeps records forward+backward complete-transfer cycles.
	Sweeps int
	// Recomputes counts cluster analyses during the run (from the
	// telemetry snapshot; zero when telemetry was disabled).
	Recomputes int64
	// DelayEvals counts delay-expression evaluations (likewise).
	DelayEvals int64
	// IncrEdit and FullEdit are the re-analysis times after a single-gate
	// delay edit: through the incremental engine (dirty clusters only) and
	// from scratch (full elaboration + Algorithm 1). Zero when the
	// measurement was not taken.
	IncrEdit, FullEdit time.Duration
	// OpenCold and OpenShared are session-open times: from scratch
	// (elaborate + compile + first analysis) and against an already
	// compiled design (fresh AnalysisState over a shared CompiledDesign).
	// Zero when the measurement was not taken.
	OpenCold, OpenShared time.Duration
	// OK is the timing verdict.
	OK bool
}

// Table1 renders rows in the shape of the paper's Table 1 (with this
// machine's times substituted for VAX 8800 CPU seconds).
func Table1(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-8s %7s %7s %8s %9s %7s %12s %12s %7s %9s %9s %10s %10s %8s %10s %11s %9s %5s\n",
		"name", "cells", "nets", "latches", "clusters", "passes",
		"preprocess", "analysis", "sweeps", "recomps", "devals",
		"incr-edit", "full-edit", "speedup",
		"open-cold", "open-shared", "open-gain", "ok")
	for _, r := range rows {
		incr, full, speedup := "-", "-", "-"
		if r.IncrEdit > 0 && r.FullEdit > 0 {
			incr, full = fmtDur(r.IncrEdit), fmtDur(r.FullEdit)
			speedup = fmt.Sprintf("%.1fx", float64(r.FullEdit)/float64(r.IncrEdit))
		}
		cold, shared, gain := "-", "-", "-"
		if r.OpenCold > 0 && r.OpenShared > 0 {
			cold, shared = fmtDur(r.OpenCold), fmtDur(r.OpenShared)
			gain = fmt.Sprintf("%.1fx", float64(r.OpenCold)/float64(r.OpenShared))
		}
		fmt.Fprintf(w, "%-8s %7d %7d %8d %9d %7d %12s %12s %7d %9d %9d %10s %10s %8s %10s %11s %9s %5v\n",
			r.Name, r.Cells, r.Nets, r.Latches, r.Clusters, r.Passes,
			fmtDur(r.PreProcess), fmtDur(r.Analysis), r.Sweeps, r.Recomputes, r.DelayEvals,
			incr, full, speedup, cold, shared, gain, r.OK)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Summary prints the analysis verdict, the worst slack and per-terminal
// counts.
func Summary(w io.Writer, a *core.Analyzer, rep *core.Report) {
	st := a.Design.CellStats(a.Lib)
	fmt.Fprintf(w, "design %s: %d cells, %d nets, %d synchronising elements (%d generic)\n",
		a.Design.Name, st.Cells, len(a.CD.Nets), st.Latches, len(a.CD.Elems))
	fmt.Fprintf(w, "clusters: %d, analysis passes: %d\n", len(a.CD.Clusters), a.CD.TotalPasses())
	fmt.Fprintf(w, "sweeps: %d forward, %d backward\n", rep.ForwardSweeps, rep.BackwardSweeps)
	if rep.OK {
		fmt.Fprintf(w, "VERDICT: all paths fast enough (worst slack %v)\n", rep.WorstSlack())
		return
	}
	fmt.Fprintf(w, "VERDICT: %d synchronising-element terminals on too-slow paths (worst slack %v)\n",
		len(rep.SlowElems), rep.WorstSlack())
}

// SlowPaths lists the traced worst paths, most violated first.
func SlowPaths(w io.Writer, a *core.Analyzer, rep *core.Report, limit int) {
	paths := append([]core.SlowPath(nil), rep.SlowPaths...)
	sort.Slice(paths, func(i, j int) bool { return paths[i].Slack < paths[j].Slack })
	if limit > 0 && len(paths) > limit {
		paths = paths[:limit]
	}
	Paths(w, a, "slow path", paths)
}

// CriticalPaths lists the n most critical endpoint paths whether or not
// they violate — the conventional per-endpoint path report.
func CriticalPaths(w io.Writer, a *core.Analyzer, res *sta.Result, n int) {
	Paths(w, a, "path", a.WorstPaths(res, n))
}

// Paths renders traced paths with their per-arc trail.
func Paths(w io.Writer, a *core.Analyzer, label string, paths []core.SlowPath) {
	for i, p := range paths {
		from := a.CD.Elems[p.FromElem]
		to := a.CD.Elems[p.ToElem]
		fmt.Fprintf(w, "%s %d: %s -> %s  slack %v  delay %v (cluster %d pass %d)\n",
			label, i+1, from.Name(), to.Name(), p.Slack, p.Delay, p.Cluster, p.Pass)
		for k, net := range p.Nets {
			if k == 0 {
				fmt.Fprintf(w, "    %s\n", a.CD.Nets[net])
				continue
			}
			fmt.Fprintf(w, "    %s (through %s)\n", a.CD.Nets[net], p.Insts[k-1])
		}
	}
}

// Slacks prints the worst per-net slacks, tightest first.
func Slacks(w io.Writer, a *core.Analyzer, res *sta.Result, limit int) {
	type ns struct {
		net   int
		slack clock.Time
	}
	var all []ns
	for n := range res.NumNets() {
		if s := res.NetSlack(n); s != clock.Inf {
			all = append(all, ns{n, s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].slack != all[j].slack {
			return all[i].slack < all[j].slack
		}
		return all[i].net < all[j].net
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	fmt.Fprintf(w, "%-24s %12s\n", "net", "slack")
	for _, x := range all {
		fmt.Fprintf(w, "%-24s %12v\n", a.CD.Nets[x.net], x.slack)
	}
}

// Plan prints each cluster's break-open plan: pass count, window starts and
// the per-output assignment (§7's pre-processing output).
func Plan(w io.Writer, a *core.Analyzer) {
	for _, cl := range a.CD.Clusters {
		fmt.Fprintf(w, "cluster %d: %d nets, %d arcs, %d inputs, %d outputs, %d passes",
			cl.ID, len(cl.Nets), len(cl.Arcs), len(cl.Inputs), len(cl.Outputs), cl.Plan.Passes())
		if !cl.Plan.Exhaustive {
			fmt.Fprintf(w, " (greedy)")
		}
		fmt.Fprintln(w)
		for pi, beta := range cl.Plan.Breaks {
			fmt.Fprintf(w, "  pass %d: break at %v, outputs:", pi, beta)
			for oi, out := range cl.Outputs {
				if p, ok := cl.Plan.Assign[oi]; ok && p == pi {
					fmt.Fprintf(w, " %s", a.CD.Elems[out.Elem].Name())
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// Constraints dumps the Algorithm 2 ready/required times for the named
// nets (or for all nets with finite values when names is empty).
func Constraints(w io.Writer, a *core.Analyzer, c *core.Constraints, names []string) {
	nets := make([]int, 0)
	if len(names) == 0 {
		for n := range a.CD.Nets {
			nets = append(nets, n)
		}
	} else {
		for _, name := range names {
			if id, ok := a.CD.NetIdx[name]; ok {
				nets = append(nets, id)
			} else {
				fmt.Fprintf(w, "unknown net %q\n", name)
			}
		}
	}
	fmt.Fprintf(w, "%-24s %8s %6s %12s %12s\n", "net", "cluster", "pass", "ready", "required")
	for _, n := range nets {
		for _, nt := range c.NetTimes(n) {
			if nt.Ready() == -clock.Inf && nt.Required() == clock.Inf {
				continue
			}
			fmt.Fprintf(w, "%-24s %8d %6d %12v %12v\n",
				a.CD.Nets[n], nt.Cluster, nt.Pass, nt.Ready(), nt.Required())
		}
	}
}

// ClockSkew summarises the control path delays per clock domain: the
// spread between the fastest and slowest clock-to-control-input path. The
// paper warns that "badly asymmetric control path delays (eg. clock skew)"
// cause supplementary-constraint failures its algorithms do not detect;
// this report surfaces the asymmetry directly (pair it with the
// CheckSupplementary extension).
func ClockSkew(w io.Writer, a *core.Analyzer) {
	type domain struct {
		min, max clock.Time
		n        int
	}
	domains := map[int]*domain{}
	for _, s := range a.CD.Sites {
		if s.IsPort || s.CtrlNet < 0 {
			continue
		}
		d, ok := domains[s.Sig]
		if !ok {
			d = &domain{min: clock.Inf, max: -clock.Inf}
			domains[s.Sig] = d
		}
		if s.CtrlMax > d.max {
			d.max = s.CtrlMax
		}
		if s.CtrlMin < d.min {
			d.min = s.CtrlMin
		}
		d.n++
	}
	fmt.Fprintf(w, "%-12s %9s %12s %12s %12s\n", "clock", "elements", "min ctrl", "max ctrl", "skew")
	sigs := make([]int, 0, len(domains))
	for sig := range domains {
		sigs = append(sigs, sig)
	}
	sort.Ints(sigs)
	for _, sig := range sigs {
		d := domains[sig]
		fmt.Fprintf(w, "%-12s %9d %12v %12v %12v\n",
			a.CD.Clocks.Signal(sig).Name, d.n, d.min, d.max, d.max-d.min)
	}
}

// Endpoints lists every synchronising-element terminal with its slack,
// tightest first — the per-endpoint timing report of a conventional STA
// tool.
func Endpoints(w io.Writer, a *core.Analyzer, res *sta.Result, limit int) {
	type ep struct {
		name  string
		kind  string
		slack clock.Time
	}
	var eps []ep
	for ei, e := range a.CD.Elems {
		if s := res.InSlack(ei); s != clock.Inf {
			eps = append(eps, ep{e.Name(), "capture", s})
		}
		if s := res.OutSlack(ei); s != clock.Inf {
			eps = append(eps, ep{e.Name(), "launch", s})
		}
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].slack != eps[j].slack {
			return eps[i].slack < eps[j].slack
		}
		if eps[i].name != eps[j].name {
			return eps[i].name < eps[j].name
		}
		return eps[i].kind < eps[j].kind
	})
	if limit > 0 && len(eps) > limit {
		eps = eps[:limit]
	}
	fmt.Fprintf(w, "%-20s %-8s %12s\n", "element", "terminal", "slack")
	for _, e := range eps {
		fmt.Fprintf(w, "%-20s %-8s %12v\n", e.name, e.kind, e.slack)
	}
}

// Stats renders one design's inventory line.
func Stats(w io.Writer, d *netlist.Design, s netlist.Stats) {
	fmt.Fprintf(w, "%s: %d cells (%d synchronising), %d nets, %d top-level module instances\n",
		d.Name, s.Cells, s.Latches, s.Nets, s.Modules)
}
