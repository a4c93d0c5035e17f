// Package resynth closes the analysis–redesign loop of Algorithm 3:
//
//	Synthesise initial area optimised combinational logic modules.
//	Until all paths are fast enough:
//	  - perform timing analysis to identify all paths that are too slow;
//	  - provide input data ready times and output required times for all
//	    modules traversed by paths that are too slow;
//	  - select one such module and speed up slow paths.
//
// The paper delegates the "speed up" step to the timing-optimisation work
// of Singh et al. [1]; this package substitutes the simplest member of that
// family — drive-strength (gate) sizing against the Algorithm 2 delay
// budgets — which exercises the same loop structure: analysis, constraint
// generation, module selection, modification, re-analysis.
package resynth

import (
	"fmt"
	"strings"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/netlist"
)

// Change records one applied redesign step.
type Change struct {
	Inst     string
	FromCell string
	ToCell   string
	// Gain is the estimated arc-delay improvement that motivated the
	// change.
	Gain clock.Time
}

// Result summarises one Algorithm 3 run.
type Result struct {
	// OK reports whether the loop reached timing closure.
	OK bool
	// Iterations is the number of analysis→redesign round trips.
	Iterations int
	// Changes lists the applied gate resizings in order.
	Changes []Change
	// AreaBefore/AreaAfter are the summed cell areas (the cost of
	// closure; the initial design is area-optimised, §1).
	AreaBefore, AreaAfter int64
	// WorstSlack is the final worst terminal slack.
	WorstSlack clock.Time
}

// upsize returns the next drive strength of a cell name using the _X<n>
// convention, or "" when the cell is already at the largest available
// drive.
func upsize(lib *celllib.Library, name string) string {
	i := strings.LastIndex(name, "_X")
	if i < 0 {
		return ""
	}
	base := name[:i]
	var cur int
	if _, err := fmt.Sscanf(name[i:], "_X%d", &cur); err != nil {
		return ""
	}
	for _, next := range []int{cur * 2, cur * 4} {
		cand := fmt.Sprintf("%s_X%d", base, next)
		if lib.Cell(cand) != nil {
			return cand
		}
	}
	return ""
}

// designArea sums the leaf cell areas of a resolved design.
func designArea(lib *celllib.Library, d *netlist.Design) int64 {
	var area int64
	for _, inst := range d.Instances {
		if c := lib.Cell(inst.Ref); c != nil {
			area += c.Area
		}
	}
	return area
}

// Run drives the Algorithm 3 loop on the design, mutating it in place
// (instance references are retargeted to larger drives). maxIter bounds
// the number of redesign steps.
//
// The loop runs through the incremental engine: the design is elaborated
// once, and each drive resize re-analyses only the clusters whose arc
// delays (own arcs plus arcs driving the resized gate's input nets)
// actually changed — the paper's Algorithm 3 "re-perform timing analysis"
// step at incremental cost.
func Run(lib *celllib.Library, design *netlist.Design, opts core.Options, maxIter int) (*Result, error) {
	res := &Result{AreaBefore: designArea(lib, design)}
	var eng *incremental.Engine
	defer func() {
		d := design
		if eng != nil {
			d = eng.Design()
		}
		res.AreaAfter = designArea(lib, d)
	}()

	eng, err := incremental.Open(lib, design, opts)
	if err != nil {
		return nil, err
	}
	for iter := 0; ; iter++ {
		rep := eng.Report()
		res.Iterations = iter + 1
		res.WorstSlack = rep.WorstSlack()
		if rep.OK {
			res.OK = true
			return res, nil
		}
		if iter >= maxIter {
			return res, nil
		}
		// Constraint generation for the modules traversed by slow paths
		// (Algorithm 2); the budgets steer candidate selection.
		constraints, err := eng.Constraints()
		if err != nil {
			return nil, err
		}
		change, ok := pickChange(eng, rep, constraints)
		if !ok {
			return res, nil // no move available: report failure honestly
		}
		if _, err := eng.Apply(incremental.Edit{Op: incremental.Resize, Inst: change.Inst, To: change.ToCell}); err != nil {
			return nil, err
		}
		res.Changes = append(res.Changes, change)
	}
}

// pickChange selects the most promising gate on a slow path: the instance
// whose upsizing buys the largest arc-delay reduction on an arc that
// violates its Algorithm 2 budget. Candidates are found by name through
// the engine's instance index.
func pickChange(eng *incremental.Engine, rep *core.Report, c *core.Constraints) (Change, bool) {
	a := eng.Analyzer()
	nw := a.CD.Network
	lib := a.Lib
	seen := map[string]bool{}
	best := Change{}
	var bestGain clock.Time = 0

	consider := func(instName string) {
		if seen[instName] {
			return
		}
		seen[instName] = true
		inst := eng.Instance(instName)
		if inst == nil {
			return
		}
		next := upsize(lib, inst.Ref)
		if next == "" {
			return
		}
		curCell, nextCell := lib.Cell(inst.Ref), lib.Cell(next)
		// Estimated gain: worst arc delay at the present load, minus the
		// upsized cell's delay at the same load, minus the knock-on cost
		// of the increased input capacitance on the driving gates
		// (approximated with the average slope of the library's X1
		// drivers, ~10 ps/fF).
		var gain clock.Time
		for ai := range curCell.Arcs {
			arc := &curCell.Arcs[ai]
			outNet, ok := inst.Conns[arc.To]
			if !ok {
				continue
			}
			load := nw.Calc.NetLoad(outNet)
			var narc *celllib.Arc
			for ni := range nextCell.Arcs {
				if nextCell.Arcs[ni].From == arc.From && nextCell.Arcs[ni].To == arc.To {
					narc = &nextCell.Arcs[ni]
				}
			}
			if narc == nil {
				continue
			}
			d0 := arc.Delay.MaxRise.Eval(load)
			if f := arc.Delay.MaxFall.Eval(load); f > d0 {
				d0 = f
			}
			d1 := narc.Delay.MaxRise.Eval(load)
			if f := narc.Delay.MaxFall.Eval(load); f > d1 {
				d1 = f
			}
			if g := d0 - d1; g > gain {
				gain = g
			}
		}
		var capPenalty clock.Time
		for i := range curCell.Pins {
			p := &curCell.Pins[i]
			if p.Dir != celllib.In {
				continue
			}
			if np := nextCell.Pin(p.Name); np != nil && np.C > p.C {
				capPenalty += clock.Time(int64(np.C-p.C) * 10)
			}
		}
		gain -= capPenalty
		if gain > bestGain {
			bestGain = gain
			best = Change{Inst: instName, FromCell: inst.Ref, ToCell: next, Gain: gain}
		}
	}

	// Candidates: every instance on a traced slow path, worst paths first.
	paths := append([]core.SlowPath(nil), rep.SlowPaths...)
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if paths[j].Slack < paths[i].Slack {
				paths[i], paths[j] = paths[j], paths[i]
			}
		}
	}
	for _, p := range paths {
		for k, instName := range p.Insts {
			// Only bother with arcs that actually violate their budget.
			if k+1 < len(p.Nets) {
				budget := c.Allowed(p.Nets[k], p.Nets[k+1])
				if budget == clock.Inf {
					continue
				}
			}
			consider(instName)
		}
	}
	if bestGain <= 0 {
		return Change{}, false
	}
	return best, true
}
