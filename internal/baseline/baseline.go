// Package baseline implements the comparison methods the paper positions
// itself against (§2):
//
//   - McWilliams-style analysis [5]: portions of combinational logic are
//     analysed individually with every latch treated as opaque — input
//     closure and output assertion both pinned to the trailing control edge.
//     It "can handle complicated clocking schemes, but it can not model the
//     behaviour of transparent latches": designs that are feasible only
//     through cycle borrowing are reported slow.
//
//   - Explicit path enumeration: the slack definition of §6 computed
//     literally, path by path. Hitchcock's block method [6] computes the
//     same numbers (neither discards false paths) at a fraction of the
//     cost; the A1 ablation measures that gap and the equivalence property
//     test in this package checks the numbers agree.
package baseline

import (
	"fmt"

	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
)

// OpaqueLibrary clones every cell of lib, converting transparent latches
// and tristate drivers into edge-triggered elements (capture and assert on
// the effective trailing control edge). Cell names are preserved, so any
// design referencing lib resolves unchanged against the result.
func OpaqueLibrary(lib *celllib.Library) (*celllib.Library, error) {
	out := celllib.NewLibrary(lib.Name + "+opaque")
	for _, name := range lib.Names() {
		c := lib.Cell(name)
		if c.Kind != celllib.Transparent && c.Kind != celllib.Tristate {
			if err := out.Add(c); err != nil {
				return nil, fmt.Errorf("baseline: %w", err)
			}
			continue
		}
		clone := *c
		clone.Kind = celllib.EdgeTriggered
		st := *c.Sync
		clone.Sync = &st
		if err := out.Add(&clone); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
	}
	return out, nil
}

// AnalyzeOpaque runs the full analysis pipeline with the opaque-latch
// model. Because no element retains a degree of freedom, Algorithm 1
// degenerates to a single classic static timing analysis — exactly the
// McWilliams-class method.
func AnalyzeOpaque(lib *celllib.Library, design *netlist.Design, opts core.Options) (*core.Report, error) {
	opq, err := OpaqueLibrary(lib)
	if err != nil {
		return nil, err
	}
	a, err := core.Load(opq, design, opts)
	if err != nil {
		return nil, err
	}
	for _, e := range a.CD.Elems {
		if e.HasDOF() {
			return nil, fmt.Errorf("baseline: opaque model left a degree of freedom on %s", e.Name())
		}
	}
	return a.IdentifySlowPaths()
}

// EnumerationResult carries the per-net slacks computed by explicit path
// enumeration, plus the number of paths visited (the cost driver the block
// method avoids).
type EnumerationResult struct {
	NetSlack []clock.Time
	Paths    int
}

// EnumerateSlacks computes every net's slack by walking every
// input→output path of every cluster pass explicitly — in *transition
// space*: a path node is a (net, rise/fall) pair and each arc maps input
// transitions to output transitions through its unateness, exactly as the
// block propagation does. The result therefore matches the block method
// net-for-net (the equivalence property the A1 ablation relies on), at a
// cost exponential in the worst case — usable on test- and example-scale
// designs only, which is the paper's point about the block method.
func EnumerateSlacks(cd *cluster.CompiledDesign, st *sta.AnalysisState) *EnumerationResult {
	nw := cd.Network
	res := &EnumerationResult{NetSlack: make([]clock.Time, len(nw.Nets))}
	for i := range res.NetSlack {
		res.NetSlack[i] = clock.Inf
	}
	T := nw.Clocks.Overall()
	for _, cl := range nw.Clusters {
		for pi, beta := range cl.Plan.Breaks {
			closures := map[int]clock.Time{} // net -> closure (min over endpoints)
			for oi, out := range cl.Outputs {
				if p, ok := cl.Plan.Assign[oi]; !ok || p != pi {
					continue
				}
				e := nw.Elems[out.Elem]
				c := breakopen.ClosePos(e.IdealClose, beta, T) + e.InputOffsetAt(st.Odz[out.Elem])
				if prev, ok := closures[out.Net]; !ok || c < prev {
					closures[out.Net] = c
				}
			}
			for _, in := range cl.Inputs {
				e := nw.Elems[in.Elem]
				assert := breakopen.AssertPos(e.IdealAssert, beta, T) + e.OutputOffsetAt(st.Odz[in.Elem])
				var walk func(net int, rise bool, delay clock.Time, trail []int)
				walk = func(net int, rise bool, delay clock.Time, trail []int) {
					trail = append(trail, net)
					if c, ok := closures[net]; ok {
						res.Paths++
						slack := c - assert - delay
						for _, n := range trail {
							if slack < res.NetSlack[n] {
								res.NetSlack[n] = slack
							}
						}
					}
					for _, ai := range cl.ArcsFrom(net) {
						arc := &cl.Arcs[ai]
						// Transition-space successors of (net, rise).
						switch arc.Sense {
						case celllib.PositiveUnate:
							if rise {
								walk(arc.To, true, delay+arc.D.MaxRise, trail)
							} else {
								walk(arc.To, false, delay+arc.D.MaxFall, trail)
							}
						case celllib.NegativeUnate:
							if rise {
								walk(arc.To, false, delay+arc.D.MaxFall, trail)
							} else {
								walk(arc.To, true, delay+arc.D.MaxRise, trail)
							}
						default: // NonUnate: either output transition
							walk(arc.To, true, delay+arc.D.MaxRise, trail)
							walk(arc.To, false, delay+arc.D.MaxFall, trail)
						}
					}
				}
				// Both transitions assert together at a cluster input.
				walk(in.Net, true, 0, nil)
				walk(in.Net, false, 0, nil)
			}
		}
	}
	return res
}

// CompareBorrowing runs both the full (transparent) and the opaque analysis
// on one design and reports the violation counts — the A2 ablation row.
type BorrowingComparison struct {
	TransparentOK    bool
	OpaqueOK         bool
	TransparentSlow  int
	OpaqueSlow       int
	TransparentWorst clock.Time
	OpaqueWorst      clock.Time
}

// CompareBorrowing evaluates the value of transparent-latch modelling on a
// design: the opaque baseline flags every cycle-borrowing path as slow.
func CompareBorrowing(lib *celllib.Library, design *netlist.Design, opts core.Options) (*BorrowingComparison, error) {
	a, err := core.Load(lib, design, opts)
	if err != nil {
		return nil, err
	}
	full, err := a.IdentifySlowPaths()
	if err != nil {
		return nil, err
	}
	opq, err := AnalyzeOpaque(lib, design, opts)
	if err != nil {
		return nil, err
	}
	return &BorrowingComparison{
		TransparentOK: full.OK, OpaqueOK: opq.OK,
		TransparentSlow: len(full.SlowElems), OpaqueSlow: len(opq.SlowElems),
		TransparentWorst: full.WorstSlack(), OpaqueWorst: opq.WorstSlack(),
	}, nil
}

// BlockVsEnum compares the block method's net slacks with enumeration on
// the network's current offsets; it returns the number of nets whose
// slacks disagree (expected zero — the transition-space enumeration is
// exact) and the enumerated path count.
func BlockVsEnum(cd *cluster.CompiledDesign, st *sta.AnalysisState) (mismatches, paths int) {
	block := sta.Analyze(cd, st)
	enum := EnumerateSlacks(cd, st)
	return CountMismatches(block, enum), enum.Paths
}

// CountMismatches diffs an existing block result against an existing
// enumeration result, so callers that already ran (and timed) both do not
// pay for a second pair of runs.
func CountMismatches(block *sta.Result, enum *EnumerationResult) int {
	mismatches := 0
	for n := range block.NumNets() {
		b, e := block.NetSlack(n), enum.NetSlack[n]
		if b == clock.Inf && e == clock.Inf {
			continue
		}
		if b != e {
			mismatches++
		}
	}
	return mismatches
}
