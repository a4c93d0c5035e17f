// Package breakopen implements the pre-processing stage of §7: deciding how
// many block-analysis passes each combinational cluster needs, where to
// "break open" the clock period for each pass, and which pass applies to
// each cluster output — such that the *minimum* number of settling times is
// computed per node (the paper's headline new feature).
//
// # Model
//
// The clock edges of one overall period T form a circle (the directed graph
// of Figure 4: each original arc connects consecutive edge times). Breaking
// the period open means removing one original arc; the resulting window
// starts at the removed arc's head edge. We therefore identify each break
// candidate with a window start time β — the time of a clock edge — and use
// the half-open conventions
//
//	assertion position  posA(a) = (a − β) mod T           ∈ [0, T)
//	closure   position  posC(c) = T if c ≡ β, else (c − β) mod T   ∈ (0, T]
//
// so that a closure edge coinciding with the window start maps to the *end*
// of the window. A same-edge launch/capture pair (FF→FF on one clock) then
// naturally yields the §4 special case D = exactly one overall period.
//
// # Requirements
//
// A pass with window start β applies to cluster output o (closure edge time
// c, feeding assertion edge times a_j) iff posA(a_j) < posC(c) for every j.
// Working out the cyclic arithmetic, this holds exactly when β lies within
// cyclic forward distance dmin = min_j((a_j − c) mod T) of c: the zone of o
// is the cyclic interval [c, c+dmin]. (An input asserted on the closure edge
// itself gives dmin = 0: only the break exactly at c applies, the D = T
// case.) The minimum pass set is a minimum hitting set of these circular
// intervals over the break candidates; following the paper we find it by
// exhaustive search over sets of size 1, 2, … ("we try all possible pairs,
// and so on"), with a greedy set cover available for comparison (and as a
// fallback for degenerate inputs needing very many passes).
package breakopen

import (
	"fmt"
	"math/bits"
	"sort"

	"hummingbird/internal/clock"
)

// Output describes one cluster output (one closure occurrence): its ideal
// closure edge time and the ideal assertion edge times of every cluster
// input occurrence from which a combinational path reaches it.
type Output struct {
	// ID is the caller's identifier, echoed in the Plan's assignment.
	ID int
	// Close is the ideal closure time, in [0, T); it must be one of the
	// break candidates (it is a clock edge time by construction).
	Close clock.Time
	// Asserts are the ideal assertion times of the feeding inputs, each in
	// [0, T). An output with no feeding inputs is trivially satisfied by
	// every pass.
	Asserts []clock.Time
}

// Plan is the chosen set of analysis passes for one cluster.
type Plan struct {
	// T is the overall clock period.
	T clock.Time
	// Breaks lists the chosen window start times, sorted ascending. One
	// block-analysis pass is run per entry.
	Breaks []clock.Time
	// Assign maps each output ID to the index within Breaks of the pass
	// that applies to it and places its closure nearest the window end.
	Assign map[int]int
	// Exhaustive records whether the exact search produced the plan
	// (false: greedy fallback).
	Exhaustive bool
}

// Passes returns the number of analysis passes.
func (p *Plan) Passes() int { return len(p.Breaks) }

// AssertPos maps an assertion edge time into the window starting at break β.
func AssertPos(a, beta, T clock.Time) clock.Time {
	return modT(a-beta, T)
}

// ClosePos maps a closure edge time into the window starting at break β,
// with the coincident edge mapped to the window end (position T).
func ClosePos(c, beta, T clock.Time) clock.Time {
	d := modT(c-beta, T)
	if d == 0 {
		return T
	}
	return d
}

// Applies reports whether the pass with window start beta applies to the
// output: every feeding assertion strictly precedes the closure position.
func Applies(o Output, beta, T clock.Time) bool {
	pc := ClosePos(o.Close, beta, T)
	for _, a := range o.Asserts {
		if AssertPos(a, beta, T) >= pc {
			return false
		}
	}
	return true
}

func modT(t, T clock.Time) clock.Time {
	r := t % T
	if r < 0 {
		r += T
	}
	return r
}

// maxExactBreaks bounds the exhaustive search depth; the paper observes
// "very seldom is it necessary to remove more than two arcs", so four is
// already generous. Beyond it we fall back to greedy set cover.
const maxExactBreaks = 4

// Solve computes the minimum set of analysis passes. candidates are the
// available window start times (the distinct clock edge times of the
// overall period, in any order); T is the overall period.
func Solve(T clock.Time, candidates []clock.Time, outs []Output) (*Plan, error) {
	cands, err := prepCandidates(T, candidates)
	if err != nil {
		return nil, err
	}
	if len(cands) > 64 {
		// The bitmask-based exact search tops out at 64 candidates; such
		// clocking schemes are far beyond the paper's scope. Go greedy.
		return solveGreedyPrepared(T, cands, outs)
	}
	zones, err := zonesOf(T, cands, outs)
	if err != nil {
		return nil, err
	}
	distinct := distinctZones(zones)
	if len(distinct) == 0 {
		return &Plan{T: T, Assign: assign(T, nil, outs), Exhaustive: true}, nil
	}
	// Exhaustive search in increasing size, lexicographic candidate order
	// (candidates are sorted by time, so plans are deterministic).
	for size := 1; size <= maxExactBreaks && size <= len(cands); size++ {
		if sel := searchCover(distinct, len(cands), size); sel != nil {
			breaks := make([]clock.Time, 0, size)
			for _, ci := range sel {
				breaks = append(breaks, cands[ci])
			}
			sort.Slice(breaks, func(i, j int) bool { return breaks[i] < breaks[j] })
			return &Plan{T: T, Breaks: breaks, Assign: assign(T, breaks, outs), Exhaustive: true}, nil
		}
	}
	return solveGreedyPrepared(T, cands, outs)
}

// SolveGreedy computes a pass set with greedy set cover only; it is used by
// the A3 ablation to compare against the exhaustive optimum.
func SolveGreedy(T clock.Time, candidates []clock.Time, outs []Output) (*Plan, error) {
	cands, err := prepCandidates(T, candidates)
	if err != nil {
		return nil, err
	}
	return solveGreedyPrepared(T, cands, outs)
}

func prepCandidates(T clock.Time, candidates []clock.Time) ([]clock.Time, error) {
	if T <= 0 {
		return nil, fmt.Errorf("breakopen: non-positive overall period %v", T)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("breakopen: no break candidates")
	}
	seen := map[clock.Time]bool{}
	var cands []clock.Time
	for _, c := range candidates {
		if c < 0 || c >= T {
			return nil, fmt.Errorf("breakopen: candidate %v outside [0,%v)", c, T)
		}
		if !seen[c] {
			seen[c] = true
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return cands, nil
}

// zonesOf computes each output's zone as a bitmask over candidate indices.
func zonesOf(T clock.Time, cands []clock.Time, outs []Output) ([]uint64, error) {
	idx := make(map[clock.Time]int, len(cands))
	for i, c := range cands {
		idx[c] = i
	}
	zones := make([]uint64, len(outs))
	for oi, o := range outs {
		if o.Close < 0 || o.Close >= T {
			return nil, fmt.Errorf("breakopen: output %d closure %v outside [0,%v)", o.ID, o.Close, T)
		}
		if _, ok := idx[o.Close]; !ok {
			return nil, fmt.Errorf("breakopen: output %d closure %v is not a break candidate", o.ID, o.Close)
		}
		var z uint64
		for ci, beta := range cands {
			if Applies(o, beta, T) {
				z |= 1 << uint(ci)
			}
		}
		if z == 0 {
			// Impossible: the break at o.Close always applies.
			return nil, fmt.Errorf("breakopen: output %d has an empty zone (internal error)", o.ID)
		}
		zones[oi] = z
	}
	return zones, nil
}

// distinctZones drops duplicate and universal-superset zones: a zone that is
// a superset of another is automatically hit whenever the subset is.
func distinctZones(zones []uint64) []uint64 {
	var ds []uint64
	for _, z := range zones {
		redundant := false
		for _, d := range ds {
			if d&z == d { // d ⊆ z: z is implied
				redundant = true
				break
			}
		}
		if redundant {
			continue
		}
		// Remove earlier zones that are supersets of z.
		kept := ds[:0]
		for _, d := range ds {
			if z&d != z {
				kept = append(kept, d)
			}
		}
		ds = append(kept, z)
	}
	return ds
}

// searchCover finds the lexicographically first candidate subset of the
// given size whose union hits every zone, or nil.
func searchCover(zones []uint64, nCands, size int) []int {
	sel := make([]int, size)
	var rec func(start, depth int, hitMask uint64) []int
	covered := func(mask uint64) bool {
		for _, z := range zones {
			if z&mask == 0 {
				return false
			}
		}
		return true
	}
	rec = func(start, depth int, mask uint64) []int {
		if depth == size {
			if covered(mask) {
				out := make([]int, size)
				copy(out, sel)
				return out
			}
			return nil
		}
		for c := start; c < nCands; c++ {
			sel[depth] = c
			if r := rec(c+1, depth+1, mask|1<<uint(c)); r != nil {
				return r
			}
		}
		return nil
	}
	return rec(0, 0, 0)
}

func solveGreedyPrepared(T clock.Time, cands []clock.Time, outs []Output) (*Plan, error) {
	// Greedy set cover over zones recomputed with Applies directly (works
	// for any candidate count).
	remaining := make([]Output, 0, len(outs))
	for _, o := range outs {
		found := false
		for _, beta := range cands {
			if Applies(o, beta, T) {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("breakopen: output %d closure %v is not a break candidate", o.ID, o.Close)
		}
		remaining = append(remaining, o)
	}
	var breaks []clock.Time
	for len(remaining) > 0 {
		best, bestHit := -1, -1
		for ci, beta := range cands {
			hit := 0
			for _, o := range remaining {
				if Applies(o, beta, T) {
					hit++
				}
			}
			if hit > bestHit {
				best, bestHit = ci, hit
			}
		}
		if bestHit <= 0 {
			return nil, fmt.Errorf("breakopen: greedy cover stalled (internal error)")
		}
		beta := cands[best]
		breaks = append(breaks, beta)
		next := remaining[:0]
		for _, o := range remaining {
			if !Applies(o, beta, T) {
				next = append(next, o)
			}
		}
		remaining = next
	}
	sort.Slice(breaks, func(i, j int) bool { return breaks[i] < breaks[j] })
	return &Plan{T: T, Breaks: breaks, Assign: assign(T, breaks, outs), Exhaustive: false}, nil
}

// assign maps each output to the applying pass that places its ideal
// closure time closest to the window end ("for each cluster output we find
// the broken open clock period within which its ideal closure time appears
// closest to the end", §7) — i.e. maximal ClosePos, i.e. minimal forward
// distance (β − c) mod T.
func assign(T clock.Time, breaks []clock.Time, outs []Output) map[int]int {
	m := make(map[int]int, len(outs))
	for _, o := range outs {
		best, bestDist := -1, clock.Inf
		for bi, beta := range breaks {
			if !Applies(o, beta, T) {
				continue
			}
			d := modT(beta-o.Close, T)
			if d < bestDist {
				best, bestDist = bi, d
			}
		}
		if best >= 0 {
			m[o.ID] = best
		}
	}
	return m
}

// MinPassesLowerBound returns a simple lower bound on the number of passes:
// the size of the largest set of outputs whose zones are pairwise disjoint.
// Tests check Solve's pass counts against it.
func MinPassesLowerBound(T clock.Time, candidates []clock.Time, outs []Output) (int, error) {
	cands, err := prepCandidates(T, candidates)
	if err != nil {
		return 0, err
	}
	if len(cands) > 64 {
		return 1, nil
	}
	zones, err := zonesOf(T, cands, outs)
	if err != nil {
		return 0, err
	}
	// Greedy pairwise-disjoint packing (a valid lower bound, not
	// necessarily the best one).
	sort.Slice(zones, func(i, j int) bool { return bits.OnesCount64(zones[i]) < bits.OnesCount64(zones[j]) })
	var used uint64
	n := 0
	for _, z := range zones {
		if z&used == 0 {
			used |= z
			n++
		}
	}
	if n == 0 && len(outs) > 0 {
		n = 1
	}
	return n, nil
}
