// Package clock models the synchronisation waveforms of the paper: any set
// of clock signals with harmonically related frequencies and arbitrary phase
// relationships (§3). All members of a Set share an overall period — the
// least common multiple of the member periods — and every rise/fall edge
// occurring within one overall period is enumerable as an Edge.
//
// Times are integer picoseconds. Integer time keeps the cyclic arithmetic of
// the break-open search (§7) exact: two edges either coincide or they do
// not, with no floating-point ambiguity.
package clock

import (
	"fmt"
	"math"
	"sort"
)

// Time is an instant or duration in integer picoseconds.
type Time int64

// Inf is a time value larger than any physically meaningful one; it is used
// as the "large number" the paper assigns to the slack of outputs that a
// given analysis pass does not apply to (§7).
const Inf Time = math.MaxInt64 / 4

// Common duration units.
const (
	Ps Time = 1
	Ns Time = 1000
	Us Time = 1000 * Ns
)

// String renders a Time in nanoseconds with picosecond precision.
func (t Time) String() string {
	if t == Inf {
		return "+inf"
	}
	if t == -Inf {
		return "-inf"
	}
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	if v%Ns == 0 {
		return fmt.Sprintf("%s%dns", neg, v/Ns)
	}
	return fmt.Sprintf("%s%d.%03dns", neg, v/Ns, v%Ns)
}

// EdgeKind distinguishes the two voltage transitions of a clock pulse.
type EdgeKind uint8

const (
	// Rise is the leading (low-to-high) transition of a pulse.
	Rise EdgeKind = iota
	// Fall is the trailing (high-to-low) transition of a pulse.
	Fall
)

// String returns "rise" or "fall".
func (k EdgeKind) String() string {
	if k == Rise {
		return "rise"
	}
	return "fall"
}

// Signal is one periodic clock waveform. The signal is high on the cyclic
// interval [RiseAt, FallAt) within each of its periods. RiseAt and FallAt
// are phases in [0, Period) and must differ, so every period carries exactly
// one pulse (the paper's generic synchronising element is controlled by a
// single clock pulse per period of its clock; elements clocked faster than
// the overall period are replicated, §4).
type Signal struct {
	Name   string
	Period Time
	RiseAt Time
	FallAt Time
}

// Validate checks the structural invariants of the signal.
func (s Signal) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("clock: signal with empty name")
	}
	if s.Period <= 0 {
		return fmt.Errorf("clock %s: period %v must be positive", s.Name, s.Period)
	}
	if s.RiseAt < 0 || s.RiseAt >= s.Period {
		return fmt.Errorf("clock %s: rise phase %v outside [0,%v)", s.Name, s.RiseAt, s.Period)
	}
	if s.FallAt < 0 || s.FallAt >= s.Period {
		return fmt.Errorf("clock %s: fall phase %v outside [0,%v)", s.Name, s.FallAt, s.Period)
	}
	if s.RiseAt == s.FallAt {
		return fmt.Errorf("clock %s: rise and fall phases coincide at %v", s.Name, s.RiseAt)
	}
	return nil
}

// EdgeTime returns the absolute time of occurrence i (0-based) of the given
// edge kind, counting occurrences from time zero.
func (s Signal) EdgeTime(kind EdgeKind, i int) Time {
	base := s.RiseAt
	if kind == Fall {
		base = s.FallAt
	}
	return base + Time(i)*s.Period
}

// mod returns t modulo m in [0, m).
func mod(t, m Time) Time {
	r := t % m
	if r < 0 {
		r += m
	}
	return r
}

// Edge is one clock transition within the overall period of a Set.
type Edge struct {
	// Sig indexes the owning signal within the Set.
	Sig int
	// Kind is Rise or Fall.
	Kind EdgeKind
	// Occur is the occurrence index of this edge of this signal within the
	// overall period (0 .. T/Period - 1).
	Occur int
	// At is the absolute edge time in [0, T).
	At Time
}

// maxEdgesPerPeriod bounds the edge list of a Set; see NewSet.
const maxEdgesPerPeriod = 4096

// Set is a collection of clock signals analysed together. Construct with
// NewSet, which validates the members and precomputes the overall period and
// the sorted edge list.
type Set struct {
	signals []Signal
	overall Time
	edges   []Edge
	byName  map[string]int
}

// NewSet builds a Set from the given signals. It returns an error if any
// signal is invalid, names collide, or the overall period (the LCM of the
// member periods) would overflow the time representation.
func NewSet(signals ...Signal) (*Set, error) {
	if len(signals) == 0 {
		return nil, fmt.Errorf("clock: a set needs at least one signal")
	}
	byName := make(map[string]int, len(signals))
	overall := Time(1)
	for i, s := range signals {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if j, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("clock: duplicate signal name %q (indices %d and %d)", s.Name, j, i)
		}
		byName[s.Name] = i
		var ok bool
		overall, ok = lcm(overall, s.Period)
		if !ok {
			return nil, fmt.Errorf("clock: overall period overflow combining %q", s.Name)
		}
	}
	// Guard against near-coprime periods: the paper's synchronous-operation
	// assumption (§3) means realistic clock sets have a handful of edges
	// per overall period; thousands indicate a broken harmonic relation
	// (and would blow up element replication downstream).
	var totalEdges int64
	for _, s := range signals {
		totalEdges += 2 * int64(overall/s.Period)
	}
	if totalEdges > maxEdgesPerPeriod {
		return nil, fmt.Errorf("clock: %d edges per overall period %v; the signals are not harmonically related in any useful sense", totalEdges, overall)
	}
	set := &Set{signals: append([]Signal(nil), signals...), overall: overall, byName: byName}
	for si, s := range set.signals {
		n := int(overall / s.Period)
		for i := 0; i < n; i++ {
			set.edges = append(set.edges,
				Edge{Sig: si, Kind: Rise, Occur: i, At: s.EdgeTime(Rise, i)},
				Edge{Sig: si, Kind: Fall, Occur: i, At: s.EdgeTime(Fall, i)},
			)
		}
	}
	sort.Slice(set.edges, func(a, b int) bool {
		ea, eb := set.edges[a], set.edges[b]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		if ea.Sig != eb.Sig {
			return ea.Sig < eb.Sig
		}
		return ea.Kind < eb.Kind
	})
	return set, nil
}

// Overall returns the overall clock period T: the smallest interval that is
// an integer multiple of every member period (§3's synchronous-operation
// assumption).
func (cs *Set) Overall() Time { return cs.overall }

// Len returns the number of signals in the set.
func (cs *Set) Len() int { return len(cs.signals) }

// Signal returns the i-th signal.
func (cs *Set) Signal(i int) Signal { return cs.signals[i] }

// Index returns the index of the named signal, or -1 if absent.
func (cs *Set) Index(name string) int {
	if i, ok := cs.byName[name]; ok {
		return i
	}
	return -1
}

// Edges returns every clock transition within one overall period, sorted by
// time (ties broken by signal index then kind). The returned slice is owned
// by the Set and must not be modified.
func (cs *Set) Edges() []Edge { return cs.edges }

// PulseCount returns how many pulses signal i contributes per overall
// period; a synchronising element controlled by that signal is replicated
// this many times (§4).
func (cs *Set) PulseCount(i int) int {
	return int(cs.overall / cs.signals[i].Period)
}

// FindEdge locates the edge of the given signal/kind/occurrence in the
// sorted edge list and returns its index, or -1 if out of range.
func (cs *Set) FindEdge(sig int, kind EdgeKind, occur int) int {
	for i, e := range cs.edges {
		if e.Sig == sig && e.Kind == kind && e.Occur == occur {
			return i
		}
	}
	return -1
}

// CyclicForward returns the forward cyclic distance from time a to time b
// within the overall period: the unique d in [0, T) with (a+d) ≡ b (mod T).
func (cs *Set) CyclicForward(a, b Time) Time {
	return mod(b-a, cs.overall)
}

// lcm returns the least common multiple of a and b and whether it fits the
// representation (bounded well inside int64 so downstream sums cannot
// overflow).
func lcm(a, b Time) (Time, bool) {
	g := gcd(a, b)
	q := a / g
	if q > Inf/b {
		return 0, false
	}
	return q * b, true
}

func gcd(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TwoPhase constructs the classic non-overlapping two-phase clock pair:
// both phases share the given period; phi1 is high on [0, width) and phi2
// on [period/2, period/2+width). width must leave a non-overlap gap
// (width < period/2). It is a fixture of the clock tests.
func TwoPhase(period, width Time) (*Set, error) {
	if width <= 0 || width >= period/2 {
		return nil, fmt.Errorf("clock: two-phase width %v must be in (0, %v)", width, period/2)
	}
	return NewSet(
		Signal{Name: "phi1", Period: period, RiseAt: 0, FallAt: width},
		Signal{Name: "phi2", Period: period, RiseAt: period / 2, FallAt: period/2 + width},
	)
}

// MultiPhase constructs n equally spaced non-overlapping phases named
// "phi1".."phiN" over the given period. Each phase is high for width. It
// is a fixture of the clock and breakopen tests.
func MultiPhase(n int, period, width Time) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("clock: need at least one phase, got %d", n)
	}
	step := period / Time(n)
	if width <= 0 || width >= step {
		return nil, fmt.Errorf("clock: phase width %v must be in (0, %v) for %d phases", width, step, n)
	}
	sigs := make([]Signal, n)
	for i := range sigs {
		start := Time(i) * step
		sigs[i] = Signal{
			Name:   fmt.Sprintf("phi%d", i+1),
			Period: period,
			RiseAt: start,
			FallAt: start + width,
		}
	}
	return NewSet(sigs...)
}
