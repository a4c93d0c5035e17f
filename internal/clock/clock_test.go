package clock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mustSet wraps NewSet for static, known-valid test fixtures.
func mustSet(signals ...Signal) *Set {
	s, err := NewSet(signals...)
	if err != nil {
		panic(err)
	}
	return s
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{20 * Ns, "20ns"},
		{-5 * Ns, "-5ns"},
		{1500, "1.500ns"},
		{-250, "-0.250ns"},
		{Inf, "+inf"},
		{-Inf, "-inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSignalValidate(t *testing.T) {
	good := Signal{Name: "phi", Period: 100 * Ns, RiseAt: 0, FallAt: 20 * Ns}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid signal rejected: %v", err)
	}
	bad := []Signal{
		{Name: "", Period: 100, RiseAt: 0, FallAt: 10},
		{Name: "p", Period: 0, RiseAt: 0, FallAt: 10},
		{Name: "p", Period: 100, RiseAt: -1, FallAt: 10},
		{Name: "p", Period: 100, RiseAt: 0, FallAt: 100},
		{Name: "p", Period: 100, RiseAt: 40, FallAt: 40},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid signal accepted: %+v", i, s)
		}
	}
}

// isHigh reports whether the waveform is high at absolute time t (t may
// be any integer, negative included): the oracle of the non-overlap
// checks of TestTwoPhase and TestMultiPhase.
func isHigh(s Signal, t Time) bool {
	p := mod(t, s.Period)
	if s.RiseAt < s.FallAt {
		return p >= s.RiseAt && p < s.FallAt
	}
	return p >= s.RiseAt || p < s.FallAt
}

func TestIsHigh(t *testing.T) {
	s := Signal{Name: "p", Period: 100, RiseAt: 10, FallAt: 40}
	for _, c := range []struct {
		t    Time
		want bool
	}{{0, false}, {10, true}, {39, true}, {40, false}, {110, true}, {-60, false}, {-61, true}} {
		if got := isHigh(s, c.t); got != c.want {
			t.Errorf("IsHigh(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Wrapping pulse.
	w := Signal{Name: "w", Period: 100, RiseAt: 90, FallAt: 20}
	for _, c := range []struct {
		t    Time
		want bool
	}{{95, true}, {5, true}, {20, false}, {50, false}, {89, false}, {190, true}} {
		if got := isHigh(w, c.t); got != c.want {
			t.Errorf("wrap IsHigh(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestIsHighWidthConsistency(t *testing.T) {
	// Property: the number of high sample points in one period equals the
	// pulse width, the cyclic distance from rise to fall.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Time(10 + r.Intn(200))
		rise := Time(r.Intn(int(p)))
		fall := Time(r.Intn(int(p)))
		if rise == fall {
			fall = (fall + 1) % p
		}
		s := Signal{Name: "x", Period: p, RiseAt: rise, FallAt: fall}
		n := Time(0)
		for i := Time(0); i < p; i++ {
			if isHigh(s, i) {
				n++
			}
		}
		return n == mod(fall-rise, p)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSetOverall(t *testing.T) {
	cs, err := NewSet(
		Signal{Name: "a", Period: 100 * Ns, RiseAt: 0, FallAt: 20 * Ns},
		Signal{Name: "b", Period: 50 * Ns, RiseAt: 0, FallAt: 10 * Ns},
		Signal{Name: "c", Period: 40 * Ns, RiseAt: 5 * Ns, FallAt: 15 * Ns},
	)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Overall() != 200*Ns {
		t.Fatalf("overall = %v, want 200ns", cs.Overall())
	}
	if cs.PulseCount(0) != 2 || cs.PulseCount(1) != 4 || cs.PulseCount(2) != 5 {
		t.Fatalf("pulse counts = %d %d %d", cs.PulseCount(0), cs.PulseCount(1), cs.PulseCount(2))
	}
}

func TestNewSetRejectsDuplicates(t *testing.T) {
	_, err := NewSet(
		Signal{Name: "a", Period: 100, RiseAt: 0, FallAt: 20},
		Signal{Name: "a", Period: 100, RiseAt: 50, FallAt: 70},
	)
	if err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestNewSetRejectsCoprimePeriods(t *testing.T) {
	// Periods 9999 and 10000 ps have an overall period of ~10^8 ps with
	// tens of thousands of edges; the harmonic-relation guard rejects it.
	_, err := NewSet(
		Signal{Name: "a", Period: 10000, RiseAt: 0, FallAt: 5000},
		Signal{Name: "b", Period: 9999, RiseAt: 0, FallAt: 5000},
	)
	if err == nil {
		t.Fatal("near-coprime periods accepted")
	}
}

func TestNewSetRejectsEmpty(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	cs := mustSet(
		Signal{Name: "a", Period: 100, RiseAt: 0, FallAt: 30},
		Signal{Name: "b", Period: 50, RiseAt: 10, FallAt: 25},
	)
	edges := cs.Edges()
	// a contributes 2 edges, b contributes 4 edges per overall period (100).
	if len(edges) != 6 {
		t.Fatalf("edge count = %d, want 6", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].At > edges[i].At {
			t.Fatalf("edges not sorted: %v then %v", edges[i-1], edges[i])
		}
	}
	for _, e := range edges {
		if e.At < 0 || e.At >= cs.Overall() {
			t.Fatalf("edge time %v outside [0,%v)", e.At, cs.Overall())
		}
		sig := cs.Signal(e.Sig)
		want := sig.EdgeTime(e.Kind, e.Occur)
		if e.At != want {
			t.Fatalf("edge %v: time %v, want %v", e, e.At, want)
		}
	}
}

func TestEdgesPropertyCount(t *testing.T) {
	// Property: each signal contributes exactly 2*T/P edges, all within [0,T).
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		sigs := make([]Signal, n)
		base := Time(4 * (1 + r.Intn(8)))
		for i := range sigs {
			p := base * Time(1<<uint(r.Intn(3))) // harmonically related by construction
			rise := Time(r.Intn(int(p)))
			fall := (rise + 1 + Time(r.Intn(int(p)-1))) % p
			sigs[i] = Signal{Name: string(rune('a' + i)), Period: p, RiseAt: rise, FallAt: fall}
		}
		cs, err := NewSet(sigs...)
		if err != nil {
			return false
		}
		counts := make([]int, n)
		for _, e := range cs.Edges() {
			if e.At < 0 || e.At >= cs.Overall() {
				return false
			}
			counts[e.Sig]++
		}
		for i := range sigs {
			if counts[i] != 2*int(cs.Overall()/sigs[i].Period) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexAndEdgeName(t *testing.T) {
	cs := mustSet(
		Signal{Name: "phi1", Period: 100, RiseAt: 0, FallAt: 30},
		Signal{Name: "fast", Period: 50, RiseAt: 10, FallAt: 25},
	)
	if cs.Index("phi1") != 0 || cs.Index("fast") != 1 || cs.Index("nope") != -1 {
		t.Fatal("Index lookup wrong")
	}
}

func TestFindEdge(t *testing.T) {
	cs := mustSet(
		Signal{Name: "a", Period: 100, RiseAt: 0, FallAt: 30},
		Signal{Name: "b", Period: 50, RiseAt: 10, FallAt: 25},
	)
	i := cs.FindEdge(1, Fall, 1)
	if i < 0 {
		t.Fatal("edge not found")
	}
	e := cs.Edges()[i]
	if e.Sig != 1 || e.Kind != Fall || e.Occur != 1 || e.At != 75 {
		t.Fatalf("found wrong edge %+v", e)
	}
	if cs.FindEdge(0, Rise, 5) != -1 {
		t.Fatal("out-of-range occurrence found")
	}
}

func TestCyclicForward(t *testing.T) {
	cs := mustSet(Signal{Name: "a", Period: 100, RiseAt: 0, FallAt: 50})
	if d := cs.CyclicForward(30, 70); d != 40 {
		t.Fatalf("forward 30->70 = %v", d)
	}
	if d := cs.CyclicForward(70, 30); d != 60 {
		t.Fatalf("forward 70->30 = %v", d)
	}
	if d := cs.CyclicForward(25, 25); d != 0 {
		t.Fatalf("forward 25->25 = %v", d)
	}
}

func TestTwoPhase(t *testing.T) {
	cs, err := TwoPhase(100*Ns, 20*Ns)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 2 || cs.Overall() != 100*Ns {
		t.Fatalf("two-phase wrong shape: len=%d T=%v", cs.Len(), cs.Overall())
	}
	p1, p2 := cs.Signal(0), cs.Signal(1)
	// Non-overlap: never both high.
	for t0 := Time(0); t0 < cs.Overall(); t0 += 500 {
		if isHigh(p1, t0) && isHigh(p2, t0) {
			t.Fatalf("phases overlap at %v", t0)
		}
	}
	if _, err := TwoPhase(100, 50); err == nil {
		t.Fatal("overlapping two-phase accepted")
	}
}

func TestMultiPhase(t *testing.T) {
	cs, err := MultiPhase(4, 200*Ns, 30*Ns)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 4 {
		t.Fatalf("len = %d", cs.Len())
	}
	// Mutually non-overlapping.
	for t0 := Time(0); t0 < cs.Overall(); t0 += 1000 {
		high := 0
		for i := 0; i < 4; i++ {
			if isHigh(cs.Signal(i), t0) {
				high++
			}
		}
		if high > 1 {
			t.Fatalf("%d phases high simultaneously at %v", high, t0)
		}
	}
	if _, err := MultiPhase(0, 100, 10); err == nil {
		t.Fatal("zero phases accepted")
	}
	if _, err := MultiPhase(4, 100, 30); err == nil {
		t.Fatal("too-wide phases accepted")
	}
}

func TestEdgeTimeNegativeIndexAndPeriodicity(t *testing.T) {
	s := Signal{Name: "p", Period: 100, RiseAt: 10, FallAt: 40}
	if s.EdgeTime(Rise, 0) != 10 || s.EdgeTime(Rise, 3) != 310 {
		t.Fatal("EdgeTime rise wrong")
	}
	if s.EdgeTime(Fall, 2) != 240 {
		t.Fatal("EdgeTime fall wrong")
	}
}

func TestNewSetRejectsInvalidSignal(t *testing.T) {
	if _, err := NewSet(Signal{Name: "", Period: 0}); err == nil {
		t.Fatal("NewSet accepted an invalid signal")
	}
}
