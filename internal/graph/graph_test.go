package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mk(n int, edges [][2]int) *Digraph {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return g
}

func TestTopoSortLinear(t *testing.T) {
	g := mk(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	want := []int{0, 1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := mk(5, [][2]int{{4, 2}, {3, 2}, {2, 0}, {2, 1}})
	a, _ := g.TopoSort()
	b, _ := g.TopoSort()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic topo sort: %v vs %v", a, b)
		}
	}
	// Among ready nodes the smallest index is emitted first: 3 before 4.
	if a[0] != 3 || a[1] != 4 {
		t.Fatalf("expected smallest-first frontier, got %v", a)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := mk(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestTopoSortEmpty(t *testing.T) {
	g := New(0)
	order, err := g.TopoSort()
	if err != nil || len(order) != 0 {
		t.Fatalf("empty graph: order=%v err=%v", order, err)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := New(n)
		// Random DAG: edges only from lower to higher index.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(4) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.out[u] {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	g := mk(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if c := g.FindCycle(); c != nil {
		t.Fatalf("FindCycle on DAG = %v, want nil", c)
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	g := mk(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}})
	c := g.FindCycle()
	if len(c) == 0 {
		t.Fatal("no cycle found")
	}
	// Verify every consecutive pair is an edge, and last->first closes it.
	has := func(u, v int) bool {
		for _, w := range g.out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < len(c); i++ {
		u, v := c[i], c[(i+1)%len(c)]
		if !has(u, v) {
			t.Fatalf("cycle %v: missing edge %d->%d", c, u, v)
		}
	}
}

func TestSelfLoopCycle(t *testing.T) {
	g := mk(2, [][2]int{{0, 0}})
	c := g.FindCycle()
	if len(c) != 1 || c[0] != 0 {
		t.Fatalf("self loop cycle = %v, want [0]", c)
	}
}

// reach returns the nodes reachable from the sources as a mask, one
// ReachCSR walk per source over a shared mask.
func reach(g *Digraph, sources ...int) []bool {
	start, succ := g.CSR()
	seen := make([]bool, len(start)-1)
	for _, s := range sources {
		ReachCSR(start, succ, int32(s), seen, nil)
	}
	return seen
}

func TestReachableFrom(t *testing.T) {
	g := mk(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	start, succ := g.CSR()
	seen := make([]bool, len(start)-1)
	visited := ReachCSR(start, succ, 0, seen, nil)
	if !reflect.DeepEqual(visited, []int32{0, 1, 2}) {
		t.Fatalf("visited = %v, want [0 1 2]", visited)
	}
	want := []bool{true, true, true, false, false, false}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("reach = %v, want %v", seen, want)
	}
	if again := ReachCSR(start, succ, 1, seen, visited); len(again) != 0 {
		t.Fatalf("walk from a marked node entered %v", again)
	}
	r2 := reach(g, 0, 3)
	if !r2[4] || r2[5] {
		t.Fatalf("multi-source reach = %v", r2)
	}
}

func TestReachCoReachDual(t *testing.T) {
	// Property: v reachable from u <=> u reachable from v over the
	// reversed edges.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g, rev := New(n), New(n)
		for i := 0; i < 3*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			g.AddEdge(a, b)
			rev.AddEdge(b, a)
		}
		u, v := r.Intn(n), r.Intn(n)
		return reach(g, u)[v] == reach(rev, v)[u]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedComponents(t *testing.T) {
	c := NewComponents(7)
	for _, e := range [][2]int32{{0, 1}, {2, 1}, {4, 3}, {5, 5}} {
		c.Union(e[0], e[1])
	}
	roots := make([]int32, 7)
	for v := range roots {
		roots[v] = c.Root(int32(v))
	}
	// Each component's root is its smallest node, whichever way its edges
	// point.
	if want := []int32{0, 0, 0, 3, 3, 5, 6}; !reflect.DeepEqual(roots, want) {
		t.Fatalf("roots = %v, want %v", roots, want)
	}
}

func TestSCCCountMatchesCycleFreedom(t *testing.T) {
	// Property: TopoSort accepts a graph exactly when FindCycle finds no
	// cycle in it. Self loops are never generated, since u < v.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		g := New(n)
		cyclic := r.Intn(2) == 1
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(4) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		if cyclic {
			// Force one cycle.
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				b = (a + 1) % n
			}
			if a > b {
				a, b = b, a
			}
			g.AddEdge(a, b)
			g.AddEdge(b, a)
		}
		cycle := g.FindCycle()
		_, err := g.TopoSort()
		return (cycle == nil) == (err == nil) && (cycle != nil || !cyclic)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(2)
	for _, e := range [][2]int{{0, 5}, {-1, 0}, {2, 0}, {0, -3}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Errorf("edge %v accepted", e)
		}
	}
	if g.m != 0 {
		t.Fatalf("rejected edges counted: M=%d", g.m)
	}
}
