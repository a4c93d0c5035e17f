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

func TestLevels(t *testing.T) {
	//   0 -> 1 -> 3
	//   0 -> 2 -> 3 ; 2 -> 4
	g := mk(5, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {2, 4}})
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2, 2}
	for i := range want {
		if lvl[i] != want[i] {
			t.Fatalf("levels = %v, want %v", lvl, want)
		}
	}
}

func TestLevelsLongestPath(t *testing.T) {
	// Diamond with a long arm: level must be the LONGEST source distance.
	g := mk(5, [][2]int{{0, 4}, {0, 1}, {1, 2}, {2, 3}, {3, 4}})
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lvl[4] != 4 {
		t.Fatalf("lvl[4] = %d, want 4 (longest path)", lvl[4])
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

func TestSCCBasic(t *testing.T) {
	// Two 2-cycles joined by an edge plus a tail node.
	g := mk(5, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {3, 4}})
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("scc count = %d (%v), want 3", n, comp)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[2] {
		t.Fatalf("scc assignment wrong: %v", comp)
	}
	// Reverse-topological ids: {0,1} reaches {2,3} reaches {4}.
	if !(comp[0] > comp[2] && comp[2] > comp[4]) {
		t.Fatalf("scc ids not reverse-topological: %v", comp)
	}
}

func TestSCCAllSingletonsOnDAG(t *testing.T) {
	g := mk(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	_, n := g.SCC()
	if n != 4 {
		t.Fatalf("scc count on DAG = %d, want 4", n)
	}
}

func TestSCCCountMatchesCycleFreedom(t *testing.T) {
	// Property: graph acyclic (ignoring self loops: none generated here
	// since u<v) <=> every SCC is a singleton.
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
		_, c := g.SCC()
		_, err := g.TopoSort()
		return (c == n) == (err == nil)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInduced(t *testing.T) {
	g := mk(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	keep := []bool{true, true, true, false, false}
	sub, o2n, n2o := g.Induced(keep)
	if len(sub.out) != 3 || sub.m != 2 {
		t.Fatalf("induced N=%d M=%d", len(sub.out), sub.m)
	}
	if o2n[3] != -1 || o2n[0] != 0 {
		t.Fatalf("oldToNew = %v", o2n)
	}
	if len(n2o) != 3 || n2o[2] != 2 {
		t.Fatalf("newToOld = %v", n2o)
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
