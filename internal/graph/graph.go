// Package graph provides the small directed-graph substrate used throughout
// the timing analyzer: topological ordering, cycle detection, reachability
// and connected components over dense integer-indexed node sets.
//
// The combinational portions of a design are required to be acyclic (paper
// §3, assumption 2); this package supplies the machinery both to verify that
// assumption and to order clusters' nets for the block slack computation
// of §7.
package graph

import (
	"errors"
	"fmt"
)

// Digraph is a directed graph over nodes 0..n-1 with successor lists.
type Digraph struct {
	out [][]int
	m   int // edge count
}

// New returns a digraph with n nodes and no edges.
func New(n int) *Digraph {
	return &Digraph{out: make([][]int, n)}
}

// AddEdge inserts the directed edge u -> v, rejecting out-of-range
// endpoints. Parallel edges are permitted; callers that need simple graphs
// must deduplicate themselves.
func (g *Digraph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.out))
	}
	g.addEdge(u, v)
	return nil
}

// addEdge is AddEdge for indices already known to be in range.
func (g *Digraph) addEdge(u, v int) {
	g.out[u] = append(g.out[u], v)
	g.m++
}

// ErrCycle is returned by TopoSort when the graph contains a directed cycle.
var ErrCycle = errors.New("graph: directed cycle detected")

// TopoSort returns a topological ordering of all nodes, or ErrCycle if the
// graph is cyclic. The ordering is deterministic: among ready nodes the
// smallest index is emitted first (Kahn's algorithm with an ordered
// frontier), so repeated runs over the same graph agree.
func (g *Digraph) TopoSort() ([]int, error) {
	order32, err := TopoSortCSR(g.CSR())
	if err != nil {
		return nil, err
	}
	order := make([]int, len(order32))
	for i, v := range order32 {
		order[i] = int(v)
	}
	return order, nil
}

// CSR returns the successor lists in compressed sparse row form: the
// successors of node u are succ[start[u]:start[u+1]], in insertion order.
func (g *Digraph) CSR() (start, succ []int32) {
	start = make([]int32, len(g.out)+1)
	succ = make([]int32, 0, g.m)
	for u, vs := range g.out {
		for _, v := range vs {
			succ = append(succ, int32(v))
		}
		start[u+1] = int32(len(succ))
	}
	return start, succ
}

// TopoSortCSR is TopoSort for a graph in compressed sparse row form: the
// successors of node u are succ[start[u]:start[u+1]] (parallel edges
// allowed), over len(start)-1 nodes. Among ready nodes the smallest is
// emitted first, so the order depends only on the edge set.
func TopoSortCSR(start, succ []int32) ([]int32, error) {
	n := len(start) - 1
	indeg := make([]int32, n)
	for _, v := range succ {
		indeg[v]++
	}
	h := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			h.push(v)
		}
	}
	order := make([]int32, 0, n)
	for h.len() > 0 {
		u := h.pop()
		order = append(order, int32(u))
		for _, v := range succ[start[u]:start[u+1]] {
			if indeg[v]--; indeg[v] == 0 {
				h.push(int(v))
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// FindCycle returns one directed cycle as a node sequence (first node not
// repeated at the end), or nil if the graph is acyclic. Used to produce
// actionable diagnostics when a design violates the §3 acyclicity
// assumption.
func (g *Digraph) FindCycle() []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	n := len(g.out)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, v := range g.out[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Back edge u->v closes a cycle v..u.
				cycle = []int{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse so the cycle reads in edge direction.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}

// ReachCSR walks the graph in CSR form (see TopoSortCSR) from src and
// returns the nodes it enters, src first, appended to visited[:0]. It marks
// each entered node in seen and does not enter a node already marked, so
// walks from several sources over one mask cover their union; clearing
// seen through the returned list readies the mask for an unrelated walk.
func ReachCSR(start, succ []int32, src int32, seen []bool, visited []int32) []int32 {
	visited = visited[:0]
	if seen[src] {
		return visited
	}
	seen[src] = true
	visited = append(visited, src)
	for k := 0; k < len(visited); k++ {
		u := visited[k]
		for _, v := range succ[start[u]:start[u+1]] {
			if !seen[v] {
				seen[v] = true
				visited = append(visited, v)
			}
		}
	}
	return visited
}

// Components partitions nodes 0..n-1 into weakly connected components as
// edges are added, ignoring their direction (union-find with path
// halving). A component's root is always its smallest node, so numbering
// the roots in node order numbers the components by smallest member. Used
// by cluster extraction ("a cluster is a maximal connected network of
// combinational logic elements", §7).
type Components []int32

// NewComponents returns n singleton components.
func NewComponents(n int) Components {
	c := make(Components, n)
	for v := range c {
		c[v] = int32(v)
	}
	return c
}

// Root returns the smallest node of v's component.
func (c Components) Root(v int32) int32 {
	for c[v] != v {
		c[v] = c[c[v]]
		v = c[v]
	}
	return v
}

// Union joins the components of u and v.
func (c Components) Union(u, v int32) {
	if r, q := c.Root(u), c.Root(v); r != q {
		c[max(r, q)] = min(r, q)
	}
}

// intHeap is a minimal binary min-heap of ints used by TopoSort.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
