package sta

import (
	"sync"

	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
)

// AnalysisState is the mutable half of an analysis: the per-element offset
// vector Algorithm 1 moves, plus reusable scratch arenas. One state belongs
// to one analysis session at a time; the CompiledDesign it references is
// shared read-only. States are cheap — a parked session keeps only its
// state while the compiled design stays cached.
type AnalysisState struct {
	cd *cluster.CompiledDesign

	// Odz[e] is element e's current degree-of-freedom offset (the paper's
	// Odz; see syncelem). All analysis kernels read offsets from here, never
	// from the shared syncelem.Element structs.
	Odz []clock.Time

	// scratch pools per-cluster ready/required arenas: each item is one
	// []clock.Time of 4×MaxClusterNets, sliced into the four views by
	// analyzeCluster. A sync.Pool keeps the scheduler's workers from
	// contending on a single buffer. It is allocated apart from the state:
	// the runtime's pool registry points at every pool that has been used,
	// and a pool embedded here would keep a dropped state — with its
	// compiled design — reachable until a second garbage collection.
	scratch *sync.Pool

	// dirty is the reusable bitset of the clusters the next driver run
	// analyzes (all of them for a full analysis), so incremental sweeps
	// stop allocating on the hot path.
	dirty bitset
}

// NewState returns a fresh analysis state at the design's initial offsets.
func NewState(cd *cluster.CompiledDesign) *AnalysisState {
	st := &AnalysisState{
		cd:    cd,
		Odz:   make([]clock.Time, len(cd.Elems)),
		dirty: make(bitset, (len(cd.Network.Clusters)+63)/64),
	}
	scratchLen := 4 * cd.MaxClusterNets
	st.scratch = &sync.Pool{New: func() any {
		buf := make([]clock.Time, scratchLen)
		return &buf
	}}
	copy(st.Odz, cd.InitialOdz)
	return st
}

// Rebind repoints the state at a copy-on-write twin of its design (same
// element set, cluster count and scratch sizing — only arc delays differ).
// Used when an engine unshares a shared compiled design.
func (st *AnalysisState) Rebind(cd *cluster.CompiledDesign) { st.cd = cd }

// Reset restores every offset to the design's initial value (latest legal
// closure for elements with a degree of freedom).
func (st *AnalysisState) Reset() { copy(st.Odz, st.cd.InitialOdz) }

// Initial returns a state of st's design at its initial offsets, for
// analyses of the initial-offset block analysis beside st, whose offsets
// move. Its Odz is the design's InitialOdz, which nothing may write; it
// shares st's scratch arenas, so that the two cost one pool. Rebind it
// with st.
func (st *AnalysisState) Initial() *AnalysisState {
	return &AnalysisState{cd: st.cd, Odz: st.cd.InitialOdz, scratch: st.scratch, dirty: make(bitset, len(st.dirty))}
}

// getScratch borrows one per-cluster scratch arena (4×MaxClusterNets).
func (st *AnalysisState) getScratch() *[]clock.Time {
	return st.scratch.Get().(*[]clock.Time)
}

func (st *AnalysisState) putScratch(buf *[]clock.Time) { st.scratch.Put(buf) }

// bitset is a reusable set of cluster ids.
type bitset []uint64

func (b bitset) set(id int)      { b[id>>6] |= 1 << (uint(id) & 63) }
func (b bitset) has(id int) bool { return b[id>>6]&(1<<(uint(id)&63)) != 0 }

// clear empties the set (compiled to a memclr).
func (b bitset) clear() { clear(b) }
