package sta

import (
	"runtime"
	"testing"
	"time"

	"hummingbird/internal/cluster"
)

// TestDroppedStateFreedByOneGC drops an analysis state after Analyze has
// drawn from its scratch pool and requires one garbage collection to free
// it. A pool embedded in the state is registered with the runtime by
// address, which keeps the state — and through it the compiled design —
// reachable until a second collection.
func TestDroppedStateFreedByOneGC(t *testing.T) {
	cd := cluster.Compile(buildNet(t, testLib(), twoPhaseText))
	freed := make(chan struct{})
	func() {
		st := NewState(cd)
		Analyze(cd, st)
		runtime.SetFinalizer(st, func(*AnalysisState) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a dropped analysis state survived a garbage collection")
	}
}
