package sta

import (
	"sync"
	"sync/atomic"
	"time"

	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/telemetry"
)

// Level-scheduled work-stealing analysis.
//
// The compile layer levelizes the cluster DAG (cluster.CompiledDesign's
// Level/LevelStart/LevelOrder); the scheduler here walks that order with a
// fixed worker pool. Within one block analysis clusters write disjoint
// slots of the Result, one segment each — every net, and every element
// terminal, belongs to at most one cluster, and the element offsets the
// kernels read are frozen
// for the duration — so the level structure imposes no synchronisation
// requirement at all: no level barrier is ever *required*, and none is
// taken. What the levels buy is the traversal order: within a level,
// clusters ascend in arc-backing offset, so workers sweep the shared CSR
// arrays front to back (cache-linear), and the incremental path groups its
// dirty walk the same way.
//
// Work distribution: the level order is cut into contiguous chunks sized
// by arc count (clusters vary by orders of magnitude in size; counting
// clusters would leave one worker stuck with the giant one). Chunks are
// dealt round-robin into per-worker queues; each worker drains its own
// queue via an atomic cursor, then steals from the other queues' cursors.
// A fetch-add on a victim's cursor claims a chunk exactly once, so
// stealing needs no locks; each cluster installs only its own segment,
// so the result is the same whichever worker ran it.

// chunk is a contiguous run order[lo:hi] of a level-grouped cluster order.
type chunk struct{ lo, hi int32 }

// workQueue is one worker's dealt chunk list plus the atomic claim cursor
// owner and thieves race on. Padded so cursors of adjacent queues do not
// false-share a cache line.
type workQueue struct {
	chunks []chunk
	next   atomic.Int32
	_      [56]byte
}

const (
	// minChunkArcs floors the chunk size: below this the per-chunk
	// scheduling overhead (one fetch-add) rivals the analysis work.
	minChunkArcs = 1024
	// chunksPerWorker oversizes the chunk count relative to the worker
	// count so stealing can rebalance uneven levels.
	chunksPerWorker = 4
)

// buildChunks cuts the level-grouped cluster order into contiguous chunks
// of roughly even arc counts. Chunks never span a level boundary, keeping
// each worker's traversal cache-linear within the arc backing.
func buildChunks(cd *cluster.CompiledDesign, order []int32, workers int) []chunk {
	total := 0
	for _, id := range order {
		total += len(cd.CC[id].Arcs)
	}
	target := total / (workers * chunksPerWorker)
	if target < minChunkArcs {
		target = minChunkArcs
	}
	chunks := make([]chunk, 0, workers*chunksPerWorker+cd.NumLevels())
	for i := 0; i < len(order); {
		lvl := cd.Level[order[i]]
		start := i
		acc := 0
		for i < len(order) && cd.Level[order[i]] == lvl {
			acc += len(cd.CC[order[i]].Arcs)
			i++
			if acc >= target {
				break
			}
		}
		chunks = append(chunks, chunk{int32(start), int32(i)})
	}
	return chunks
}

// runLevelScheduled executes fn once per cluster id in order, spread
// across the worker pool with stealing. fn must be safe for concurrent
// invocation on distinct ids; each invocation receives the calling
// worker's private scratch arena. check runs before every cluster; its
// first error stops all workers and is returned.
func runLevelScheduled(cd *cluster.CompiledDesign, st *AnalysisState, order []int32, workers int, check func() error, fn func(id int32, buf *[]clock.Time)) error {
	chunks := buildChunks(cd, order, workers)
	if workers > len(chunks) {
		workers = len(chunks)
	}
	mParallelRuns.Inc()
	mParallelWorkers.Add(int64(workers))
	queues := make([]workQueue, workers)
	for i, c := range chunks {
		q := &queues[i%workers]
		q.chunks = append(q.chunks, c)
	}

	// Utilisation accounting reads the clock per worker, so it is gated
	// on the telemetry switch rather than paid unconditionally.
	instrument := telemetry.Enabled()
	var wallStart time.Time
	if instrument {
		wallStart = time.Now()
	}
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// One scratch arena per worker, reused across every cluster
			// and level this worker executes.
			buf := st.getScratch()
			defer st.putScratch(buf)
			var t0 time.Time
			if instrument {
				t0 = time.Now()
			}
			var steals int64
			// Own queue first (vi=0), then steal in ring order.
			for vi := 0; vi < workers && !stop.Load(); vi++ {
				q := &queues[(k+vi)%workers]
				for !stop.Load() {
					ci := int(q.next.Add(1)) - 1
					if ci >= len(q.chunks) {
						break
					}
					if vi != 0 {
						steals++
					}
					c := q.chunks[ci]
					for _, id := range order[c.lo:c.hi] {
						if err := check(); err != nil {
							fail(err)
							return
						}
						fn(id, buf)
					}
				}
			}
			mSteals.Add(steals)
			if instrument {
				busy := time.Since(t0)
				mWorkerBusyNs.Add(busy.Nanoseconds())
				mWorkerBusy.Observe(busy)
			}
		}(k)
	}
	wg.Wait()
	if instrument {
		mParallelWallNs.Add(time.Since(wallStart).Nanoseconds())
	}
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}
