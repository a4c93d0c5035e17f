package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hummingbird/internal/buildinfo"
)

// hostRecord names the machine and the code a result was measured on. A
// checkout without git history has no commit, so the record also carries a
// digest of every Go source and go.mod under the root.
func hostRecord(root string) map[string]any {
	commit := buildinfo.Collect().VCSRevision
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"numCpu":        runtime.NumCPU(),
		"GOMAXPROCS":    runtime.GOMAXPROCS(0),
		"goVersion":     runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
	}
}

func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between exact order statistics, or 0 for no samples; xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies records the three end-to-end latency percentiles of a sample.
func (b *bench) latencies(samplesMs []float64) {
	b.set("latency_p50_ms", percentile(samplesMs, 0.50))
	b.set("latency_p90_ms", percentile(samplesMs, 0.90))
	b.set("latency_p99_ms", percentile(samplesMs, 0.99))
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads another process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, after the parenthesised command).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat cpu fields", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// traced records what a traced window of n ops cost the allocator and the
// tracing overhead: the traced median against the untraced one.
func (b *bench) traced(m0, m1 runtime.MemStats, lat []float64, untracedMs float64) {
	n := float64(len(lat))
	b.set("gc.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n)
	b.set("gc.cycles", float64(m1.NumGC-m0.NumGC)/n)
	b.set("gc.allocs", float64(m1.Mallocs-m0.Mallocs)/n)
	b.set("trace.overhead_pct", (median(lat)/untracedMs-1)*100)
}

// digestWriter counts and checksums what is written through it: the byte
// counter report encoding is timed into, doubling as a determinism check.
type digestWriter struct {
	n int64
	h hash.Hash32
}

func newDigestWriter() *digestWriter {
	return &digestWriter{h: crc32.New(crc32.MakeTable(crc32.Castagnoli))}
}

func (w *digestWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *digestWriter) Sum() uint32 { return w.h.Sum32() }

// setupMedian runs setup setupReps times after a collection each, keeps the
// last result (discarding earlier ones), and records setup_s as the median
// wall time: work moved into set-up shows, and one slow set-up does not.
func setupMedian[T any](ctx context.Context, b *bench, setup func() (T, error), discard func(T)) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
		if err := ctx.Err(); err != nil {
			discard(last)
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
	}
	b.set("setup_s", median(secs))
	return last, nil
}
