// Package benchfmt defines the machine-readable benchmark trajectory
// format the repository's BENCH_<label>.json files use. One Run captures
// a benchmark session: metadata that pins the run to a build (commit, go
// version, host shape, an explicitly supplied date), the Table-1-style
// per-workload metric rows emitted by cmd/benchtables, and the open-loop
// load-test rows emitted by cmd/hummingbirdload. Compare diffs two runs
// and flags metric movements beyond a configurable noise threshold, so a
// BENCH file committed by one PR becomes the regression baseline for the
// next.
//
// The schema is append-only: fields may be added, never renamed or
// repurposed, and SchemaVersion is bumped on every shape change so a
// comparison across incompatible files fails loudly instead of silently
// diffing the wrong columns.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"hummingbird/internal/buildinfo"
	"hummingbird/internal/report"
)

// SchemaVersion identifies the current file shape.
const SchemaVersion = 1

// Host describes the machine shape a run was measured on — enough to
// explain why two trajectories are not directly comparable.
type Host struct {
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	NumCPU int    `json:"numCpu"`
}

// CollectHost reads the running process's host shape.
func CollectHost() Host {
	return Host{OS: runtime.GOOS, Arch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
}

// Run is one benchmark session: metadata plus metric rows. Either Rows
// (benchtables) or Load (hummingbirdload) may be empty; a combined
// trajectory file carries both.
type Run struct {
	SchemaVersion int `json:"schemaVersion"`
	// Label names the run ("2026-08-07", "ci", "pr6-candidate").
	Label string `json:"label"`
	// Date is supplied explicitly by the producer (not read from the
	// clock at encode time) so re-generated files stay reproducible.
	Date  string         `json:"date"`
	Build buildinfo.Info `json:"build"`
	Host  Host           `json:"host"`
	// Rows are the Table-1-style analysis metrics per workload.
	Rows []Row `json:"rows,omitempty"`
	// Load are the open-loop load-test results per (workload, op class).
	Load []LoadRow `json:"load,omitempty"`
	// Scaling are the workers x design-size parallel-analysis points
	// emitted by benchtables -scaling.
	Scaling []ScalingRow `json:"scaling,omitempty"`
}

// NewRun builds the metadata envelope for a run.
func NewRun(label, date string) *Run {
	return &Run{
		SchemaVersion: SchemaVersion,
		Label:         label,
		Date:          date,
		Build:         buildinfo.Collect(),
		Host:          CollectHost(),
	}
}

// Row is one workload's analysis metrics — the JSON shape of a
// report.Row, with durations in integer nanoseconds.
type Row struct {
	Workload     string `json:"workload"`
	Cells        int    `json:"cells"`
	Nets         int    `json:"nets"`
	Latches      int    `json:"latches"`
	Clusters     int    `json:"clusters"`
	Passes       int    `json:"passes"`
	PreProcessNs int64  `json:"preprocessNs"`
	AnalysisNs   int64  `json:"analysisNs"`
	Sweeps       int    `json:"sweeps"`
	Recomputes   int64  `json:"recomputes"`
	DelayEvals   int64  `json:"delayEvals"`
	IncrEditNs   int64  `json:"incrEditNs,omitempty"`
	FullEditNs   int64  `json:"fullEditNs,omitempty"`
	OpenColdNs   int64  `json:"openColdNs,omitempty"`
	OpenSharedNs int64  `json:"openSharedNs,omitempty"`
	OK           bool   `json:"ok"`
}

// FromReportRow converts a benchtables table row into its JSON shape.
func FromReportRow(r report.Row) Row {
	return Row{
		Workload:     r.Name,
		Cells:        r.Cells,
		Nets:         r.Nets,
		Latches:      r.Latches,
		Clusters:     r.Clusters,
		Passes:       r.Passes,
		PreProcessNs: r.PreProcess.Nanoseconds(),
		AnalysisNs:   r.Analysis.Nanoseconds(),
		Sweeps:       r.Sweeps,
		Recomputes:   r.Recomputes,
		DelayEvals:   r.DelayEvals,
		IncrEditNs:   r.IncrEdit.Nanoseconds(),
		FullEditNs:   r.FullEdit.Nanoseconds(),
		OpenColdNs:   r.OpenCold.Nanoseconds(),
		OpenSharedNs: r.OpenShared.Nanoseconds(),
		OK:           r.OK,
	}
}

// LoadRow is one (workload, op class) cell of an open-loop load test.
// Latency percentiles are measured from each operation's scheduled
// intent time (coordinated-omission safe); the service percentiles are
// measured from request send, so LatencyP99Ns - ServiceP99Ns reads as
// client-side queueing delay.
type LoadRow struct {
	Workload string `json:"workload"`
	OpClass  string `json:"opClass"`
	// Arrivals is "const" or "poisson".
	Arrivals string `json:"arrivals"`
	// TargetRate is the scheduled arrival rate for this class, ops/sec.
	TargetRate float64 `json:"targetRate"`
	Sessions   int     `json:"sessions"`
	// Replicas is the fleet size behind the driven endpoint: 0/absent for
	// a standalone daemon, N when the load went through a fleet router
	// fronting N replicas. Part of the row identity — single-replica and
	// fleet rows for the same workload never overwrite each other.
	Replicas   int   `json:"replicas,omitempty"`
	DurationNs int64 `json:"durationNs"`
	// Ops counts completed operations (including errored ones); Scheduled
	// counts intents the generator issued (Scheduled - Ops = still in
	// flight or dropped at harness overload).
	Scheduled int64 `json:"scheduled"`
	Ops       int64 `json:"ops"`
	// Errors maps HTTP status (as a string, e.g. "429") to count; Shed is
	// the 429 subset, Failed the 5xx+transport-error subset.
	Errors map[string]int64 `json:"errors,omitempty"`
	Shed   int64            `json:"shed"`
	Failed int64            `json:"failed"`
	// Throughput is achieved completed ops/sec over the run window.
	Throughput float64 `json:"throughput"`
	MeanNs     int64   `json:"meanNs"`
	P50Ns      int64   `json:"p50Ns"`
	P90Ns      int64   `json:"p90Ns"`
	P99Ns      int64   `json:"p99Ns"`
	P999Ns     int64   `json:"p999Ns"`
	MaxNs      int64   `json:"maxNs"`
	// Service-time percentiles (from send, not intent).
	ServiceP50Ns int64 `json:"serviceP50Ns"`
	ServiceP99Ns int64 `json:"serviceP99Ns"`
}

// ScalingRow is one (workload, cells, workers) point of the parallel
// scaling table: wall time of a full level-scheduled analysis and of an
// incremental recompute over a large dirty set, at a fixed worker count.
type ScalingRow struct {
	Workload string `json:"workload"`
	Cells    int    `json:"cells"`
	Clusters int    `json:"clusters"`
	Levels   int    `json:"levels"`
	Workers  int    `json:"workers"`
	// AnalyzeNs is the best-of-N wall time of one full analysis.
	AnalyzeNs int64 `json:"analyzeNs"`
	// Speedup is the 1-worker AnalyzeNs of the same (workload, cells)
	// divided by this row's — 1.0 on the 1-worker row by construction.
	Speedup float64 `json:"speedup,omitempty"`
	// RecomputeNs is the best-of-N wall time of recomputing
	// DirtyClusters dirty clusters through the same scheduler.
	RecomputeNs   int64 `json:"recomputeNs,omitempty"`
	DirtyClusters int   `json:"dirtyClusters,omitempty"`
	// GOMAXPROCS is the measuring process's GOMAXPROCS, which caps the
	// workers the analysis actually ran; 0 means unknown (rows recorded
	// before the field existed).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// MergeScaling appends scaling rows to the run, replacing any existing
// row with the same (workload, cells, workers) key so re-measuring one
// configuration updates it in place.
func (r *Run) MergeScaling(rows []ScalingRow) {
	for _, nr := range rows {
		replaced := false
		for i, old := range r.Scaling {
			if old.Workload == nr.Workload && old.Cells == nr.Cells && old.Workers == nr.Workers {
				r.Scaling[i] = nr
				replaced = true
				break
			}
		}
		if !replaced {
			r.Scaling = append(r.Scaling, nr)
		}
	}
	sort.Slice(r.Scaling, func(i, j int) bool {
		if r.Scaling[i].Workload != r.Scaling[j].Workload {
			return r.Scaling[i].Workload < r.Scaling[j].Workload
		}
		if r.Scaling[i].Cells != r.Scaling[j].Cells {
			return r.Scaling[i].Cells < r.Scaling[j].Cells
		}
		return r.Scaling[i].Workers < r.Scaling[j].Workers
	})
}

// Write serialises a run as indented JSON.
func Write(w io.Writer, r *Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes a run to path (the whole file is replaced).
func WriteFile(path string, r *Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes one run, rejecting unknown schema versions.
func Read(rd io.Reader) (*Run, error) {
	var r Run
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("unsupported schema version %d (this build reads %d)", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// ReadFile reads a run from path.
func ReadFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// MergeLoad appends load rows to the run, replacing any existing row
// with the same (workload, op class, arrivals, replicas) key so a
// re-run of one workload updates its rows in place.
func (r *Run) MergeLoad(rows []LoadRow) {
	for _, nr := range rows {
		replaced := false
		for i, old := range r.Load {
			if old.Workload == nr.Workload && old.OpClass == nr.OpClass && old.Arrivals == nr.Arrivals && old.Replicas == nr.Replicas {
				r.Load[i] = nr
				replaced = true
				break
			}
		}
		if !replaced {
			r.Load = append(r.Load, nr)
		}
	}
	sort.Slice(r.Load, func(i, j int) bool {
		if r.Load[i].Workload != r.Load[j].Workload {
			return r.Load[i].Workload < r.Load[j].Workload
		}
		if r.Load[i].OpClass != r.Load[j].OpClass {
			return r.Load[i].OpClass < r.Load[j].OpClass
		}
		return r.Load[i].Arrivals < r.Load[j].Arrivals
	})
}

// fmtNs renders a nanosecond metric value human-readably in regression
// listings.
func fmtNs(ns float64) string {
	return time.Duration(int64(ns)).Round(time.Microsecond).String()
}
