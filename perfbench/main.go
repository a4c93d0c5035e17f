// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measurement window and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics named in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, measured in
// a separate traced run. Earlier lines carry the host record and a
// human-readable table (including error_ratio).
//
// Workloads (see README.md for why each was chosen):
//
//	signoff-soc  cold batch sign-off of a seeded ~100k-cell SoC
//	edit-soc     closed-loop delay edits on one incremental engine (same SoC)
//	serve-des    open-loop edit/report/topology mix against a hummingbirdd
//	             subprocess holding 8 DES sessions
//
// Run it through run.sh, which builds this binary and hummingbirdd first:
//
//	bash perfbench/run.sh --workload edit-soc --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"hummingbird/internal/celllib"
)

// runBudget bounds one whole invocation (set-up, window and checks); the
// harness fails with a named error rather than overrun it.
const runBudget = 170 * time.Second

// setupReps is how many times each workload sets up; setup_s is their
// median and the last set-up is the one measured.
const setupReps = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is the state one invocation shares across its phases: the flags,
// the check accounting behind correct/attempted/failed, and the metrics.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	perturb  string
	daemon   string // hummingbirdd binary (serve-des)
	root     string // checkout root
	work     string // scratch directory inside the checkout, removed at exit
	lib      *celllib.Library

	attempted, failed int64
	metrics           map[string]float64
}

// check records one correctness check; a failure counts in failed and is
// explained on standard error.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, fmt.Sprintf(format, args...))
	}
}

// ops records n attempted operations of which failed did not succeed.
func (b *bench) ops(n, failed int) {
	b.attempted += int64(n)
	b.failed += int64(failed)
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	"signoff-soc": runSignoff,
	"edit-soc":    runEdit,
	"serve-des":   runServe,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: signoff-soc, edit-soc or serve-des")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 30, "measurement window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		perturb = fs.String("perturb", "", "deliberately perturb one oracle's reference (enum, signoff, edit, serve) to show it fires")
		daemon  = fs.String("daemon", "", "hummingbirdd binary (built by run.sh)")
		root    = fs.String("root", ".", "checkout root holding BENCHMARK.json")
		spin    = fs.Bool("spin", false, "run as a lowest-priority CPU spinner until killed (started by the benchmark itself)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spin {
		spinForever()
	}
	drive, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q (want signoff-soc, edit-soc or serve-des)", *wl)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	spec, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	stopSpinners, err := startSpinners()
	if err != nil {
		return err
	}
	defer stopSpinners()

	b := &bench{
		workload: *wl, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, perturb: *perturb, daemon: *daemon, root: *root, work: work,
		lib: celllib.Default(), metrics: map[string]float64{},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	host := hostRecord(*root)
	if err := drive(ctx, b); err != nil {
		return fmt.Errorf("%s: %w", *wl, err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%s: run budget: %w", *wl, context.Cause(ctx))
	}
	return writeResult(stdout, b, spec, host)
}

// spec is the part of BENCHMARK.json the benchmark checks its output
// against, so the printed metric set cannot drift from the declared one.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the host record, the human-readable table and, last, the
// result object. Per-layer metrics a workload's layers never reach read 0
// (the layer did no work there); an end-to-end metric the workload failed to
// measure is an error.
func writeResult(w io.Writer, b *bench, s *spec, host map[string]any) error {
	b.set("error_ratio", float64(b.failed)/float64(max(b.attempted, 1)))
	declared := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		declared[m.Name] = true
	}
	for n := range b.metrics {
		if !declared[n] {
			return fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", b.workload, n)
		}
	}
	want := s.EndToEnd
	if b.trace {
		want = s.PerLayer
	}
	out := make(map[string]metricOut, len(want))
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok && !b.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", b.workload, m.Name)
		}
		out[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hb)
	fmt.Fprintf(w, "workload %s seed %d window %v trace %v\n", b.workload, b.seed, b.window, b.trace)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	fmt.Fprintf(w, "  %-36s %14.6f ratio (%d of %d ops and checks failed)\n", "error_ratio", b.metrics["error_ratio"], b.failed, b.attempted)
	res, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, max(b.attempted, 1), b.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}
