// Command hummingbird is the timing-analyzer front end: it loads a textual
// netlist (the repository's OCT stand-in), runs the slow-path
// identification of Algorithm 1 and, on request, the constraint generation
// of Algorithm 2, the supplementary (double-clocking) checks, the cluster
// pass plan, and an interactive what-if mode in which clock waveforms and
// component delays may be adjusted and the design re-analysed (§8).
//
// Usage:
//
//	hummingbird [flags] design.hb
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hummingbird/internal/buildinfo"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/logic"
	"hummingbird/internal/netlist"
	"hummingbird/internal/octdb"
	"hummingbird/internal/report"
	"hummingbird/internal/sim"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/verilog"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hummingbird:", err)
		os.Exit(1)
	}
}

// session holds the mutable analysis state of one CLI run: the incremental
// engine plus cached views of its analyzer and report. Delay adjustments
// flow through the engine's edit API (patching only the dirty clusters);
// structural changes like clock reshaping reopen the engine.
type session struct {
	lib    *celllib.Library
	design *netlist.Design
	opts   core.Options

	eng      *incremental.Engine
	analyzer *core.Analyzer
	rep      *core.Report
	pre, ana time.Duration
}

// rebuild (re)opens the incremental engine: a full elaboration + analysis.
func (s *session) rebuild() error {
	t0 := time.Now()
	eng, err := incremental.Open(s.lib, s.design, s.opts)
	if err != nil {
		return err
	}
	s.pre = time.Since(t0)
	s.ana = 0
	s.eng = eng
	s.sync()
	return nil
}

// sync refreshes the cached views after the engine re-analyzed (the engine
// replaces its analyzer — and possibly its design — on topology edits).
func (s *session) sync() {
	s.design = s.eng.Design()
	s.opts = s.eng.Options()
	s.analyzer = s.eng.Analyzer()
	s.rep = s.eng.Report()
}

// writeFlags writes the §8 slow-path flags of the current analysis to
// file and returns how many annotations it wrote.
func (s *session) writeFlags(file string) (int, error) {
	db := octdb.New(s.design)
	octdb.FlagSlowPaths(db, s.analyzer, s.rep)
	out, err := os.Create(file)
	if err != nil {
		return 0, err
	}
	if err := db.Save(out); err != nil {
		out.Close()
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	return db.Len(), nil
}

// apply routes one edit through the engine and refreshes the views.
func (s *session) apply(w io.Writer, edits ...incremental.Edit) error {
	t0 := time.Now()
	out, err := s.eng.Apply(edits...)
	if err != nil {
		return err
	}
	s.ana = time.Since(t0)
	s.sync()
	if out.Incremental {
		fmt.Fprintf(w, "re-analysis: incremental, %d dirty clusters, %v\n", out.DirtyClusters, s.ana)
	} else {
		fmt.Fprintf(w, "re-analysis: full rebuild (%s), %v\n", out.FallbackReason, s.ana)
	}
	return nil
}

func run(args []string, stdin io.Reader, w, errW io.Writer) error {
	fs := flag.NewFlagSet("hummingbird", flag.ContinueOnError)
	fs.SetOutput(errW)
	fs.Usage = func() {
		fmt.Fprintln(errW, "usage: hummingbird [flags] design.hb")
		fs.PrintDefaults()
	}
	var (
		constraints = fs.Bool("constraints", false, "run Algorithm 2 and dump net budgets")
		plan        = fs.Bool("plan", false, "print the per-cluster pass plan")
		slacks      = fs.Int("slacks", 0, "print the N tightest net slacks")
		paths       = fs.Int("paths", 10, "print up to N worst slow paths when the design is slow")
		supp        = fs.Bool("supp", false, "check supplementary (min-delay) constraints")
		flagsOut    = fs.String("flags", "", "write OCT-style slow-path annotations to this file")
		interactive = fs.Bool("i", false, "interactive mode")
		nets        = fs.String("nets", "", "comma-separated nets for -constraints output")
		libFile     = fs.String("lib", "", "cell library file (default: built-in library)")
		verilogIn   = fs.Bool("verilog", false, "treat the input as structural Verilog")
		worst       = fs.Int("worst", 0, "print the N most critical endpoint paths (whether or not they violate)")
		jsonOut     = fs.String("json", "", "write the full analysis result as JSON to this file")
		skew        = fs.Bool("skew", false, "print per-clock control-path skew")
		simCycles   = fs.Int("sim", 0, "dynamically validate: simulate N overall clock periods with random stimulus and report capture violations")
		topName     = fs.String("top", "", "top module name for -verilog (default: auto-detect)")
		consFile    = fs.String("timing", "", "clock/port timing constraints file for -verilog (netlist format)")
		traceConv   = fs.Bool("trace-convergence", false, "emit one structured trace line per fixed-point sweep")
		metricsOut  = fs.String("metrics-out", "", "write a JSON telemetry snapshot (counters, phase timers) to this file")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file before exiting")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.WriteVersion(w, "hummingbird")
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one input design, got %d", fs.NArg())
	}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *traceConv || *metricsOut != "" {
		telemetry.Enable()
		telemetry.Reset()
		defer telemetry.Disable()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	var design *netlist.Design
	if *verilogIn {
		design, err = verilog.Import(f, *topName)
	} else {
		design, err = netlist.Parse(f)
	}
	f.Close()
	if err != nil {
		return err
	}
	if *consFile != "" {
		cf, err := os.Open(*consFile)
		if err != nil {
			return err
		}
		cons, err := netlist.Parse(cf)
		cf.Close()
		if err != nil {
			return err
		}
		if err := verilog.Constrain(design, cons); err != nil {
			return err
		}
	}
	lib := celllib.Default()
	if *libFile != "" {
		lf, err := os.Open(*libFile)
		if err != nil {
			return err
		}
		lib, err = celllib.ParseLibrary(lf)
		lf.Close()
		if err != nil {
			return err
		}
	}
	s := &session{
		lib:    lib,
		design: design,
		opts:   core.DefaultOptions(),
	}
	s.opts.Adjustments = map[string]clock.Time{}
	if *traceConv {
		s.opts.Trace = telemetry.NewTracer(w)
	}
	if err := s.rebuild(); err != nil {
		return err
	}

	report.Summary(w, s.analyzer, s.rep)
	fmt.Fprintf(w, "elaboration + analysis %v\n", s.pre)
	if !s.rep.OK && *paths > 0 {
		report.SlowPaths(w, s.analyzer, s.rep, *paths)
	}
	if *plan {
		report.Plan(w, s.analyzer)
	}
	if *slacks > 0 {
		report.Slacks(w, s.analyzer, s.rep.Result, *slacks)
	}
	if *worst > 0 {
		report.CriticalPaths(w, s.analyzer, s.rep.Result, *worst)
	}
	if *constraints {
		c, err := s.eng.Constraints()
		if err != nil {
			return err
		}
		var names []string
		if *nets != "" {
			names = strings.Split(*nets, ",")
		}
		report.Constraints(w, s.analyzer, c, names)
	}
	if *supp {
		printSupplementary(w, s)
	}
	if *skew {
		report.ClockSkew(w, s.analyzer)
	}
	if *simCycles > 0 {
		if err := runSim(w, s, *simCycles); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		jf, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(jf, s.analyzer, s.rep); err != nil {
			jf.Close()
			return err
		}
		if err := jf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote JSON result to %s\n", *jsonOut)
	}
	if *flagsOut != "" {
		n, err := s.writeFlags(*flagsOut)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d annotations to %s\n", n, *flagsOut)
	}
	if *interactive {
		if err := repl(s, stdin, w); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		runtime.GC()
		mf, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote heap profile to %s\n", *memProfile)
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteSnapshot(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote telemetry snapshot to %s\n", *metricsOut)
	}
	return nil
}

func printSupplementary(w io.Writer, s *session) {
	v := s.analyzer.CheckSupplementary()
	if len(v) == 0 {
		fmt.Fprintln(w, "supplementary constraints: all satisfied")
		return
	}
	for _, x := range v {
		fmt.Fprintf(w, "supplementary violation: %s -> %s (min delay %v, must exceed %v)\n",
			s.analyzer.CD.Elems[x.FromElem].Name(), s.analyzer.CD.Elems[x.ToElem].Name(),
			x.MinDelay, x.Bound)
	}
}

// runSim performs the -sim dynamic validation: worst-case event-driven
// simulation with deterministic pseudo-random stimulus, then the capture
// setup check (the first quarter of the run is treated as warm-up).
func runSim(w io.Writer, s *session, cycles int) error {
	simr, nw, err := sim.FromDesign(s.lib, s.design, s.opts.Delay, s.opts.Adjustments)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(1))
	tr := simr.Run(cycles, func(cycle int, port string) logic.Value {
		return logic.FromBool(r.Intn(2) == 0)
	})
	warm := clock.Time(cycles/4) * nw.Clocks.Overall()
	viol := sim.CheckSetup(nw, tr, warm)
	fmt.Fprintf(w, "simulated %d cycles: %d captures, %d violations after warm-up\n",
		cycles, len(tr.Captures), len(viol))
	for i, v := range viol {
		if i >= 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(viol)-10)
			break
		}
		kind := "setup window hit"
		if v.CapturedX {
			kind = "captured X"
		}
		fmt.Fprintf(w, "  %s at %v: %s (last change %v)\n", v.Inst, v.At, kind, v.LastChange)
	}
	// Two-corner race detection: rerun at minimum delays with identical
	// stimulus and diff the capture sequences (catches clock-skew hold
	// hazards the static analysis does not model).
	simr2, _, err := sim.FromDesign(s.lib, s.design, s.opts.Delay, s.opts.Adjustments)
	if err != nil {
		return err
	}
	simr2.UseMinDelays(true)
	r2 := rand.New(rand.NewSource(1))
	tr2 := simr2.Run(cycles, func(cycle int, port string) logic.Value {
		return logic.FromBool(r2.Intn(2) == 0)
	})
	races := sim.CompareCaptures(tr, tr2, warm)
	fmt.Fprintf(w, "two-corner race check: %d disagreements\n", len(races))
	for i, rr := range races {
		if i >= 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(races)-10)
			break
		}
		fmt.Fprintf(w, "  RACE %s capture %d at %v: max-corner %v, min-corner %v\n",
			rr.Inst, rr.Index, rr.At, rr.MaxValue, rr.MinValue)
	}
	return nil
}

const replHelp = `commands:
  analyze                      re-run Algorithm 1 and print the summary
  clock NAME period|rise|fall TIME
                               reshape a clock waveform and re-analyse
  adjust INST DELTA            add DELTA (e.g. 200ps, -1ns) to a component's delays
                               (incremental: only the affected clusters re-analyse)
  resize INST CELL             repoint a component at another library cell
  slacks [N]                   print the N tightest net slacks (default 10)
  paths [N]                    print the N worst slow paths (default 10)
  worst [N]                    print the N most critical endpoint paths
  plan                         print the per-cluster pass plan
  constraints NET [NET...]     run Algorithm 2 and print budgets for nets
  supp                         check supplementary constraints
  skew                         per-clock control-path skew
  flags FILE                   write OCT-style annotations to FILE
  help                         this text
  quit                         exit`

// repl implements the §8 interactive mode: "changes may be made to the
// shapes of the clock waveforms to determine the effect on system timing.
// Adjustments may also be made to component delays."
func repl(s *session, in io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(in)
	fmt.Fprintln(w, "interactive mode; 'help' lists commands")
	for {
		fmt.Fprint(w, "hb> ")
		if !sc.Scan() {
			fmt.Fprintln(w)
			return sc.Err()
		}
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "quit", "exit", "q":
			return nil
		case "help":
			fmt.Fprintln(w, replHelp)
		case "analyze":
			if err := s.rebuild(); err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			report.Summary(w, s.analyzer, s.rep)
		case "clock":
			if len(f) != 4 {
				fmt.Fprintln(w, "usage: clock NAME period|rise|fall TIME")
				continue
			}
			if err := reshapeClock(s, f[1], f[2], f[3]); err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			report.Summary(w, s.analyzer, s.rep)
		case "adjust":
			if len(f) != 3 {
				fmt.Fprintln(w, "usage: adjust INST DELTA")
				continue
			}
			delta, err := netlist.ParseTime(f[2])
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			if err := s.apply(w, incremental.Edit{Op: incremental.Adjust, Inst: f[1], Delta: delta}); err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			report.Summary(w, s.analyzer, s.rep)
		case "resize":
			if len(f) != 3 {
				fmt.Fprintln(w, "usage: resize INST CELL")
				continue
			}
			if err := s.apply(w, incremental.Edit{Op: incremental.Resize, Inst: f[1], To: f[2]}); err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			report.Summary(w, s.analyzer, s.rep)
		case "slacks":
			report.Slacks(w, s.analyzer, s.rep.Result, argN(f, 10))
		case "paths":
			report.SlowPaths(w, s.analyzer, s.rep, argN(f, 10))
		case "worst":
			report.CriticalPaths(w, s.analyzer, s.rep.Result, argN(f, 10))
		case "plan":
			report.Plan(w, s.analyzer)
		case "constraints":
			// The engine reuses the final Algorithm 1 analysis and
			// restores the fixed-point offsets afterwards, so no rebuild
			// is needed between constraint dumps and other commands.
			c, err := s.eng.Constraints()
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			report.Constraints(w, s.analyzer, c, f[1:])
		case "supp":
			printSupplementary(w, s)
		case "skew":
			report.ClockSkew(w, s.analyzer)
		case "flags":
			if len(f) != 2 {
				fmt.Fprintln(w, "usage: flags FILE")
				continue
			}
			n, err := s.writeFlags(f[1])
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			fmt.Fprintf(w, "wrote %d annotations\n", n)
		default:
			fmt.Fprintf(w, "unknown command %q ('help' lists commands)\n", f[0])
		}
	}
}

func argN(f []string, def int) int {
	if len(f) < 2 {
		return def
	}
	var n int
	if _, err := fmt.Sscanf(f[1], "%d", &n); err != nil || n <= 0 {
		return def
	}
	return n
}

func reshapeClock(s *session, name, field, val string) error {
	t, err := netlist.ParseTime(val)
	if err != nil {
		return err
	}
	for i := range s.design.Clocks {
		if s.design.Clocks[i].Name != name {
			continue
		}
		c := s.design.Clocks[i]
		switch field {
		case "period":
			c.Period = t
		case "rise":
			c.RiseAt = t
		case "fall":
			c.FallAt = t
		default:
			return fmt.Errorf("unknown clock field %q", field)
		}
		if err := c.Validate(); err != nil {
			return err
		}
		s.design.Clocks[i] = c
		return s.rebuild()
	}
	return fmt.Errorf("unknown clock %q", name)
}
