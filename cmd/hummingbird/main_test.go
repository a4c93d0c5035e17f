package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hummingbird/internal/failpoint"
)

const pipeHB = `
design pipe
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -0.5ns
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`

const slowHB = `
design slowcli
clock phi period 1ns rise 0 fall 400ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst g4 INV_X1 A=n3 Y=n4
inst f2 DFF_X1 D=n4 CK=phi Q=q2
inst g5 BUF_X1 A=q2 Y=OUT
end
`

func writeDesign(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.hb")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasic(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-plan", "-slacks", "3", "-supp", writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"design pipe", "VERDICT: all paths fast enough",
		"cluster 0", "break at", "slack", "supplementary constraints: all satisfied",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output lacks %q:\n%s", want, text)
		}
	}
}

func TestRunSlowDesignShowsPaths(t *testing.T) {
	var out strings.Builder
	if err := run([]string{writeDesign(t, slowHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "too-slow paths") || !strings.Contains(text, "slow path 1:") {
		t.Fatalf("slow output wrong:\n%s", text)
	}
}

func TestRunConstraints(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-constraints", "-nets", "n2,bogus", writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "n2") || !strings.Contains(text, "unknown net \"bogus\"") {
		t.Fatalf("constraints output wrong:\n%s", text)
	}
}

func TestRunFlagsFile(t *testing.T) {
	dir := t.TempDir()
	flags := filepath.Join(dir, "flags.oct")
	var out strings.Builder
	if err := run([]string{"-flags", flags, writeDesign(t, slowHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(flags)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "hb.verdict") || !strings.Contains(string(data), "slow") {
		t.Fatalf("flags file wrong:\n%s", data)
	}
}

// TestVersionFlag checks -version prints a build line and exits before
// the usual "design file required" check.
func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	line := out.String()
	if !strings.HasPrefix(line, "hummingbird ") || !strings.HasSuffix(line, "\n") {
		t.Fatalf("version output %q", line)
	}
	if !strings.Contains(line, "go") {
		t.Fatalf("version output %q lacks toolchain version", line)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"/nonexistent/file.hb"}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("unreadable file accepted")
	}
	bad := writeDesign(t, "design x\n") // missing end
	if err := run([]string{bad}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("malformed netlist accepted")
	}
}

func TestReplCommands(t *testing.T) {
	var out strings.Builder
	script := strings.Join([]string{
		"help",
		"slacks 2",
		"paths",
		"plan",
		"supp",
		"analyze",
		"adjust g2 5ns",  // slows g2: design becomes slow at 10ns? generous clock: stays ok
		"adjust g2 -5ns", // restore
		"clock phi1 fall 3ns",
		"clock phi1 fall 4ns",
		"clock nosuch period 5ns",
		"clock phi1 bogusfield 5ns",
		"adjust g2 nonsense",
		"constraints n2",
		"unknowncmd",
		"",
		"quit",
	}, "\n")
	err := run([]string{"-i", writeDesign(t, pipeHB)}, strings.NewReader(script), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"interactive mode", "commands:", "VERDICT",
		"unknown clock \"nosuch\"", "unknown clock field", "unknown command",
		"bad time literal",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("repl output lacks %q:\n%s", want, text)
		}
	}
}

func TestReplAdjustChangesVerdict(t *testing.T) {
	var out strings.Builder
	// pipe at a 10ns clock has ~4ns of margin; +9ns on g2 breaks it.
	script := "adjust g2 9ns\nquit\n"
	if err := run([]string{"-i", writeDesign(t, pipeHB)}, strings.NewReader(script), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "too-slow paths") {
		t.Fatalf("adjustment did not break timing:\n%s", out.String())
	}
}

func TestReplFlagsCommand(t *testing.T) {
	dir := t.TempDir()
	flags := filepath.Join(dir, "f.oct")
	var out strings.Builder
	script := "flags " + flags + "\nquit\n"
	if err := run([]string{"-i", writeDesign(t, pipeHB)}, strings.NewReader(script), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(flags); err != nil {
		t.Fatal("flags file not written")
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatal(out.String())
	}
}

// TestReplFlagsSaveError: a flags file whose save fails is reported as the
// error alone, with no "wrote" line, and the session stays up.
func TestReplFlagsSaveError(t *testing.T) {
	if err := failpoint.Arm("octdb.save", "error"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { failpoint.Disarm("octdb.save") })
	flags := filepath.Join(t.TempDir(), "f.oct")
	var out strings.Builder
	script := "flags " + flags + "\nquit\n"
	if err := run([]string{"-i", writeDesign(t, pipeHB)}, strings.NewReader(script), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "error: ") || strings.Contains(out.String(), "wrote") {
		t.Fatalf("a failed save should print its error and no wrote line:\n%s", out.String())
	}
}

func TestReplEOFExitsCleanly(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-i", writeDesign(t, pipeHB)}, strings.NewReader("plan\n"), &out, io.Discard); err != nil {
		t.Fatalf("EOF exit: %v", err)
	}
}

func TestRunCustomLibrary(t *testing.T) {
	dir := t.TempDir()
	libPath := filepath.Join(dir, "cells.lib")
	libText := `
library tiny
cell MYBUF kind comb area 1 drive 1
  pin A in cap 2
  pin Y out
  arc A Y sense pos maxrise 100 1 maxfall 100 1
endcell
cell MYFF kind edge area 2 drive 1
  pin D in cap 2
  pin CK in control cap 2
  pin Q out
  arc D Q sense pos maxrise 0 0 maxfall 0 0
  sync setup 50 ddz 0 dcz 100
endcell
end
`
	if err := os.WriteFile(libPath, []byte(libText), 0o644); err != nil {
		t.Fatal(err)
	}
	design := `
design custom
clock phi period 10ns rise 0 fall 4ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 MYFF D=IN CK=phi Q=q1
inst g1 MYBUF A=q1 Y=n1
inst f2 MYFF D=n1 CK=phi Q=q2
inst g2 MYBUF A=q2 Y=OUT
end
`
	var out strings.Builder
	if err := run([]string{"-lib", libPath, writeDesign(t, design)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all paths fast enough") {
		t.Fatalf("custom library run:\n%s", out.String())
	}
	// A bad library file errors cleanly.
	if err := run([]string{"-lib", "/nonexistent.lib", writeDesign(t, design)}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("missing library accepted")
	}
}

func TestRunVerilogFlow(t *testing.T) {
	dir := t.TempDir()
	vPath := filepath.Join(dir, "top.v")
	vText := `
module top(a, ck, y);
  input a, ck;
  output y;
  wire n1, q1;
  INV_X1 g1(.A(a), .Y(n1));
  DLATCH_X1 l1(.D(n1), .G(ck), .Q(q1));
  BUF_X1 g2(.A(q1), .Y(y));
endmodule
`
	if err := os.WriteFile(vPath, []byte(vText), 0o644); err != nil {
		t.Fatal(err)
	}
	consPath := filepath.Join(dir, "cons.hb")
	consText := `
design cons
clock ck period 10ns rise 0 fall 4ns
input a clock ck edge fall offset 0
output y clock ck edge fall offset 0
end
`
	if err := os.WriteFile(consPath, []byte(consText), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-verilog", "-timing", consPath, vPath}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all paths fast enough") {
		t.Fatalf("verilog flow output:\n%s", out.String())
	}
	// Without constraints the ports lack clock references: clean error.
	if err := run([]string{"-verilog", vPath}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("unconstrained verilog accepted")
	}
	// Bad top name.
	if err := run([]string{"-verilog", "-top", "nope", "-timing", consPath, vPath}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("bad top accepted")
	}
}

func TestArgN(t *testing.T) {
	if argN([]string{"slacks"}, 7) != 7 {
		t.Fatal("default")
	}
	if argN([]string{"slacks", "3"}, 7) != 3 {
		t.Fatal("explicit")
	}
	if argN([]string{"slacks", "x"}, 7) != 7 {
		t.Fatal("garbage")
	}
	if argN([]string{"slacks", "-2"}, 7) != 7 {
		t.Fatal("negative")
	}
}

func TestRunWorstPaths(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-worst", "3", writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "path 1:") {
		t.Fatalf("worst paths missing:\n%s", out.String())
	}
	// And via the repl.
	out.Reset()
	if err := run([]string{"-i", writeDesign(t, pipeHB)}, strings.NewReader("worst 2\nquit\n"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "path 1:") {
		t.Fatalf("repl worst missing:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	var out strings.Builder
	if err := run([]string{"-json", jsonPath, writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"design\": \"pipe\"") || !strings.Contains(string(data), "\"ok\": true") {
		t.Fatalf("json content:\n%s", data)
	}
}

func TestRunSimFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sim", "12", writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "simulated 12 cycles") {
		t.Fatalf("sim output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("fast design showed violations:\n%s", out.String())
	}
	// The slow design reports violations dynamically too.
	out.Reset()
	slow := `
design slowcli2
clock phi period 1ns rise 0 fall 400ps
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst f2 DFF_X1 D=n3 CK=phi Q=q2
inst g5 BUF_X1 A=q2 Y=OUT
end
`
	if err := run([]string{"-sim", "40", writeDesign(t, slow)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), " 0 violations") {
		t.Fatalf("slow design showed no dynamic violations:\n%s", out.String())
	}
}

func TestRunSimRaceDetection(t *testing.T) {
	skew := `
design skewcli
clock phi period 20ns rise 0 fall 8ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst cb1 BUF_X4 A=phi Y=ck1
inst cb2 BUF_X4 A=ck1 Y=ck2
inst cb3 BUF_X4 A=ck2 Y=ck3
inst cb4 BUF_X4 A=ck3 Y=ck4
inst cb5 BUF_X4 A=ck4 Y=ck5
inst f2 DFF_X1 D=n1 CK=ck5 Q=q2
inst g2 BUF_X1 A=q2 Y=OUT
end
`
	var out strings.Builder
	if err := run([]string{"-sim", "16", writeDesign(t, skew)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RACE f2") {
		t.Fatalf("skew race not reported:\n%s", out.String())
	}
	// The clean pipe reports zero disagreements.
	out.Reset()
	if err := run([]string{"-sim", "16", writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "race check: 0 disagreements") {
		t.Fatalf("clean design raced:\n%s", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-no-such-flag", writeDesign(t, pipeHB)}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(errOut.String(), "usage: hummingbird") || !strings.Contains(errOut.String(), "-metrics-out") {
		t.Fatalf("no usage on stderr for unknown flag:\n%s", errOut.String())
	}

	errOut.Reset()
	if err := run(nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("missing input accepted")
	}
	if !strings.Contains(errOut.String(), "usage: hummingbird") {
		t.Fatalf("no usage on stderr for missing input:\n%s", errOut.String())
	}

	errOut.Reset()
	if err := run([]string{writeDesign(t, pipeHB), "extra.hb"}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("extra argument accepted")
	}
	if !strings.Contains(errOut.String(), "usage: hummingbird") {
		t.Fatalf("no usage on stderr for extra argument:\n%s", errOut.String())
	}
}

func TestRunTraceConvergence(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-trace-convergence", writeDesign(t, slowHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "msg=sweep") || !strings.Contains(got, "iteration=forward") {
		t.Fatalf("no structured sweep lines in output:\n%s", got)
	}
	if !strings.Contains(got, "worst_slack_ps=") || !strings.Contains(got, "moved=") {
		t.Fatalf("sweep lines missing fields:\n%s", got)
	}
}

func TestRunMetricsOut(t *testing.T) {
	mPath := filepath.Join(t.TempDir(), "metrics.json")
	var out strings.Builder
	if err := run([]string{"-metrics-out", mPath, writeDesign(t, slowHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote telemetry snapshot to "+mPath) {
		t.Fatalf("no snapshot confirmation:\n%s", out.String())
	}
	data, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Enabled  bool             `json:"enabled"`
		Counters map[string]int64 `json:"counters"`
		Timers   map[string]struct {
			Count   int64 `json:"count"`
			TotalNs int64 `json:"totalNs"`
		} `json:"timers"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v\n%s", err, data)
	}
	if !snap.Enabled {
		t.Fatal("snapshot says telemetry disabled")
	}
	for _, c := range []string{"core.sweeps", "sta.clusters_analyzed", "delaycalc.evaluations"} {
		if snap.Counters[c] <= 0 {
			t.Fatalf("counter %s not collected: %v", c, snap.Counters)
		}
	}
	for _, tm := range []string{"phase.load", "phase.analysis"} {
		st, ok := snap.Timers[tm]
		if !ok || st.Count <= 0 {
			t.Fatalf("timer %s not collected: %v", tm, snap.Timers)
		}
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, writeDesign(t, pipeHB)}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if !strings.Contains(out.String(), "wrote heap profile to "+mem) {
		t.Fatalf("no heap-profile confirmation:\n%s", out.String())
	}
}
