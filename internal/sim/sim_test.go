package sim

import (
	"math/rand"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/logic"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

var lib = celllib.Default()

func build(t *testing.T, text string) *cluster.Network {
	t.Helper()
	d, err := netlist.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(lib); err != nil {
		t.Fatal(err)
	}
	cs, err := d.ClockSet()
	if err != nil {
		t.Fatal(err)
	}
	calc, err := delaycalc.New(lib, d, delaycalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nw, err := cluster.Build(lib, d, cs, calc)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

const pipeText = `
design pipe
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=n2
inst l2 DFF_X1 D=n2 CK=phi2 Q=q2
inst g3 BUF_X1 A=q2 Y=OUT
end
`

func TestSimulatorCombPropagation(t *testing.T) {
	nw := build(t, pipeText)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(6, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0)
	})
	// IN toggles at 9ns, 19ns, ... and n1 follows one buffer delay later.
	in := nw.NetIdx["IN"]
	n1 := nw.NetIdx["n1"]
	if len(tr.Transitions[in]) == 0 || len(tr.Transitions[n1]) == 0 {
		t.Fatalf("no activity: IN %d n1 %d", len(tr.Transitions[in]), len(tr.Transitions[n1]))
	}
	// n1's first determined transition lags IN's by the buffer delay.
	tIn := tr.Transitions[in][0].At
	var tN1 clock.Time = -1
	for _, x := range tr.Transitions[n1] {
		if x.At > tIn {
			tN1 = x.At
			break
		}
	}
	if tN1 <= tIn {
		t.Fatalf("n1 did not follow IN (tIn=%v)", tIn)
	}
	// Clock nets toggle every period.
	phi1 := nw.NetIdx["phi1"]
	if len(tr.Transitions[phi1]) != 12 {
		t.Fatalf("phi1 transitions = %d, want 12", len(tr.Transitions[phi1]))
	}
}

func TestSimulatorLatchSemantics(t *testing.T) {
	nw := build(t, pipeText)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(6, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0)
	})
	// Captures occur on every trailing edge of both elements.
	var l1Caps, l2Caps int
	for _, c := range tr.Captures {
		switch c.Inst {
		case "l1":
			l1Caps++
			if c.At%(10*clock.Ns) != 4*clock.Ns {
				t.Fatalf("l1 capture at %v, want trailing edges of phi1", c.At)
			}
		case "l2":
			l2Caps++
			if c.At%(10*clock.Ns) != 9*clock.Ns {
				t.Fatalf("l2 capture at %v", c.At)
			}
		}
	}
	if l1Caps != 6 || l2Caps != 6 {
		t.Fatalf("captures l1=%d l2=%d, want 6 each", l1Caps, l2Caps)
	}
	// After warm-up the captured values alternate with the stimulus:
	// IN at cycle k (9ns+10k) is buffered into n1, latched by l1 during
	// the next phi1 pulse, inverted, captured by l2 at 9ns+10(k+1).
	warm := tr.Captures[:0]
	for _, c := range tr.Captures {
		if c.Inst == "l2" && c.At > 20*clock.Ns {
			warm = append(warm, c)
		}
	}
	for _, c := range warm {
		cycle := int(c.At / (10 * clock.Ns))
		wantIn := logic.FromBool((cycle-1)%2 == 0)
		if c.V != logic.Not(wantIn) {
			t.Fatalf("l2 captured %v at %v (cycle %d), want %v", c.V, c.At, cycle, logic.Not(wantIn))
		}
	}
}

// TestSimulatorTransparency: while the latch is open, Q follows D; while
// closed, Q holds.
func TestSimulatorTransparency(t *testing.T) {
	nw := build(t, pipeText)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(8, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0)
	})
	q1 := nw.NetIdx["q1"]
	// Between phi1 fall (4ns) and the next rise (10ns) q1 must not change.
	for _, x := range tr.Transitions[q1] {
		phase := x.At % (10 * clock.Ns)
		// Allow the Ddz/Dcz lag after the window: transitions must
		// originate from the transparent window [0, 4ns) plus latch delay.
		limit := 4*clock.Ns + lib.Cell("DLATCH_X1").Sync.Ddz
		if phase >= limit {
			t.Fatalf("q1 changed at %v (phase %v) while latch closed", x.At, phase)
		}
	}
}

// TestStaticPassImpliesNoSetupViolations: the central cross-validation —
// when Algorithm 1 passes the design, worst-case simulation never captures
// changing or unknown data.
func TestStaticPassImpliesNoSetupViolations(t *testing.T) {
	texts := []string{pipeText, `
design wide
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input A clock phi2 edge fall offset 0
input B clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst g1 NAND2_X1 A=A B=B Y=n1
inst g2 XOR2_X1 A=n1 B=A Y=n2
inst l1 DLATCH_X1 D=n2 G=phi1 Q=q1
inst g3 AOI21_X1 A=q1 B=n1x C=q1 Y=n3
inst gx INV_X1 A=q1 Y=n1x
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`}
	for ti, text := range texts {
		nw := build(t, text)
		a := core.LoadFlat(nw, core.Options{})
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("fixture %d: static analysis fails (worst %v)", ti, rep.WorstSlack())
		}
		// Rebuild (Algorithm 1 moved offsets; sim doesn't care, but keep
		// the network pristine for clarity).
		nw2 := build(t, text)
		s, err := New(nw2)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(ti) + 9))
		tr := s.Run(30, func(cycle int, port string) logic.Value {
			return logic.FromBool(r.Intn(2) == 0)
		})
		viol := CheckSetup(nw2, tr, 30*clock.Ns)
		if len(viol) != 0 {
			t.Fatalf("fixture %d: static pass but dynamic setup violations: %+v", ti, viol[0])
		}
	}
}

// TestStaticFailShowsDynamicViolation: a design the analyzer rejects
// violates physically under toggling stimulus.
func TestStaticFailShowsDynamicViolation(t *testing.T) {
	// Three loaded inverters put the arrival ~875ps after the launch edge
	// — inside the 150ps set-up window before the next 1ns capture. (With
	// one more inverter the data would land just *after* the capture: the
	// element would latch stale data — equally broken, but a failure mode
	// the set-up check alone cannot see; the static analysis flags both.)
	text := `
design slow
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
	nw := build(t, text)
	a := core.LoadFlat(nw, core.Options{})
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("fixture should fail statically")
	}
	nw2 := build(t, text)
	s, err := New(nw2)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(40, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0) // toggle every cycle
	})
	viol := CheckSetup(nw2, tr, 5*clock.Ns)
	if len(viol) == 0 {
		t.Fatal("static fail but no dynamic violation observed")
	}
	// The violating element is the second flip-flop.
	found := false
	for _, v := range viol {
		if v.Inst == "f2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations lack f2: %+v", viol)
	}
}

func TestSimulatorRejectsUnparsableFunctions(t *testing.T) {
	// Hierarchical super-cells carry informational function strings; the
	// simulator must refuse rather than mis-simulate.
	d, err := netlist.ParseString(`
design h
clock phi period 10ns rise 0 fall 4ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
module M
  input A
  output Y
  inst i1 INV_X1 A=A Y=Y
endmodule
inst u1 M A=IN Y=n1
inst g2 BUF_X1 A=n1 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(a.CD.Network); err == nil {
		t.Fatal("super-cell function accepted")
	}
}

func TestTraceQueries(t *testing.T) {
	tr := &Trace{Transitions: map[int][]Transition{
		3: {{At: 10, V: logic.One}, {At: 20, V: logic.Zero}, {At: 30, V: logic.One}},
	}}
	if v := tr.ValueAt(3, 5); v != logic.X {
		t.Fatalf("ValueAt(5) = %v", v)
	}
	if v := tr.ValueAt(3, 25); v != logic.Zero {
		t.Fatalf("ValueAt(25) = %v", v)
	}
	if v := tr.ValueAt(3, 30); v != logic.One {
		t.Fatalf("ValueAt(30) = %v", v)
	}
	at, v, ok := tr.LastChangeBefore(3, 1000)
	if !ok || at != 30 || v != logic.One {
		t.Fatalf("LastChangeBefore = %v %v %v", at, v, ok)
	}
	if _, _, ok := tr.LastChangeBefore(99, 50); ok {
		t.Fatal("unknown net reported a change")
	}
}

// TestCrossValidationRandomPipelines: for a family of randomly generated
// latch/FF pipelines that pass the static analysis, worst-case simulation
// under random stimulus never produces a setup violation or an X capture.
func TestCrossValidationRandomPipelines(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.PipeConfig{
			Name:   "xv",
			Stages: 2 + int(seed%3), Width: 3 + int(seed%4), Depth: 2,
			Latch: "DLATCH_X1", Latch2: "DFF_X1",
			ClockBufs: int(seed % 2), Seed: seed,
			GatedBank: seed%2 == 0,
		}
		d, err := workload.Pipeline(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := core.Load(lib, d, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("seed %d: generated pipeline fails statically (worst %v)", seed, rep.WorstSlack())
		}
		s, err := New(a.CD.Network)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := rand.New(rand.NewSource(seed * 131))
		tr := s.Run(25, func(cycle int, port string) logic.Value {
			return logic.FromBool(r.Intn(2) == 0)
		})
		warm := clock.Time(8) * a.CD.Clocks.Overall()
		if viol := CheckSetup(a.CD.Network, tr, warm); len(viol) != 0 {
			t.Fatalf("seed %d: static pass but dynamic violation %+v", seed, viol[0])
		}
		if len(tr.Captures) == 0 {
			t.Fatalf("seed %d: no captures at all", seed)
		}
	}
}

// TestSimulatorTristateBus: two clocked tristate drivers time-share a bus;
// each drive window carries its own source's value.
func TestSimulatorTristateBus(t *testing.T) {
	nw := build(t, `
design bus
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input A clock phi2 edge fall offset 0
input B clock phi1 edge fall offset 0
output OUT clock phi2 edge fall offset 0
inst t1 TBUF_X1 A=A EN=phi1 Y=bus
inst t2 TBUF_X1 A=B EN=phi2 Y=bus
inst g1 BUF_X1 A=bus Y=OUT
end
`)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	// A always 1, B always 0: the bus alternates 1 (phi1 window) and 0
	// (phi2 window) every cycle after warm-up.
	tr := s.Run(6, func(cycle int, port string) logic.Value {
		return logic.FromBool(port == "A")
	})
	bus := nw.NetIdx["bus"]
	var after []Transition
	for _, x := range tr.Transitions[bus] {
		if x.At >= 20*clock.Ns {
			after = append(after, x)
		}
	}
	if len(after) < 4 {
		t.Fatalf("bus transitions after warm-up = %d", len(after))
	}
	for i := 1; i < len(after); i++ {
		if after[i].V == after[i-1].V {
			t.Fatalf("bus did not alternate: %+v", after)
		}
		if after[i].V == logic.X {
			t.Fatalf("X on bus after warm-up: %+v", after[i])
		}
	}
}

// TestSimulatorActiveLowLatch: DLATCHN is transparent while its control is
// low; captures happen on the control's rising edge.
func TestSimulatorActiveLowLatch(t *testing.T) {
	nw := build(t, `
design al
clock phi period 10ns rise 0 fall 4ns
input IN clock phi edge rise offset 1ns
output OUT clock phi edge fall offset 0
inst l1 DLATCHN_X1 D=IN G=phi Q=q1
inst g1 BUF_X1 A=q1 Y=OUT
end
`)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(5, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0)
	})
	for _, c := range tr.Captures {
		if c.Inst != "l1" {
			continue
		}
		// Captures at the control RISING edges (phase 0 mod 10ns).
		if c.At%(10*clock.Ns) != 0 {
			t.Fatalf("active-low latch captured at %v", c.At)
		}
	}
}

// TestSimulatorDeterministic: identical runs produce identical traces.
func TestSimulatorDeterministic(t *testing.T) {
	mk := func() *Trace {
		nw := build(t, pipeText)
		s, err := New(nw)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		return s.Run(10, func(cycle int, port string) logic.Value {
			return logic.FromBool(r.Intn(2) == 0)
		})
	}
	a, b := mk(), mk()
	if len(a.Captures) != len(b.Captures) {
		t.Fatal("capture counts differ")
	}
	for i := range a.Captures {
		if a.Captures[i] != b.Captures[i] {
			t.Fatalf("capture %d differs: %+v vs %+v", i, a.Captures[i], b.Captures[i])
		}
	}
	for net, ts := range a.Transitions {
		if len(b.Transitions[net]) != len(ts) {
			t.Fatalf("net %d transition counts differ", net)
		}
		for i := range ts {
			if ts[i] != b.Transitions[net][i] {
				t.Fatalf("net %d transition %d differs", net, i)
			}
		}
	}
}

// TestFromDesignFlattensHierarchy: hierarchical designs simulate after
// automatic flattening.
func TestFromDesignFlattensHierarchy(t *testing.T) {
	d, err := netlist.ParseString(`
design h
clock phi period 10ns rise 0 fall 4ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
module M
  input A
  output Y
  inst i1 INV_X1 A=A Y=t
  inst i2 INV_X1 A=t Y=Y
endmodule
inst u1 M A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi Q=q1
inst g2 BUF_X1 A=q1 Y=OUT
end
`)
	if err != nil {
		t.Fatal(err)
	}
	s, nw, err := FromDesign(lib, d, delaycalc.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(6, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0)
	})
	if len(tr.Captures) == 0 {
		t.Fatal("no captures")
	}
	if viol := CheckSetup(nw, tr, 20*clock.Ns); len(viol) != 0 {
		t.Fatalf("violations: %+v", viol)
	}
}

// TestStaticReadyMatchesSimArrival: on a flip-flop chain whose worst path
// toggles every cycle, the static ready time at the capture net equals the
// simulated arrival exactly — both sides consume the same delay model, so
// any discrepancy is a bug in one of them.
func TestStaticReadyMatchesSimArrival(t *testing.T) {
	text := `
design eq
clock phi period 20ns rise 0 fall 8ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
inst f1 DFF_X1 D=IN CK=phi Q=q1
inst g1 INV_X1 A=q1 Y=n1
inst g2 INV_X1 A=n1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst f2 DFF_X1 D=n3 CK=phi Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`
	nw := build(t, text)
	a := core.LoadFlat(nw, core.Options{})
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fixture slow: %v", rep.WorstSlack())
	}
	// Static: ready at n3 in f2's cluster pass, relative to the launch
	// (f1's capture edge at 8ns). The window starts at the break β; the
	// launch asserts at AssertPos(8ns) + Dcz.
	var staticArrival clock.Time = -1
	n3 := nw.NetIdx["n3"]
	f1 := nw.ElemsOf("f1")[0]
	for _, pd := range rep.Result.Passes() {
		for li, net := range pd.Nets {
			if net != n3 {
				continue
			}
			r := pd.ReadyR[li]
			if pd.ReadyF[li] > r {
				r = pd.ReadyF[li]
			}
			if r == -clock.Inf {
				continue
			}
			// Convert window position to delay-after-launch.
			e := nw.Elems[f1]
			launch := e.OutputAssert() - e.IdealAssert // = Dcz offset
			// Launch position in this window:
			lp := (e.IdealAssert - pd.Beta) % nw.Clocks.Overall()
			if lp < 0 {
				lp += nw.Clocks.Overall()
			}
			lp += launch
			staticArrival = r - lp // pure combinational path delay
		}
	}
	if staticArrival < 0 {
		t.Fatal("static arrival not found")
	}

	// Dynamic: last transition of n3 before a post-warm-up capture,
	// relative to the launch edge (capture time - period + Dcz).
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Run(10, func(cycle int, port string) logic.Value {
		return logic.FromBool(cycle%2 == 0) // toggle: sensitizes the chain
	})
	dcz := lib.Cell("DFF_X1").Sync.Dcz
	var simArrival clock.Time = -1
	for _, c := range tr.Captures {
		if c.Inst != "f2" || c.At < 60*clock.Ns {
			continue
		}
		last, _, ok := tr.LastChangeBefore(c.DNet, c.At-1)
		if !ok {
			continue
		}
		launchAt := c.At - 20*clock.Ns + dcz // previous capture edge + Dcz
		if d := last - launchAt; d > simArrival {
			simArrival = d
		}
	}
	if simArrival < 0 {
		t.Fatal("sim arrival not found")
	}
	if simArrival != staticArrival {
		t.Fatalf("static arrival %v != simulated arrival %v", staticArrival, simArrival)
	}
}

// TestRaceDetectorFindsSkewHold: a clock-skew hold hazard — short logic
// between two flip-flops whose capture clock is delayed by a buffer tree.
// The static analyzer, by the paper's own admission ("our algorithms do
// not detect these problems"), passes the design; the two-corner race
// detector catches it: with minimum delays the racing data beats the
// delayed capture edge and the element latches the *new* value.
func TestRaceDetectorFindsSkewHold(t *testing.T) {
	text := `
design skewhold
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
	nw := build(t, text)
	a := core.LoadFlat(nw, core.Options{})
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("max-delay (setup) analysis should pass: %v", rep.WorstSlack())
	}

	run := func(min bool) *Trace {
		nw2 := build(t, text)
		s, err := New(nw2)
		if err != nil {
			t.Fatal(err)
		}
		s.UseMinDelays(min)
		return s.Run(12, func(cycle int, port string) logic.Value {
			return logic.FromBool(cycle%2 == 0)
		})
	}
	maxTr, minTr := run(false), run(true)
	races := CompareCaptures(maxTr, minTr, 60*clock.Ns)
	if len(races) == 0 {
		t.Fatal("skew hold race not detected")
	}
	found := false
	for _, r := range races {
		if r.Inst == "f2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("races lack f2: %+v", races)
	}
}

// TestRaceDetectorCleanOnSafeDesign: the two corners agree on a design
// without skew.
func TestRaceDetectorCleanOnSafeDesign(t *testing.T) {
	run := func(min bool) (*Trace, *cluster.Network) {
		nw := build(t, pipeText)
		s, err := New(nw)
		if err != nil {
			t.Fatal(err)
		}
		s.UseMinDelays(min)
		r := rand.New(rand.NewSource(5))
		return s.Run(15, func(cycle int, port string) logic.Value {
			return logic.FromBool(r.Intn(2) == 0)
		}), nw
	}
	maxTr, _ := run(false)
	minTr, _ := run(true)
	if races := CompareCaptures(maxTr, minTr, 30*clock.Ns); len(races) != 0 {
		t.Fatalf("safe design raced: %+v", races)
	}
}
