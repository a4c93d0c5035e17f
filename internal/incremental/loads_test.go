package incremental

import (
	"context"
	"math/rand"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/workload"
)

// countdownCtx reports itself cancelled from its (k+1)th Err check on: a
// deterministic cancellation k cluster analyses into a replay.
type countdownCtx struct {
	context.Context
	k int
}

func (c *countdownCtx) Err() error {
	if c.k--; c.k < 0 {
		return context.Canceled
	}
	return nil
}

// TestResizeLoadsMatchFresh: a drive-strength resize shifts the loads of
// the nets on the instance's input pins by each pin's capacitance change
// instead of recomputing them, and a rolled-back batch shifts them back.
// After a seeded resize sequence on a small SoC — one batch cancelled
// mid-replay — every net's load must equal a fresh delay calculator's
// over the edited design.
func TestResizeLoadsMatchFresh(t *testing.T) {
	d, err := workload.SoC(8, 8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	resize := func() Edit {
		for {
			name := randomCombInst(rng, eng)
			cur := eng.Design().Instances[eng.instIdx[name]].Ref
			if to := resizeAlternative(eng, cur); to != "" && eng.delayLocal(name) {
				return Edit{Op: Resize, Inst: name, To: to}
			}
		}
	}
	opened := map[string]celllib.Cap{}
	for _, net := range d.NetNames() {
		opened[net] = eng.Analyzer().CD.Calc.NetLoad(net)
	}
	checkLoads := func(when string) (changed int) {
		t.Helper()
		a := eng.Analyzer()
		fresh, err := delaycalc.New(a.Lib, eng.Design(), eng.Options().Delay)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range eng.Design().NetNames() {
			got, want := a.CD.Calc.NetLoad(net), fresh.NetLoad(net)
			if got != want {
				t.Fatalf("%s: net %s load %d, a fresh calculator's %d", when, net, got, want)
			}
			if got != opened[net] {
				changed++
			}
		}
		return changed
	}
	for i := 0; i < 16; i++ {
		batch := []Edit{resize(), resize(), resize()}
		if i == 8 {
			if _, err := eng.ApplyContext(&countdownCtx{Context: context.Background(), k: 1}, batch...); err == nil {
				t.Fatal("batch cancelled at its second cluster analysis succeeded")
			}
			checkLoads("after the cancelled batch")
			continue
		}
		out, err := eng.Apply(batch...)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Incremental {
			t.Fatalf("resize batch %d left the incremental path: %s", i, out.FallbackReason)
		}
	}
	if checkLoads("after the resize sequence") == 0 {
		t.Fatal("no resize changed a net load")
	}
}
