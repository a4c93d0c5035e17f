package incremental

import (
	"context"
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

const pipeSrc = `
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

func openPipe(t *testing.T) *Engine {
	t.Helper()
	d, err := netlist.ParseString(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAdjustIsIncremental(t *testing.T) {
	eng := openPipe(t)
	out, err := eng.Apply(Edit{Op: Adjust, Inst: "g2", Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incremental {
		t.Fatalf("adjust classified as full rebuild: %+v", out)
	}
	if out.DirtyClusters == 0 {
		t.Fatal("adjust dirtied no clusters")
	}
	if out.Report == nil || out.Report != eng.Report() {
		t.Fatal("outcome report not the engine's current report")
	}
}

func TestResizeSameInterfaceIsIncremental(t *testing.T) {
	eng := openPipe(t)
	out, err := eng.Apply(Edit{Op: Resize, Inst: "g2", To: "INV_X2"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incremental {
		t.Fatalf("drive resize classified as full rebuild: %+v", out)
	}
	if got := eng.Design().Instances[2].Ref; got != "INV_X2" {
		t.Fatalf("resize not applied: ref %q", got)
	}
}

func TestResizeDifferentInterfaceFallsBack(t *testing.T) {
	eng := openPipe(t)
	// INV→BUF changes the arc sense, so the elaborated network differs.
	out, err := eng.Apply(Edit{Op: Resize, Inst: "g2", To: "BUF_X1"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Incremental {
		t.Fatal("interface-changing resize took the incremental path")
	}
	if out.FallbackReason != "topology change" {
		t.Fatalf("fallback reason %q", out.FallbackReason)
	}
}

func TestSyncEditFallsBack(t *testing.T) {
	eng := openPipe(t)
	out, err := eng.Apply(Edit{Op: Adjust, Inst: "l1", Delta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if out.Incremental {
		t.Fatal("adjust on a latch took the incremental path")
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	eng := openPipe(t)
	before := eng.StateHash()
	add := Edit{Op: AddInst, New: &netlist.Instance{
		Name: "gx", Ref: "BUF_X1", Conns: map[string]string{"A": "n2", "Y": "nx"}}}
	out, err := eng.Apply(add)
	if err != nil {
		t.Fatal(err)
	}
	if out.Incremental {
		t.Fatal("add took the incremental path")
	}
	if eng.StateHash() == before {
		t.Fatal("state hash unchanged after add")
	}
	if _, err := eng.Apply(Edit{Op: RemoveInst, Inst: "gx"}); err != nil {
		t.Fatal(err)
	}
	if eng.StateHash() != before {
		t.Fatal("state hash did not return after add+remove")
	}
}

func TestInvalidEditsLeaveEngineUnchanged(t *testing.T) {
	eng := openPipe(t)
	rep := eng.Report()
	hash := eng.StateHash()
	cases := []Edit{
		{Op: Adjust, Inst: "nope", Delta: 10},
		{Op: Resize, Inst: "g2", To: "NO_SUCH_CELL"},
		{Op: AddInst, New: &netlist.Instance{Name: "g2", Ref: "BUF_X1",
			Conns: map[string]string{"A": "n1", "Y": "ny"}}},
		// Rewiring the latch's data pin to an undriven net fails
		// validation inside the rebuild; the engine must roll back.
		{Op: Rewire, Inst: "l2", Pin: "D", Net: "floating_net"},
	}
	for _, ed := range cases {
		if _, err := eng.Apply(ed); err == nil {
			t.Fatalf("edit %+v unexpectedly succeeded", ed)
		}
		if eng.Report() != rep {
			t.Fatalf("edit %+v replaced the report despite failing", ed)
		}
		if eng.StateHash() != hash {
			t.Fatalf("edit %+v changed the design despite failing", ed)
		}
	}
}

// TestCancelledApplyRollsBack cancels a delay-only batch mid-analysis and
// checks atomicity: the engine keeps its previous state, hash and report,
// and retrying the identical batch applies it exactly once (matching a
// reference engine that never saw the cancellation).
func TestCancelledApplyRollsBack(t *testing.T) {
	eng := openPipe(t)
	ref := openPipe(t)
	hash := eng.StateHash()
	rep := eng.Report()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// An adjust plus a cap-changing drive resize: exercises the adjustment
	// map, the delay calculator, the load shifts and the arc patches.
	batch := []Edit{
		{Op: Adjust, Inst: "g2", Delta: 100},
		{Op: Resize, Inst: "g3", To: "INV_X4"},
	}
	if _, err := eng.ApplyContext(ctx, batch...); err == nil {
		t.Fatal("cancelled apply reported success")
	}
	if eng.StateHash() != hash {
		t.Fatal("cancelled apply changed the state hash")
	}
	if eng.Report() != rep {
		t.Fatal("cancelled apply replaced the report")
	}
	if got := eng.Options().Adjustments; len(got) != 0 {
		t.Fatalf("cancelled apply left adjustments behind: %v", got)
	}
	if got := eng.Design().Instances[3].Ref; got != "INV_X1" {
		t.Fatalf("cancelled apply left resize applied: ref %q", got)
	}
	if _, err := eng.Apply(batch...); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(batch...); err != nil {
		t.Fatal(err)
	}
	if eng.StateHash() != ref.StateHash() {
		t.Fatalf("retried batch diverged: %s != %s", eng.StateHash(), ref.StateHash())
	}
	if eng.Report().WorstSlack() != ref.Report().WorstSlack() {
		t.Fatalf("retried batch worst slack %v != reference %v",
			eng.Report().WorstSlack(), ref.Report().WorstSlack())
	}
	// A further edit over the rolled-back-then-retried state must still be
	// bit-identical — stale arc delays or a stale base cache would show here.
	more := Edit{Op: Adjust, Inst: "g1", Delta: 50}
	if _, err := eng.Apply(more); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(more); err != nil {
		t.Fatal(err)
	}
	if eng.Report().WorstSlack() != ref.Report().WorstSlack() {
		t.Fatal("post-retry edit diverged from reference")
	}
}

func TestBatchWithTopologyEditRebuildsOnce(t *testing.T) {
	eng := openPipe(t)
	out, err := eng.Apply(
		Edit{Op: Adjust, Inst: "g2", Delta: 100},
		Edit{Op: AddInst, New: &netlist.Instance{
			Name: "gx", Ref: "BUF_X1", Conns: map[string]string{"A": "n2", "Y": "nx"}}},
		Edit{Op: Rewire, Inst: "gx", Pin: "A", Net: "n3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.Incremental {
		t.Fatal("batch with topology edits took the incremental path")
	}
	gx := eng.Design().Instances[len(eng.Design().Instances)-1]
	if gx.Name != "gx" || gx.Conns["A"] != "n3" {
		t.Fatalf("batch application wrong: %+v", gx)
	}
	if eng.Options().Adjustments["g2"] != 100 {
		t.Fatal("adjustment lost in topology batch")
	}
}

func TestConstraintsCachedAndOffsetsRestored(t *testing.T) {
	eng := openPipe(t)
	st := eng.Analyzer().St
	odz := st.SnapshotOffsets(nil)
	c1, err := eng.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range st.Odz {
		if v != odz[i] {
			t.Fatalf("element %d offset moved by Constraints: %v != %v", i, v, odz[i])
		}
	}
	c2, err := eng.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Constraints call did not hit the cache")
	}
	if _, err := eng.Apply(Edit{Op: Adjust, Inst: "g2", Delta: 10}); err != nil {
		t.Fatal(err)
	}
	c3, err := eng.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("edit did not invalidate the constraints cache")
	}
}

func TestTopologyChecksumInvariants(t *testing.T) {
	lib := celllib.Default()
	d1, _ := netlist.ParseString(pipeSrc)
	d2, _ := netlist.ParseString(pipeSrc)
	if TopologyChecksum(d1, lib) != TopologyChecksum(d2, lib) {
		t.Fatal("checksum not deterministic")
	}
	// Drive resize keeps the checksum (delay-only by construction).
	d2.Instances[2].Ref = "INV_X2"
	if TopologyChecksum(d1, lib) != TopologyChecksum(d2, lib) {
		t.Fatal("drive resize changed the topology checksum")
	}
	// Rewiring changes it.
	d2.Instances[2].Conns["A"] = "n3"
	if TopologyChecksum(d1, lib) == TopologyChecksum(d2, lib) {
		t.Fatal("rewire kept the topology checksum")
	}
}

func TestStateHashDistinguishesAdjustments(t *testing.T) {
	e1 := openPipe(t)
	e2 := openPipe(t)
	if e1.StateHash() != e2.StateHash() {
		t.Fatal("identical engines hash differently")
	}
	if _, err := e1.Apply(Edit{Op: Adjust, Inst: "g2", Delta: 25}); err != nil {
		t.Fatal(err)
	}
	if e1.StateHash() == e2.StateHash() {
		t.Fatal("adjustment not reflected in state hash")
	}
	if _, err := e1.Apply(Edit{Op: Adjust, Inst: "g2", Delta: -25}); err != nil {
		t.Fatal(err)
	}
	if e1.StateHash() != e2.StateHash() {
		t.Fatal("reversed adjustment did not restore the state hash")
	}
}

func TestModuleInstanceAdjustIsIncremental(t *testing.T) {
	d := workload.SM1H()
	eng, err := Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var modInst string
	for _, inst := range eng.Design().Instances {
		if _, ok := eng.Design().Modules[inst.Ref]; ok {
			modInst = inst.Name
			break
		}
	}
	if modInst == "" {
		t.Skip("SM1H has no module instances")
	}
	out, err := eng.Apply(Edit{Op: Adjust, Inst: modInst, Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incremental {
		t.Fatalf("adjust on rolled-up module instance %s fell back", modInst)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		Adjust: "adjust", Resize: "resize", Replace: "replace",
		AddInst: "add", RemoveInst: "remove", Rewire: "rewire",
	} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	if !strings.HasPrefix(Op(99).String(), "Op(") {
		t.Fatal("unknown op string")
	}
}
