package incremental

import (
	"bytes"
	"slices"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
)

// topoSrc is the pipe design with buffer taps at the front (t0, t1) and in
// the middle (t2, t3) of its instance list, so removals can come from
// anywhere in it.
const topoSrc = `
design topo
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -0.5ns
inst t0 BUF_X1 A=n1 Y=t0y
inst t1 BUF_X1 A=n2 Y=t1y
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=n2
inst t2 BUF_X1 A=n2 Y=t2y
inst t3 BUF_X1 A=q1 Y=t3y
inst g3 INV_X1 A=n2 Y=n3
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`

// TestTopologyEditsLeavePreviousDesign applies the topology edits no
// generator makes — rewires, a replace onto another interface, removals
// from the front and the middle of the instance list, an instance added,
// rewired and removed within one batch — and a refused rewire. A rebuild
// copies the instance slice but shares the Conns maps, so after every
// batch the design held from before it must still write its old text.
// An accepted batch must match a from-scratch analysis and leave the
// instances a naive re-application of the batch gives, in order, indexed
// by name; the refused one must leave the engine's design and report as
// they were.
func TestTopologyEditsLeavePreviousDesign(t *testing.T) {
	lib := celllib.Default()
	d, err := netlist.ParseString(topoSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(lib, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf := func(name, a string) *netlist.Instance {
		return &netlist.Instance{Name: name, Ref: "BUF_X1", Conns: map[string]string{"A": a, "Y": name + "y"}}
	}
	batches := []struct {
		name    string
		edits   []Edit
		refused bool
	}{
		{"rewire", []Edit{{Op: Rewire, Inst: "g3", Pin: "A", Net: "n1"}, {Op: Rewire, Inst: "t3", Pin: "A", Net: "n3"}}, false},
		{"replace onto another interface", []Edit{{Op: Replace, Inst: "g2", To: "BUF_X1"}}, false},
		{"add", []Edit{{Op: AddInst, New: buf("x0", "q2")}, {Op: AddInst, New: buf("x1", "n3")}}, false},
		{"remove from the front", []Edit{{Op: RemoveInst, Inst: "t1"}, {Op: RemoveInst, Inst: "t0"}}, false},
		{"remove from the middle", []Edit{{Op: RemoveInst, Inst: "t3"}, {Op: Adjust, Inst: "g3", Delta: 40}, {Op: RemoveInst, Inst: "t2"}}, false},
		{"add, rewire and remove in one batch", []Edit{
			{Op: AddInst, New: buf("y0", "n1")},
			{Op: Rewire, Inst: "y0", Pin: "A", Net: "q1"},
			{Op: RemoveInst, Inst: "x0"},
			{Op: AddInst, New: buf("x0", "n2")},
			{Op: RemoveInst, Inst: "g1"},
			{Op: AddInst, New: buf("g1", "IN")},
			{Op: Rewire, Inst: "g1", Pin: "Y", Net: "n1"},
		}, false},
		{"refused rewire", []Edit{{Op: Rewire, Inst: "g4", Pin: "Z", Net: "n3"}}, true},
	}
	names := func(d *netlist.Design) []string {
		var out []string
		for _, inst := range d.Instances {
			out = append(out, inst.Name)
		}
		return out
	}
	write := func(d *netlist.Design) []byte {
		var b bytes.Buffer
		if err := netlist.Write(&b, d); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range batches {
		prev := eng.Design()
		prevText := write(prev)
		prevReport := encodeReport(t, eng.Analyzer(), eng.Report())
		want := names(prev)
		for _, ed := range tc.edits {
			switch ed.Op {
			case AddInst:
				want = append(want, ed.New.Name)
			case RemoveInst:
				want = slices.Delete(want, slices.Index(want, ed.Inst), slices.Index(want, ed.Inst)+1)
			}
		}

		out, err := eng.Apply(tc.edits...)
		if !bytes.Equal(write(prev), prevText) {
			t.Fatalf("%s: the design held from before the batch changed", tc.name)
		}
		if tc.refused {
			if err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
			if eng.Design() != prev {
				t.Fatalf("%s: a refused batch replaced the design", tc.name)
			}
			if !bytes.Equal(encodeReport(t, eng.Analyzer(), eng.Report()), prevReport) {
				t.Fatalf("%s: a refused batch changed the report", tc.name)
			}
			checkChecksum(t, eng, tc.name)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Incremental || out.FallbackReason != "topology change" {
			t.Fatalf("%s: outcome %+v, want a topology rebuild", tc.name, out)
		}
		if got := names(eng.Design()); !slices.Equal(got, want) {
			t.Fatalf("%s: instances %v, want %v", tc.name, got, want)
		}
		for i, name := range want {
			if eng.instIdx[name] != i {
				t.Fatalf("%s: instance %s indexed at %d, sits at %d", tc.name, name, eng.instIdx[name], i)
			}
		}
		verifyAgainstScratch(t, lib, eng, tc.name)
	}
}
