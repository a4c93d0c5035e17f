package span

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanIDsAndInject(t *testing.T) {
	tr := New("tid-1", "op")
	ctx := NewContext(context.Background(), tr)
	if got := tr.Root().id; got != 1 {
		t.Fatalf("root span id = %d, want 1", got)
	}
	c1, a := Start(ctx, "a")
	_, b := Start(c1, "b")
	if a.id != 2 || b.id != 3 {
		t.Fatalf("span ids = %d, %d, want 2, 3", a.id, b.id)
	}

	h := http.Header{}
	Inject(c1, h)
	if h.Get(TraceIDHeader) != "tid-1" || h.Get(ParentSpanHeader) != "2" {
		t.Fatalf("Inject wrote %q/%q", h.Get(TraceIDHeader), h.Get(ParentSpanHeader))
	}
	// No trace in ctx → no headers.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if len(h2) != 0 {
		t.Fatalf("Inject without trace wrote %v", h2)
	}
}

func TestExportCarriesStitchMetadata(t *testing.T) {
	tr := New("tid-2", "op")
	tr.SetProcess("r1")
	tr.SetRemoteParent("5")
	tr.Finish()
	e := tr.Export()
	if e.Process != "r1" || e.ParentSpan != "5" || e.StartUnixNs == 0 {
		t.Fatalf("export metadata: %+v", e)
	}
	if e.Root.Process != "r1" || e.Root.SpanID != "1" {
		t.Fatalf("root node metadata: %+v", e.Root)
	}
}

// buildFragment makes an export by hand so the wall-clock anchors are
// exact instead of depending on timer resolution.
func frag(id, process, parent string, startNs int64, root *Node) *Export {
	return &Export{ID: id, Process: process, ParentSpan: parent, StartUnixNs: startNs, Root: root}
}

func TestStitchSplicesAndRebases(t *testing.T) {
	base := frag("T", "router", "", 1_000_000, &Node{
		Name: "fleet.failover", SpanID: "1", DurNs: 500_000,
		Children: []*Node{
			{Name: "probe", SpanID: "2", OffsetNs: 10_000, DurNs: 100_000},
			{Name: "adopt", SpanID: "3", OffsetNs: 200_000, DurNs: 200_000},
		},
	})
	remote := frag("T", "r2", "3", 1_250_000, &Node{
		Name: "server.repl_adopt", SpanID: "1", OffsetNs: 0, DurNs: 90_000,
		Children: []*Node{{Name: "replay", SpanID: "2", OffsetNs: 5_000, DurNs: 50_000}},
	})

	st := Stitch([]*Export{remote, base}) // order must not matter
	if st == nil || st.Process != "router" || st.ID != "T" {
		t.Fatalf("stitched = %+v", st)
	}
	adopt := st.Root.Children[1]
	if adopt.Name != "adopt" || len(adopt.Children) != 1 {
		t.Fatalf("fragment not spliced under adopt: %+v", adopt)
	}
	sub := adopt.Children[0]
	if sub.Name != "server.repl_adopt" || sub.Process != "r2" {
		t.Fatalf("spliced root: %+v", sub)
	}
	// Offsets rebased by the wall-clock delta (250µs).
	if sub.OffsetNs != 250_000 {
		t.Fatalf("spliced offset = %d, want 250000", sub.OffsetNs)
	}
	if sub.Children[0].OffsetNs != 255_000 {
		t.Fatalf("spliced child offset = %d, want 255000", sub.Children[0].OffsetNs)
	}
	// Inputs must not be mutated by the splice.
	if remote.Root.OffsetNs != 0 || len(base.Root.Children[1].Children) != 0 {
		t.Fatal("Stitch mutated its inputs")
	}
}

func TestStitchOrphanAndEmpty(t *testing.T) {
	if Stitch(nil) != nil {
		t.Fatal("Stitch(nil) non-nil")
	}
	base := frag("T", "router", "", 0, &Node{Name: "root", SpanID: "1"})
	orphan := frag("T", "r9", "99", 100, &Node{Name: "lost", SpanID: "1"})
	st := Stitch([]*Export{base, orphan})
	if len(st.Root.Children) != 1 || st.Root.Children[0].Name != "lost" {
		t.Fatalf("orphan fragment not attached under root: %+v", st.Root)
	}
	// With no parentless fragment, the earliest anchor becomes the base.
	a := frag("T", "r1", "7", 500, &Node{Name: "a", SpanID: "1"})
	b := frag("T", "r2", "8", 100, &Node{Name: "b", SpanID: "1"})
	st2 := Stitch([]*Export{a, b})
	if st2.Process != "r2" {
		t.Fatalf("base pick = %q, want earliest (r2)", st2.Process)
	}
}

func TestStitchedChromeHasTwoProcesses(t *testing.T) {
	base := frag("T", "router", "", 0, &Node{
		Name: "fleet.failover", SpanID: "1", DurNs: 100,
		Children: []*Node{{Name: "adopt", SpanID: "2", DurNs: 50}},
	})
	remote := frag("T", "r2", "2", 10, &Node{Name: "server.repl_adopt", SpanID: "1", DurNs: 40})
	st := Stitch([]*Export{base, remote})

	var sb strings.Builder
	if err := st.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatal(err)
	}
	procNames := map[string]bool{}
	pids := map[int]bool{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Args["name"]] = true
		}
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if !procNames["router"] || !procNames["r2"] {
		t.Fatalf("process names = %v, want router + r2", procNames)
	}
	if len(pids) != 2 {
		t.Fatalf("distinct pids = %d, want 2", len(pids))
	}
}

func TestRingRetainsAndEvicts(t *testing.T) {
	r := NewRing(2)
	t1, t2, t3 := New("a", "op"), New("b", "op"), New("c", "op")
	r.Add(t1)
	r.Add(t2)
	if r.Get("a") != t1 || r.Get("b") != t2 || len(r.order) != 2 {
		t.Fatal("ring lost fresh traces")
	}
	r.Add(t3) // evicts "a"
	if r.Get("a") != nil || r.Get("c") != t3 || len(r.order) != 2 {
		t.Fatalf("eviction wrong: a=%v c=%v len=%d", r.Get("a"), r.Get("c"), len(r.order))
	}
	// Re-adding an id replaces in place without eviction.
	t2b := New("b", "op2")
	r.Add(t2b)
	if r.Get("b") != t2b || len(r.order) != 2 {
		t.Fatal("re-add did not replace in place")
	}
	// Nil safety.
	var nilRing *Ring
	nilRing.Add(t1)
	if nilRing.Get("a") != nil {
		t.Fatal("nil ring misbehaved")
	}
	r.Add(nil)
}

func TestExportRoundTripsThroughJSON(t *testing.T) {
	tr := New("rt", "op")
	tr.SetProcess("r1")
	ctx := NewContext(context.Background(), tr)
	_, sp := Start(ctx, "phase")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Finish()

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal([]byte(sb.String()), &e); err != nil {
		t.Fatal(err)
	}
	if e.ID != "rt" || e.Process != "r1" || e.StartUnixNs == 0 {
		t.Fatalf("round-trip lost metadata: %+v", e)
	}
	if len(e.Root.Children) != 1 || e.Root.Children[0].SpanID != "2" {
		t.Fatalf("round-trip lost span ids: %+v", e.Root)
	}
}
