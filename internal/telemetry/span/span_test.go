package span

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNestingAndExport(t *testing.T) {
	tr := New("t1", "server.request")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the trace")
	}

	ctx2, admission := Start(ctx, "admission")
	time.Sleep(time.Millisecond)
	admission.End()
	if Current(ctx2) != admission {
		t.Fatal("Start did not make the child current")
	}

	// A span started from the original ctx is a sibling of admission,
	// not a child of it.
	ctx3, journal := Start(ctx, "journal.append")
	_, fsync := Start(ctx3, "journal.fsync")
	fsync.Annotate("bytes", "64")
	fsync.AnnotateInt("bytes", 128) // a later value of a key replaces it
	fsync.AnnotateInt("records", -3)
	time.Sleep(time.Millisecond)
	fsync.End()
	journal.End()

	total := tr.Finish()
	if total <= 0 {
		t.Fatalf("trace duration %v", total)
	}
	root := tr.Tree()
	if root.Name != "server.request" || len(root.Children) != 2 {
		t.Fatalf("bad tree shape: %+v", root)
	}
	names := []string{root.Children[0].Name, root.Children[1].Name}
	if names[0] != "admission" || names[1] != "journal.append" {
		t.Fatalf("children = %v", names)
	}
	jr := root.Children[1]
	if len(jr.Children) != 1 || jr.Children[0].Name != "journal.fsync" {
		t.Fatalf("fsync not nested under append: %+v", jr)
	}
	if a := jr.Children[0].Attrs; len(a) != 2 || a["bytes"] != "128" || a["records"] != "-3" {
		t.Fatalf("attrs lost: %+v", jr.Children[0])
	}
	if fsync.Attr("bytes") != "128" || fsync.Attr("none") != "" {
		t.Fatalf("Attr reads %q and %q", fsync.Attr("bytes"), fsync.Attr("none"))
	}
	if fsync.id != 4 || jr.Children[0].SpanID != "4" {
		t.Fatalf("fsync span id %d, exported %q, want 4", fsync.id, jr.Children[0].SpanID)
	}

	// Child durations must fit inside their parent's interval.
	var check func(n *Node)
	check = func(n *Node) {
		for _, c := range n.Children {
			if c.OffsetNs < n.OffsetNs {
				t.Fatalf("child %s starts before parent %s", c.Name, n.Name)
			}
			if c.OffsetNs+c.DurNs > n.OffsetNs+n.DurNs+int64(time.Millisecond) {
				t.Fatalf("child %s (%d+%d) overruns parent %s (%d+%d)",
					c.Name, c.OffsetNs, c.DurNs, n.Name, n.OffsetNs, n.DurNs)
			}
			check(c)
		}
	}
	check(root)
}

func TestFinishForceEndsOpenSpans(t *testing.T) {
	tr := New("t2", "req")
	ctx := NewContext(context.Background(), tr)
	_, leaked := Start(ctx, "never.ended")
	_ = leaked // deliberately not ended
	tr.Finish()
	n := tr.Tree().Children[0]
	if n.DurNs <= 0 {
		t.Fatalf("unfinished child exported without duration: %+v", n)
	}
	// Tree after Finish is stable.
	a := tr.Tree()
	time.Sleep(2 * time.Millisecond)
	b := tr.Tree()
	if a.Children[0].DurNs != b.Children[0].DurNs {
		t.Fatal("finished span duration kept growing")
	}
}

func TestNilSafety(t *testing.T) {
	// All of these must be no-ops, not panics.
	var s *Span
	s.End()
	s.Annotate("k", "v")
	s.AnnotateInt("k", 1)
	if s.Attr("k") != "" {
		t.Fatal("nil span has attrs")
	}
	if tr := FromContext(nil); tr != nil {
		t.Fatal("nil ctx produced a trace")
	}
	if FromContext(nil) != nil {
		t.Fatal("nil ctx active")
	}
	if c, sp := Start(nil, "x"); c != nil || sp != nil {
		t.Fatal("Start(nil) allocated")
	}
	if Current(nil) != nil {
		t.Fatal("Current(nil) non-nil")
	}
	// Context without a trace: Start returns it unchanged, nil span.
	ctx := context.Background()
	c2, sp := Start(ctx, "x")
	if c2 != ctx || sp != nil {
		t.Fatal("Start without trace changed the context")
	}
	if FromContext(ctx) != nil {
		t.Fatal("traceless ctx active")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("t3", "req")
	ctx := NewContext(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c, sp := Start(ctx, "worker")
				_, inner := Start(c, "inner")
				inner.AnnotateInt("j", j)
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Tree().Children); got != 400 {
		t.Fatalf("children = %d, want 400", got)
	}
}

func TestWriteJSONAndChrome(t *testing.T) {
	tr := New("abc123", "req")
	ctx := NewContext(context.Background(), tr)
	_, sp := Start(ctx, "phase")
	sp.Annotate("op", "edit")
	sp.End()
	tr.Finish()

	var jb strings.Builder
	if err := tr.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   string `json:"id"`
		Root *Node  `json:"root"`
	}
	if err := json.Unmarshal([]byte(jb.String()), &decoded); err != nil {
		t.Fatalf("WriteJSON not valid JSON: %v", err)
	}
	if decoded.ID != "abc123" || decoded.Root.Name != "req" || len(decoded.Root.Children) != 1 {
		t.Fatalf("bad JSON export: %+v", decoded)
	}

	var cb strings.Builder
	if err := tr.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(cb.String()), &events); err != nil {
		t.Fatalf("WriteChrome not a JSON array: %v", err)
	}
	var complete, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase: %v", ev)
		}
	}
	if complete != 2 || meta != 1 {
		t.Fatalf("chrome events: %d complete + %d metadata, want 2 + 1", complete, meta)
	}

	var tb strings.Builder
	tr.WriteText(&tb)
	out := tb.String()
	for _, want := range []string{"trace abc123", "req ", "  phase", `"op":"edit"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export lacks %q:\n%s", want, out)
		}
	}
}

func TestValidID(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want bool
	}{
		{"", false},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"abcxyz", true},
		{"ABCXYZ", true},
		{"0189", true},
		{"-", true},
		{"_", true},
		{".", true},
		{"lx3k9-1f.r2_s4", true},
		{"a/b", false},
		{"../etc", false},
		{"a b", false},
		{"trace\n", false},
		{"träce", false},
		{"\xff", false},
	} {
		if got := ValidID(tc.id); got != tc.want {
			t.Errorf("ValidID(%q) = %v, want %v", tc.id, got, tc.want)
		}
	}
}
