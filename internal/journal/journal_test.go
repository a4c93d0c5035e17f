package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hummingbird/internal/failpoint"
)

type openRec struct {
	Design string `json:"design"`
}

type editRec struct {
	Op   string `json:"op"`
	Inst string `json:"inst"`
}

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(filepath.Join(t.TempDir(), "journals"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	m := newManager(t)
	w, err := m.Create("s1", openRec{Design: "design d\nend\n"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(KindEdits, []editRec{{Op: "adjust", Inst: fmt.Sprintf("g%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ids, err := m.Sessions()
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("sessions = %v, %v", ids, err)
	}
	recs, err := m.Read("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].Kind != KindOpen {
		t.Fatalf("replayed %d records, first %q", len(recs), recs[0].Kind)
	}
	var op openRec
	if err := json.Unmarshal(recs[0].Body, &op); err != nil || !strings.HasPrefix(op.Design, "design d") {
		t.Fatalf("open body %s: %v", recs[0].Body, err)
	}
	var eds []editRec
	if err := json.Unmarshal(recs[2].Body, &eds); err != nil || eds[0].Inst != "g1" {
		t.Fatalf("edit body %s: %v", recs[2].Body, err)
	}
}

// TestTornTailDropsOnlyLastRecord simulates a crash mid-append: the intact
// prefix must replay, the torn line must be dropped.
func TestTornTailDropsOnlyLastRecord(t *testing.T) {
	m := newManager(t)
	w, err := m.Create("s1", openRec{Design: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(KindEdits, []editRec{{Op: "adjust", Inst: fmt.Sprintf("g%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := filepath.Join(m.dir, "s1.journal")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final line.
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := m.Read("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("torn journal replayed %d records, want 3", len(recs))
	}

	// Drop the torn line, then corrupt a byte inside the final intact
	// line's payload: the checksum must catch it.
	b, _ = os.ReadFile(path)
	b = b[:strings.LastIndexByte(string(b), '\n')+1]
	b[len(b)-3] ^= 0x20
	os.WriteFile(path, b, 0o644)
	recs, err = m.Read("s1")
	if err != nil || len(recs) != 2 {
		t.Fatalf("corrupt tail: %d records, %v; want 2, nil", len(recs), err)
	}
}

func TestReadRejectsEmptyAndHeaderless(t *testing.T) {
	m := newManager(t)
	if err := os.WriteFile(filepath.Join(m.dir, "bad.journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read("bad"); err == nil {
		t.Fatal("empty journal replayed")
	}
	if _, err := m.Read("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing journal: %v", err)
	}
}

func TestRemoveAndQuarantine(t *testing.T) {
	m := newManager(t)
	w, _ := m.Create("s1", openRec{})
	w.Close()
	if err := m.Quarantine("s1"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := m.Sessions(); len(ids) != 0 {
		t.Fatalf("quarantined journal still listed: %v", ids)
	}
	if _, err := os.Stat(filepath.Join(m.dir, "s1.journal.quarantined")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	w2, _ := m.Create("s2", openRec{})
	w2.Close()
	if err := m.Remove("s2"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("s2"); err != nil {
		t.Fatalf("double remove: %v", err)
	}
}

// TestRewriteCompactsAtomically replays a journal with a torn tail,
// rewrites it compactly, and checks: the compacted file replays to exactly
// the acknowledged records, the writer keeps appending to the final path,
// and no temporary file is left behind.
func TestRewriteCompactsAtomically(t *testing.T) {
	m := newManager(t)
	w, err := m.Create("s1", openRec{Design: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(KindEdits, []editRec{{Op: "adjust", Inst: fmt.Sprintf("g%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := filepath.Join(m.dir, "s1.journal")
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString(`deadbeef {"kind":"edits","se`)
	f.Close()

	recs, err := m.Read("s1")
	if err != nil || len(recs) != 3 {
		t.Fatalf("read: %d records, %v", len(recs), err)
	}
	var batches []json.RawMessage
	for _, r := range recs[1:] {
		batches = append(batches, r.Body)
	}
	w2, err := m.Rewrite("s1", json.RawMessage(recs[0].Body), batches)
	if err != nil {
		t.Fatal(err)
	}
	if w2.path != path {
		t.Fatalf("rewritten journal at %s, want %s", w2.path, path)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rewrite left its temp file: %v", err)
	}
	// The compacted journal replays identically and accepts new appends.
	if err := w2.Append(KindEdits, []editRec{{Op: "adjust", Inst: "g9"}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs2, err := m.Read("s1")
	if err != nil || len(recs2) != 4 {
		t.Fatalf("compacted read: %d records, %v; want 4", len(recs2), err)
	}
	if string(recs2[0].Body) != string(recs[0].Body) || string(recs2[1].Body) != string(recs[1].Body) {
		t.Fatal("compaction changed record bodies")
	}
}

// TestRewriteFailureKeepsOriginal injects an append fault into the rewrite
// and checks the original journal survives untouched — a failed (or
// crashed) compaction must never cost acknowledged records.
func TestRewriteFailureKeepsOriginal(t *testing.T) {
	failpoint.DisarmAll()
	t.Cleanup(failpoint.DisarmAll)
	m := newManager(t)
	w, err := m.Create("s1", openRec{Design: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindEdits, []editRec{{Op: "adjust", Inst: "g0"}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	before, err := os.ReadFile(filepath.Join(m.dir, "s1.journal"))
	if err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Arm("journal.append", "1*error(disk full)"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rewrite("s1", openRec{Design: "x"}, nil); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("rewrite under failpoint: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(m.dir, "s1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed rewrite modified the original journal")
	}
	if _, err := os.Stat(filepath.Join(m.dir, "s1.journal.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed rewrite left its temp file")
	}
}

// TestNewManagerSweepsStaleTemporaries plants a leftover compaction temp
// (crash mid-rewrite) and checks NewManager removes it without touching
// real journals.
func TestNewManagerSweepsStaleTemporaries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journals")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s1.journal.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s1.journal"), []byte("real"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "s1.journal.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale temp survived NewManager")
	}
	if _, err := os.Stat(filepath.Join(dir, "s1.journal")); err != nil {
		t.Fatalf("real journal removed by sweep: %v", err)
	}
}

// TestConcurrentAppends drives the group-commit barrier from many
// goroutines; with -race this is the journal's data-race check.
func TestConcurrentAppends(t *testing.T) {
	m := newManager(t)
	w, err := m.Create("s1", openRec{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- w.Append(KindEdits, []editRec{{Op: "adjust", Inst: fmt.Sprintf("g%d", i)}})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	recs, err := m.Read("s1")
	if err != nil || len(recs) != n+1 {
		t.Fatalf("replayed %d records, %v; want %d", len(recs), err, n+1)
	}
}

func TestAppendFailpoint(t *testing.T) {
	failpoint.DisarmAll()
	t.Cleanup(failpoint.DisarmAll)
	m := newManager(t)
	w, err := m.Create("s1", openRec{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := failpoint.Arm("journal.append", "1*error(disk full)"); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindEdits, []editRec{}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("append under failpoint: %v", err)
	}
	if err := w.Append(KindEdits, []editRec{}); err != nil {
		t.Fatalf("append after failpoint drained: %v", err)
	}
}
