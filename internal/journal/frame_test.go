package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// marshalFrame is the frame encoder journals were written with before the
// one-pass encoder: the body marshalled, wrapped in a marshalled Record,
// and framed by "%08x %s\n". Kept as the reference encodeFrame must match
// byte for byte.
func marshalFrame(t *testing.T, kind string, seq int64, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(Record{Kind: kind, Seq: seq, Body: raw})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.Checksum(payload, castagnoli), payload))
}

type openBody struct {
	Design      string            `json:"design"`
	Adjustments map[string]string `json:"adjustments,omitempty"`
}

type editBody struct {
	Op    string            `json:"op"`
	Inst  string            `json:"inst,omitempty"`
	Delta string            `json:"delta,omitempty"`
	Conns map[string]string `json:"conns,omitempty"`
}

// TestFrameBytesMatchRecordMarshal encodes records through encodeFrame and
// through a journal writer and compares them with the reference encoder:
// both kinds, bodies that need HTML and control escapes, bodies handed in
// already encoded (as Rewrite does), and a multi-megabyte open body.
func TestFrameBytesMatchRecordMarshal(t *testing.T) {
	var big strings.Builder
	for i := 0; big.Len() < 3<<20; i++ {
		fmt.Fprintf(&big, "inst g%d NAND2X1 A=n%d B=n<%d>&q Y=n%d # \"é\u2028\"\t\\\n", i, i, i+1, i+2)
	}
	cases := []struct {
		kind string
		body any
	}{
		{KindOpen, &openBody{Design: "design d<&>1\ninput a\nend\n", Adjustments: map[string]string{"g<1>": "1ns", "g&2": "-200ps"}}},
		{KindEdits, []editBody{{Op: "adjust", Inst: "g<2>", Delta: "9ns"}}},
		{KindEdits, []editBody{{Op: "add", Inst: "b\u2029", Conns: map[string]string{"A": "n>1", "Y": "n\x01"}}}},
		{KindEdits, json.RawMessage(`[{"op":"adjust","inst":"g\u003c2\u003e","delta":"9ns"}]`)},
		{KindEdits, json.RawMessage(" [ {\"op\" : \"x<y\"} ] ")},
		{KindEdits, []editBody{}},
		{KindEdits, nil},
		{KindOpen, &openBody{Design: big.String()}},
	}
	m := newManager(t)
	var want []byte
	var w *Writer
	for i, tc := range cases {
		seq := int64(i)
		ref := marshalFrame(t, tc.kind, seq, tc.body)
		got, err := encodeFrame(tc.kind, seq, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("case %d: encodeFrame\n%.200q\nwant\n%.200q", i, got, ref)
		}
		if i == 0 {
			if w, err = m.Create("s1", tc.body); err != nil {
				t.Fatal(err)
			}
		} else if err := w.Append(tc.kind, tc.body); err != nil {
			t.Fatal(err)
		}
		want = append(want, ref...)
	}
	w.Close()
	if got, _ := os.ReadFile(m.Path("s1")); !bytes.Equal(got, want) {
		t.Fatal("the writer's file differs from the reference frames")
	}
	if _, err := encodeFrame("close", 0, nil); err == nil {
		t.Fatal("encoded a record of an unknown kind")
	}
}

// TestJournalsWrittenBeforeReplay reads a live journal (with a torn tail)
// and a standby journal written by the encoder and standby store before
// the journal package owned standbys (commit a6974e0), and checks they
// replay to the records and frames that code read from them
// (testdata/replay.json).
func TestJournalsWrittenBeforeReplay(t *testing.T) {
	var golden struct {
		LiveRecords   []Record `json:"live_records"`
		LiveFrames    []string `json:"live_frames"`
		StandbyFrames []string `json:"standby_frames"`
		StandbyNext   int64    `json:"standby_next"`
		StandbyOpen   Record   `json:"standby_open"`
	}
	b, err := os.ReadFile("testdata/replay.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	const id = "r2-s7"
	m := newManager(t)
	copyFile(t, "testdata/r2-s7.journal", m.Path(id))
	copyFile(t, "testdata/standby-r2-s7.journal", m.standbyPath(id))

	recs, err := m.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	// replay.json is indented, bodies included.
	for i := range golden.LiveRecords {
		golden.LiveRecords[i].Body = compact(t, golden.LiveRecords[i].Body)
	}
	golden.StandbyOpen.Body = compact(t, golden.StandbyOpen.Body)
	if !reflect.DeepEqual(recs, golden.LiveRecords) {
		t.Fatalf("live journal replays to\n%q\nwant\n%q", recs, golden.LiveRecords)
	}
	exportIs(t, m, id, golden.LiveFrames)

	sbs, err := m.Standbys()
	if err != nil {
		t.Fatal(err)
	}
	if len(sbs) != 1 || sbs[0].Session != id || sbs[0].Next != golden.StandbyNext ||
		!bytes.Equal(sbs[0].Open, golden.StandbyOpen.Body) {
		t.Fatalf("standbys %+v, want %s holding %d frames", sbs, id, golden.StandbyNext)
	}
	// The standby exports once the live journal is gone, and promotes to
	// a live journal that replays to the frames it holds.
	if err := m.Remove(id); err != nil {
		t.Fatal(err)
	}
	exportIs(t, m, id, golden.StandbyFrames)
	if err := m.Promote(id); err != nil {
		t.Fatal(err)
	}
	if recs, err = m.Read(id); err != nil || len(recs) != len(golden.StandbyFrames) {
		t.Fatalf("promoted standby replays %d records, %v", len(recs), err)
	}
	for i, rec := range recs {
		if want := golden.StandbyFrames[i]; !strings.HasSuffix(want, string(rec.Body)+"}\n") {
			t.Fatalf("promoted record %d body %s, frame %q", i, rec.Body, want)
		}
	}
	if sbs, _ := m.Standbys(); len(sbs) != 0 {
		t.Fatalf("promoted standby still listed: %+v", sbs)
	}
}

func compact(t *testing.T, b []byte) json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func exportIs(t *testing.T, m *Manager, id string, want []string) {
	t.Helper()
	frames, err := m.Export(id)
	if got := string(join(frames...)); err != nil || len(frames) != len(want) || got != strings.Join(want, "") {
		t.Fatalf("export: %d frames, %v:\n%s\nwant %d frames:\n%s", len(frames), err, got, len(want), strings.Join(want, ""))
	}
}

// TestReadRequiresLF: a final record without its LF is a torn write, never
// acknowledged, so it does not replay.
func TestReadRequiresLF(t *testing.T) {
	m := newManager(t)
	w, err := m.Create("s1", openRec{Design: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindEdits, []editRec{{Op: "adjust", Inst: "g1"}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	b, _ := os.ReadFile(m.Path("s1"))
	os.WriteFile(m.Path("s1"), b[:len(b)-1], 0o644)
	if recs, err := m.Read("s1"); err != nil || len(recs) != 1 {
		t.Fatalf("journal ending without its LF replays %d records, %v; want 1", len(recs), err)
	}
}

// frames builds n well-formed frames: the open record, then edits.
func frames(t *testing.T, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		kind, body := KindEdits, any([]editRec{{Op: "adjust", Inst: fmt.Sprintf("g%d", i)}})
		if i == 0 {
			kind, body = KindOpen, openRec{Design: "design d\nend\n"}
		}
		out[i] = marshalFrame(t, kind, int64(i), body)
	}
	return out
}

func join(fs ...[]byte) []byte { return bytes.Join(fs, nil) }

// TestAppendStandby drives the standby store through the at-least-once
// append: held prefixes are skipped, a gap is refused with the next
// sequence, every frame is checked before any is written, frame 0 must be
// the open record, and a torn push changes nothing.
func TestAppendStandby(t *testing.T) {
	fr := frames(t, 5)
	m := newManager(t)
	const id = "r1-s1"
	file := func() []byte { b, _ := os.ReadFile(m.standbyPath(id)); return b }
	push := func(first int64, body []byte) (int64, int, error) {
		t.Helper()
		return m.AppendStandby(id, first, body)
	}

	if next, n, err := push(0, nil); next != 0 || n != 0 || err != nil || len(m.next) != 0 {
		t.Fatalf("empty push to no standby: %d %d %v, %d remembered", next, n, err, len(m.next))
	}
	if _, _, err := push(0, fr[1]); err == nil {
		t.Fatal("admitted an edits record as frame 0")
	}
	if _, _, err := push(0, fr[0][:len(fr[0])-1]); err == nil {
		t.Fatal("admitted a frame without its LF")
	}
	if next, _, err := push(1, fr[1]); !errors.Is(err, ErrSeqGap) || next != 0 {
		t.Fatalf("push past the held frames: next %d, %v", next, err)
	}
	if len(file()) != 0 {
		t.Fatal("refused pushes wrote the standby")
	}
	if next, n, err := push(0, join(fr[0], fr[1])); next != 2 || n != 2 || err != nil {
		t.Fatalf("push 0..1: %d %d %v", next, n, err)
	}
	// A resend of the held prefix with new frames appends only the new.
	if next, n, err := push(1, join(fr[1], fr[2], fr[3])); next != 4 || n != 3 || err != nil {
		t.Fatalf("push 1..3: %d %d %v", next, n, err)
	}
	if next, _, err := push(0, fr[0]); next != 4 || err != nil {
		t.Fatalf("push of a held frame: %d %v", next, err)
	}
	// A corrupt frame after a good one: neither is written.
	bad := bytes.Clone(fr[4])
	bad[12] ^= 1
	before := file()
	if _, _, err := push(4, join(fr[4], bad)); err == nil {
		t.Fatal("admitted a corrupt frame")
	}
	if !bytes.Equal(file(), before) {
		t.Fatal("a refused push wrote part of itself")
	}
	if want := join(fr[:4]...); !bytes.Equal(file(), want) {
		t.Fatalf("standby holds\n%s\nwant\n%s", file(), want)
	}

	// After a restart the next sequence is recovered from the file, and a
	// torn tail from a write cut short is cut off before the next push.
	f, _ := os.OpenFile(m.standbyPath(id), os.O_APPEND|os.O_WRONLY, 0)
	f.Write(fr[4][:20])
	f.Close()
	m2, err := NewManager(m.dir)
	if err != nil {
		t.Fatal(err)
	}
	if next, _, err := m2.AppendStandby(id, 4, fr[4]); next != 5 || err != nil {
		t.Fatalf("push after a restart over a torn tail: %d %v", next, err)
	}
	if got, _ := m2.Export(id); !bytes.Equal(join(got...), join(fr...)) {
		t.Fatalf("standby after the restart exports %d frames", len(got))
	}
	if err := m2.ReleaseStandby(id); err != nil {
		t.Fatal(err)
	}
	if next, _, _ := m2.AppendStandby(id, 0, nil); next != 0 || len(file()) != 0 {
		t.Fatal("released standby still holds frames")
	}
}

// TestPromote moves a standby into the live directory, keeps a live
// journal that is already there, and reports a session with neither.
func TestPromote(t *testing.T) {
	fr := frames(t, 2)
	m := newManager(t)
	if err := m.Promote("r1-s1"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("promote with no journal: %v", err)
	}
	if _, _, err := m.AppendStandby("r1-s1", 0, join(fr...)); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote("r1-s1"); err != nil {
		t.Fatal(err)
	}
	if recs, err := m.Read("r1-s1"); err != nil || len(recs) != 2 {
		t.Fatalf("promoted journal replays %d records, %v", len(recs), err)
	}
	if _, err := os.Stat(m.standbyPath("r1-s1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("promote left the standby behind")
	}
	// A parked session's live journal wins over a standby of it.
	if _, _, err := m.AppendStandby("r1-s1", 0, fr[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote("r1-s1"); err != nil {
		t.Fatal(err)
	}
	if recs, _ := m.Read("r1-s1"); len(recs) != 2 {
		t.Fatalf("promote replaced a live journal: %d records", len(recs))
	}
	if ids, _ := m.Sessions(); !reflect.DeepEqual(ids, []string{"r1-s1"}) {
		t.Fatalf("live sessions %v", ids)
	}
	if _, err := os.Stat(filepath.Join(m.dir, "standby")); err != nil {
		t.Fatalf("no standby directory: %v", err)
	}
}

// TestNewManagerNeedsStandbyDir: a journal directory whose standby
// directory cannot be made is refused, like one that cannot be made
// itself, so a daemon never runs half journaled.
func TestNewManagerNeedsStandbyDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "standby"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(dir); err == nil {
		t.Fatal("NewManager accepted a directory whose standby/ is a file")
	}
}
