package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/fleet"
	"hummingbird/internal/journal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fuzzFrame builds one framed journal line the way journal.Writer does:
// "<crc32c-hex> <record-json>\n". Used only to seed the fuzz corpus with
// well-formed input so mutation starts from the interesting region.
func fuzzFrame(kind string, seq int64, body string) []byte {
	payload := fmt.Sprintf(`{"kind":%q,"seq":%d,"body":%s}`, kind, seq, body)
	return []byte(fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(payload), castagnoli), payload))
}

// FuzzStandbyAppend throws arbitrary replication pushes at the standby
// frames endpoint — the body and X-Hb-First-Seq a primary (or an attacker
// on the replication port) controls byte-for-byte. Invariants, regardless
// of input:
//
//   - no panic, and the reported next sequence never decreases;
//   - a push that is not accepted (409, 400, 422) never changes the file;
//   - the on-disk standby journal is always a fully intact frame sequence:
//     every line ends in its LF, passes its CRC-32C and carries its
//     position as seq, the journal package reads the whole file back, and
//     the frame count equals the reported next (no torn or skipped frames
//     are ever admitted).
func FuzzStandbyAppend(f *testing.F) {
	open := fuzzFrame(journal.KindOpen, 0, `{"design":"design d1\nend"}`)
	edit := fuzzFrame(journal.KindEdits, 1, `[{"op":"adjust","inst":"u1","delta":100}]`)
	f.Add(open, int64(0), edit, int64(1))
	f.Add(append(append([]byte{}, open...), edit...), int64(0), edit, int64(5))
	f.Add(edit, int64(1), open, int64(0))
	f.Add([]byte("00000000 {\"kind\":\"open\",\"seq\":0}"), int64(0), []byte("torn"), int64(-3))

	dir := f.TempDir()
	jm, err := journal.NewManager(dir)
	if err != nil {
		f.Fatal(err)
	}
	srv := newServer(celllib.Default(), serverConfig{journal: jm})
	var execs atomic.Int64
	f.Fuzz(func(t *testing.T, body1 []byte, seq1 int64, body2 []byte, seq2 int64) {
		// Each input streams to a session of its own.
		id := fmt.Sprintf("fz-s%d", execs.Add(1))
		path := filepath.Join(dir, "standby", id+".journal")
		defer jm.ReleaseStandby(id)
		prev := int64(0)
		for i, push := range []struct {
			body []byte
			seq  int64
		}{{body1, seq1}, {body2, seq2}} {
			before, _ := os.ReadFile(path)
			req := httptest.NewRequest("POST", "/v1/replication/sessions/"+id+"/frames", bytes.NewReader(push.body))
			req.SetPathValue("id", id)
			req.Header.Set(fleet.FirstSeqHeader, strconv.FormatInt(push.seq, 10))
			rec := httptest.NewRecorder()
			srv.handleReplFrames(rec, req)
			after, _ := os.ReadFile(path)
			if rec.Code != http.StatusOK && !bytes.Equal(before, after) {
				t.Fatalf("push %d answered %d but changed the journal: %d -> %d bytes", i, rec.Code, len(before), len(after))
			}
			frames := checkStandbyFile(t, after)
			if read, _ := jm.Export(id); !bytes.Equal(bytes.Join(read, nil), after) {
				t.Fatalf("push %d: the journal reads %d of the %d frames on disk", i, len(read), frames)
			}
			if rec.Code == http.StatusOK || rec.Code == http.StatusConflict {
				var m struct{ Next int64 }
				if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
					t.Fatalf("push %d: %d answer %q: %v", i, rec.Code, rec.Body, err)
				}
				if m.Next < prev {
					t.Fatalf("push %d: next went backwards: %d -> %d", i, prev, m.Next)
				}
				if m.Next != int64(frames) {
					t.Fatalf("push %d: reported next=%d but %d frames on disk", i, m.Next, frames)
				}
				prev = m.Next
			}
		}
	})
}

// checkStandbyFile checks a standby journal's bytes frame by frame,
// independently of the journal package, and returns the frame count.
func checkStandbyFile(t *testing.T, data []byte) int {
	t.Helper()
	n := 0
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			t.Fatalf("frame %d has no LF: %q", n, data)
		}
		crcHex, payload, _ := bytes.Cut(data[:i], []byte{' '})
		want, err := strconv.ParseUint(string(crcHex), 16, 32)
		if err != nil || crc32.Checksum(payload, castagnoli) != uint32(want) {
			t.Fatalf("frame %d fails its checksum: %q", n, data[:i])
		}
		var rec journal.Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Seq != int64(n) {
			t.Fatalf("frame %d decodes to seq %d: %v", n, rec.Seq, err)
		}
		data = data[i+1:]
		n++
	}
	return n
}
