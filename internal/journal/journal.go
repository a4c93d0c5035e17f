// Package journal is hummingbirdd's journal store: the append-only
// per-session edit journals that give it crash recovery, and the standby
// copies that let a peer take a session over. Every session-mutating
// operation (the open request, then each applied edit batch) is appended
// as one CRC-framed JSON record, and fsynced, before the response is
// acknowledged:
//
//	<crc32c-hex> SP {"kind":"open"|"edits","seq":N,"body":<caller JSON>} LF
//
// A journal replays to its intact prefix, the frames before the first
// one that is torn (no LF), fails its checksum, does not decode or is out
// of sequence; a crash mid-append leaves at most such a tail, and it was
// never acknowledged. docs/FORMATS.md, §6, has the grammar and the rules.
// This package is the only code that encodes or decodes a frame (one
// encoder, encodeFrame; one check, checkFrame; one scanner, scan) and the
// only code that touches a journal file: a Manager owns the live journals
// of one directory and, under standby/, the copies streamed from peers.
//
// Appends are group-committed: the record is written under the file lock,
// then AppendContext waits on a shared fsync barrier — concurrent
// appenders that land while another fsync is in flight share the next
// one. A standby push is one write and one fsync.
package journal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hummingbird/internal/failpoint"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
)

var (
	mAppends   = telemetry.NewCounter("journal.appends")
	mSyncs     = telemetry.NewCounter("journal.syncs")
	mReplays   = telemetry.NewCounter("journal.replays")
	mTornTails = telemetry.NewCounter("journal.torn_tails")
	tFsync     = telemetry.NewTimer("journal.fsync")
)

// lastFsyncNs holds the duration of the most recent journal fsync in
// nanoseconds (across all writers) — the fsync-lag gauge on the daemon's
// metrics surface. Updated whenever telemetry is enabled or the fsync
// happens inside a traced request.
var lastFsyncNs atomic.Int64

func init() {
	telemetry.NewGaugeFunc("journal.fsync_last_ns", func() float64 {
		return float64(lastFsyncNs.Load())
	})
}

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// stacks; any fixed table would do, this one is hardware-accelerated).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds.
const (
	KindOpen  = "open"
	KindEdits = "edits"
)

// A Sink receives a session's committed journal frames for replication.
// Commit is called with one or more complete frames, LF included,
// strictly in sequence order, and only after the frames are durable in
// the local journal (the group-commit fsync covering them has returned).
// The sink owns the frames it is handed. Delivery is serialized: Commit
// is never called concurrently for one writer. A sink must not block
// indefinitely — it runs on the request path between fsync and the HTTP
// response — and it owns its own retry/buffering policy; Commit has no
// error return because replication failure must degrade (lag grows),
// never poison the local session.
type Sink interface {
	Commit(frames [][]byte)
}

// Record is one replayed journal entry.
type Record struct {
	Kind string          `json:"kind"`
	Seq  int64           `json:"seq"`
	Body json.RawMessage `json:"body"`
}

// frameBuf is a frame under construction that encoding/json writes a
// body into, leaving room for one more byte: the frame's LF.
type frameBuf []byte

func (b *frameBuf) Write(p []byte) (int, error) {
	*b = append(slices.Grow(*b, len(p)+1), p...)
	return len(p), nil
}

const hexDigits = "0123456789abcdef"

// encodeFrame encodes one record into its frame in one buffer, the body
// encoded in place and the checksum filled in last: the bytes of
// json.Marshal of the Record (compact, HTML-escaped) framed by "%08x %s\n".
func encodeFrame(kind string, seq int64, body any) ([]byte, error) {
	if kind != KindOpen && kind != KindEdits { // the kind is copied unescaped
		return nil, fmt.Errorf("journal: unknown record kind %q", kind)
	}
	b := make(frameBuf, 0, 256)
	b = append(b, `00000000 {"kind":"`...)
	b = append(b, kind...)
	b = append(b, `","seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"body":`...)
	if err := json.NewEncoder(&b).Encode(body); err != nil {
		return nil, fmt.Errorf("journal: encode body: %w", err)
	}
	b[len(b)-1] = '}' // Encode ends the body with a LF
	b = append(b, '\n')
	crc := crc32.Checksum(b[9:len(b)-1], castagnoli)
	for i := 7; i >= 0; i-- {
		b[i] = hexDigits[crc&0xf]
		crc >>= 4
	}
	return b, nil
}

// checkFrame decodes line as frame seq of a journal: it must end in its
// LF, its checksum must cover its payload, the payload must decode to a
// record of sequence seq, and frame 0 must be the open record.
func checkFrame(line []byte, seq int64) (Record, error) {
	frame, ok := bytes.CutSuffix(line, []byte{'\n'})
	if !ok {
		return Record{}, fmt.Errorf("journal: frame %d has no LF", seq)
	}
	crcHex, payload, ok := bytes.Cut(frame, []byte{' '})
	if !ok {
		return Record{}, fmt.Errorf("journal: frame %d has no checksum separator", seq)
	}
	want, err := strconv.ParseUint(string(crcHex), 16, 32)
	if err != nil {
		return Record{}, fmt.Errorf("journal: frame %d: bad checksum %q", seq, crcHex)
	}
	if crc32.Checksum(payload, castagnoli) != uint32(want) {
		return Record{}, fmt.Errorf("journal: frame %d: checksum mismatch", seq)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("journal: frame %d: %w", seq, err)
	}
	if rec.Seq != seq {
		return Record{}, fmt.Errorf("journal: frame %d carries seq %d", seq, rec.Seq)
	}
	if seq == 0 && rec.Kind != KindOpen {
		return Record{}, fmt.Errorf("journal: frame 0 is %q, want %q", rec.Kind, KindOpen)
	}
	return rec, nil
}

// scan reads the journal at path and calls fn with each frame of its
// intact prefix — the line, LF included, in a buffer fn may keep, and its
// record — until fn returns false. bad is why it stopped at a frame that
// fails checkFrame, nil at the end of the file or when fn stopped it; err
// is an open or read error.
func scan(path string, fn func(line []byte, rec Record) bool) (bad, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	for seq := int64(0); ; seq++ {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 && rerr == io.EOF {
			return nil, nil
		}
		if rerr != nil && rerr != io.EOF {
			return nil, rerr
		}
		rec, cerr := checkFrame(line, seq)
		if cerr != nil {
			return cerr, nil
		}
		if !fn(line, rec) {
			return nil, nil
		}
	}
}

// readFrames returns the frames of the intact prefix of the file at path.
func readFrames(path string) ([][]byte, error) {
	var frames [][]byte
	_, err := scan(path, func(line []byte, _ Record) bool {
		frames = append(frames, line)
		return true
	})
	return frames, err
}

// Writer appends records to one session's journal file.
type Writer struct {
	mu   sync.Mutex // file writes + seq
	f    *os.File
	seq  int64
	path string

	// group-commit fsync barrier: writeGen counts records written,
	// syncGen records synced; an appender whose record is already
	// covered by a completed fsync skips its own.
	syncMu   sync.Mutex
	writeGen int64
	syncGen  int64

	// replication: frames written while a sink is set queue in pending
	// (under mu, so they carry sequence order) and are handed to the sink
	// after the fsync barrier, under sinkMu so delivery order matches
	// write order even when appenders race through the barrier.
	sinkMu  sync.Mutex
	sink    Sink
	pending [][]byte
}

// SetSink attaches (or, with nil, detaches) the replication sink. Frames
// appended from now on are delivered to it after they are durable;
// frames already in the file are the caller's to prime (see Frames).
// Callers attach the sink before the writer is visible to concurrent
// appenders.
func (w *Writer) SetSink(s Sink) {
	w.mu.Lock()
	w.sink = s
	w.mu.Unlock()
}

// deliver drains the pending frame queue into the sink, preserving
// order. Called after a successful barrier; a no-op without a sink.
func (w *Writer) deliver() {
	w.sinkMu.Lock()
	defer w.sinkMu.Unlock()
	w.mu.Lock()
	sink := w.sink
	frames := w.pending
	w.pending = nil
	w.mu.Unlock()
	if sink != nil && len(frames) > 0 {
		sink.Commit(frames)
	}
}

// Frames returns the frames the writer's file holds, LF included, for
// priming a replication stream. The caller keeps appends out while it
// reads.
func (w *Writer) Frames() ([][]byte, error) { return readFrames(w.path) }

// Manager owns a journal directory: the live journals, one file per
// session id, and the standby journals under standby/.
type Manager struct {
	dir, standby string

	// mu serializes standby mutations; next holds each standby's next
	// expected sequence, recovered from its file on first touch after a
	// restart, so a push costs O(frames pushed).
	mu   sync.Mutex
	next map[string]int64
}

// NewManager ensures the directory and its standby directory exist and
// returns a manager over them. Stale compaction temporaries (a crash
// mid-Rewrite) are removed: the original journal each was meant to
// replace is still intact.
func NewManager(dir string) (*Manager, error) {
	standby := filepath.Join(dir, "standby")
	if err := os.MkdirAll(standby, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".journal.tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return &Manager{dir: dir, standby: standby, next: make(map[string]int64)}, nil
}

// Path returns the on-disk path of the session's live journal (which may
// not exist yet).
func (m *Manager) Path(session string) string {
	return filepath.Join(m.dir, session+".journal")
}

func (m *Manager) standbyPath(session string) string {
	return filepath.Join(m.standby, session+".journal")
}

// Create starts a fresh journal for the session, writing (and syncing) the
// open record. An existing journal for the same id is truncated — the
// caller allocates ids that never collide with live sessions.
func (m *Manager) Create(session string, openBody any) (*Writer, error) {
	return create(m.Path(session), openBody, nil)
}

// Rewrite atomically replaces the session's journal with a compacted one —
// the open record plus the given acknowledged edit batches — and returns a
// writer appending to it. The compacted journal is assembled and fsynced in
// a temporary file and only then renamed over the original, so a crash (or
// an injected fault) at any point of the rewrite leaves either the old
// journal or the complete new one on disk, never neither; on error the
// original journal is untouched.
func (m *Manager) Rewrite(session string, openBody any, batches []json.RawMessage) (*Writer, error) {
	final := m.Path(session)
	w, err := create(final+".tmp", openBody, batches)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(w.path, final); err != nil {
		w.f.Close()
		os.Remove(w.path)
		return nil, fmt.Errorf("journal: rewrite %s: %w", session, err)
	}
	w.path = final
	syncDir(m.dir)
	return w, nil
}

// create writes a journal of the open record and batches at path, synced
// once after its last record, and returns a writer appending to it. On
// error nothing is left at path.
func create(path string, openBody any, batches []json.RawMessage) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f, path: path}
	_, err = w.write(KindOpen, openBody)
	for _, b := range batches {
		if err != nil {
			break
		}
		_, err = w.write(KindEdits, b)
	}
	if err == nil {
		err = w.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// syncDir fsyncs a directory so a just-completed rename or remove survives
// a power loss; best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// gone is err, or nil when err says the file was already gone.
func gone(err error) error {
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// Remove deletes the session's journal (normal close: the state is parked
// or discarded deliberately, so there is nothing left to replay).
func (m *Manager) Remove(session string) error { return gone(os.Remove(m.Path(session))) }

// Quarantine renames the session's journal aside (suffix ".quarantined")
// so a poisoned session's history survives for diagnosis without being
// replayed into the next process.
func (m *Manager) Quarantine(session string) error {
	return gone(os.Rename(m.Path(session), m.Path(session)+".quarantined"))
}

// Sessions lists the session ids with a live journal on disk, sorted.
func (m *Manager) Sessions() ([]string, error) { return sessions(m.dir) }

// sessions lists the ids of the journals in dir, sorted.
func sessions(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if id, ok := strings.CutSuffix(e.Name(), ".journal"); ok && e.Type().IsRegular() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Read replays the session's live journal: the records of its intact
// prefix, starting with the KindOpen record. A torn tail is dropped (it
// was never acknowledged) and counted in journal.torn_tails. Counts one
// journal.replays.
func (m *Manager) Read(session string) ([]Record, error) {
	var recs []Record
	bad, err := scan(m.Path(session), func(_ []byte, rec Record) bool {
		recs = append(recs, rec)
		return true
	})
	if bad != nil {
		mTornTails.Inc()
	}
	if err != nil {
		return recs, err
	}
	if len(recs) == 0 {
		if bad != nil {
			return nil, fmt.Errorf("journal %s: no intact records: %w", session, bad)
		}
		return nil, fmt.Errorf("journal %s: no intact records", session)
	}
	mReplays.Inc()
	return recs, nil
}

// Export returns the frames of the session's live journal, or of its
// standby when it has no live one, LF included.
func (m *Manager) Export(session string) ([][]byte, error) {
	frames, err := readFrames(m.Path(session))
	if errors.Is(err, os.ErrNotExist) {
		frames, err = readFrames(m.standbyPath(session))
	}
	return frames, err
}

// ErrSeqGap refuses a push that starts past the frames a standby holds:
// the primary resends from the next sequence AppendStandby returns.
var ErrSeqGap = errors.New("journal: push starts past the standby's next sequence")

// AppendStandby appends a push of streamed frames, the first of sequence
// firstSeq, to the session's standby journal. Frames it holds already are
// skipped (delivery is at least once); every other frame must pass
// checkFrame before any is written, in one write and one fsync. next is
// the standby's next expected sequence whatever the outcome; frames counts
// an accepted push's frames, held ones included. An empty push only
// reports next.
func (m *Manager) AppendStandby(session string, firstSeq int64, push []byte) (next int64, frames int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, err = m.standbyNext(session)
	if err != nil || len(push) == 0 {
		return next, 0, err
	}
	if firstSeq > next {
		return next, 0, ErrSeqGap
	}
	fresh := -1 // offset of the first frame not yet held
	seq := firstSeq
	for off := 0; off < len(push); seq++ {
		end := len(push)
		if i := bytes.IndexByte(push[off:], '\n'); i >= 0 {
			end = off + i + 1
		}
		if seq >= next {
			if fresh < 0 {
				fresh = off
			}
			if _, err := checkFrame(push[off:end], seq); err != nil {
				return next, 0, err
			}
		}
		off = end
		frames++
	}
	if fresh < 0 {
		return next, frames, nil
	}
	f, err := os.OpenFile(m.standbyPath(session), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return next, 0, err
	}
	_, err = f.Write(push[fresh:])
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// The file may end in part of the push: recount and cut it off
		// on the next touch.
		delete(m.next, session)
		return next, 0, err
	}
	m.next[session] = seq
	return seq, frames, nil
}

// standbyNext returns the session's next expected standby sequence. On
// first touch after a restart it counts the frames on disk and cuts off a
// torn tail, so the next push lands right after the last intact frame.
// A session without a standby is not remembered: probes of unknown ids
// leave nothing behind. Caller holds m.mu.
func (m *Manager) standbyNext(session string) (int64, error) {
	if n, ok := m.next[session]; ok {
		return n, nil
	}
	path := m.standbyPath(session)
	var n, size int64
	bad, err := scan(path, func(line []byte, _ Record) bool {
		n++
		size += int64(len(line))
		return true
	})
	switch {
	case errors.Is(err, os.ErrNotExist):
		return 0, nil
	case err != nil:
		return 0, err
	case bad != nil:
		if err := os.Truncate(path, size); err != nil {
			return 0, err
		}
	}
	m.next[session] = n
	return n, nil
}

// A Standby is one standby journal: its session, the frames it holds (its
// next expected sequence) and the body of frame 0, nil when it holds none.
type Standby struct {
	Session string
	Next    int64
	Open    json.RawMessage
}

// Standbys lists the standby journals, sorted by session id.
func (m *Manager) Standbys() ([]Standby, error) {
	ids, err := sessions(m.standby)
	if err != nil {
		return nil, err
	}
	out := make([]Standby, 0, len(ids))
	for _, id := range ids {
		m.mu.Lock()
		next, err := m.standbyNext(id)
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		sb := Standby{Session: id, Next: next}
		if next > 0 {
			// Frame 0 is never rewritten, so it reads without the lock; a
			// read that fails leaves Open nil, as for an empty standby.
			scan(m.standbyPath(id), func(_ []byte, rec Record) bool {
				sb.Open = rec.Body
				return false
			})
		}
		out = append(out, sb)
	}
	return out, nil
}

// ReleaseStandby drops the session's standby journal.
func (m *Manager) ReleaseStandby(session string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.next, session)
	return gone(os.Remove(m.standbyPath(session)))
}

// Promote renames the session's standby journal into the live directory
// for Read to restore, syncing both directories. A session with a live
// journal (parked here, then adopted back) keeps it. The error wraps
// os.ErrNotExist when the session has neither.
func (m *Manager) Promote(session string) error {
	live := m.Path(session)
	if _, err := os.Stat(live); err == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := os.Rename(m.standbyPath(session), live); err != nil {
		return err
	}
	delete(m.next, session)
	syncDir(m.standby)
	syncDir(m.dir)
	return nil
}

// AppendContext frames, writes and fsyncs one record. The record is
// durable when AppendContext returns nil; on a write or sync error the
// journal should be treated as dead (the daemon quarantines the session).
// When ctx carries a trace the write appears as a "journal.append" span
// with a "journal.fsync" child covering the group-commit barrier. The
// context is used only for tracing, never for cancellation — an append
// the caller initiated must reach the disk regardless of deadlines, or
// the journal would disagree with the acknowledged state. The record is
// encoded under the file lock, which fixes its sequence, and the sink is
// handed the frame that was written.
func (w *Writer) AppendContext(ctx context.Context, kind string, body any) error {
	ctx, sp := span.Start(ctx, "journal.append")
	defer sp.End()
	gen, err := w.write(kind, body)
	if err != nil {
		return err
	}
	if err := w.barrier(ctx, gen); err != nil {
		return err
	}
	w.deliver()
	return nil
}

// write frames and writes one record without syncing it, and returns its
// write generation, which a barrier makes durable.
func (w *Writer) write(kind string, body any) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := encodeFrame(kind, w.seq, body)
	if err == nil {
		err = failpoint.Hit("journal.append")
	}
	if err == nil {
		if _, werr := w.f.Write(frame); werr != nil {
			err = fmt.Errorf("journal: append: %w", werr)
		}
	}
	if err != nil {
		return 0, err
	}
	w.seq++
	w.writeGen++
	if w.sink != nil {
		w.pending = append(w.pending, frame)
	}
	mAppends.Inc()
	return w.writeGen, nil
}

// barrier is the group-commit fsync: returns once a sync covering write
// generation gen has completed, issuing one itself only if needed. The
// sync it issues is timed (histogram + fsync-lag gauge) when telemetry is
// on, and appears as a "journal.fsync" span when ctx carries a trace.
func (w *Writer) barrier(ctx context.Context, gen int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncGen >= gen {
		return nil // a concurrent appender's fsync already covered us
	}
	if err := failpoint.Hit("journal.sync"); err != nil {
		return err
	}
	w.mu.Lock()
	covered := w.writeGen
	w.mu.Unlock()
	_, sp := span.Start(ctx, "journal.fsync")
	instrument := telemetry.Enabled() || sp != nil
	var t0 time.Time
	if instrument {
		t0 = time.Now()
	}
	err := w.f.Sync()
	if instrument {
		d := time.Since(t0)
		lastFsyncNs.Store(d.Nanoseconds())
		tFsync.Observe(d)
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	mSyncs.Inc()
	w.syncGen = covered
	return nil
}

// Sync forces an fsync of everything appended so far (shutdown flush);
// any frames still queued for the replication sink are delivered.
func (w *Writer) Sync() error {
	w.mu.Lock()
	gen := w.writeGen
	w.mu.Unlock()
	if err := w.barrier(nil, gen); err != nil {
		return err
	}
	w.deliver()
	return nil
}

// Close syncs and closes the file; the journal stays on disk for replay.
func (w *Writer) Close() error {
	syncErr := w.Sync()
	if err := w.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// Seq returns the next sequence number the writer will append — equal to
// the count of records already in the file. The fleet's reconcile flow
// compares it across replicas to resolve double-claimed sessions.
func (w *Writer) Seq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}
