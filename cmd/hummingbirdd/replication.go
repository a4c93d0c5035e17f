// Fleet replication endpoints: this file is the daemon side of
// internal/fleet's journal streaming and hot failover.
//
//	POST /v1/replication/sessions/{id}/frames   append streamed frames to a standby journal
//	POST /v1/replication/sessions/{id}/adopt    promote a standby (or parked) journal to a live session
//	POST /v1/replication/sessions/{id}/release  drop a standby journal
//	POST /v1/replication/sessions/{id}/forget   drop a parked session's live journal (post-migration)
//	POST /v1/sessions/{id}/park                 park a live session, keep its journal (migration step 1)
//	GET  /v1/sessions/{id}/journal              export a session's framed journal bytes
//
// A replica holds standby journals — byte-identical copies of sessions
// whose primary is another replica — under <journal-dir>/standby. They
// are written frame-at-a-time as the primary streams commits, and are
// promoted into the live journal directory (rename + replay) when the
// router orders an adopt after the primary dies or drains.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hummingbird/internal/fleet"
	"hummingbird/internal/incremental"
	"hummingbird/internal/journal"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/flight"
)

var (
	mFramesReceived  = telemetry.NewCounter("fleet.frames_received")
	mFramesRejected  = telemetry.NewCounter("fleet.frames_rejected")
	mSessionsAdopted = telemetry.NewCounter("fleet.sessions_adopted")
	mSessionsParked  = telemetry.NewCounter("fleet.sessions_parked")
	mStandbyWarms    = telemetry.NewCounter("fleet.standby_warms")
)

// maxReplicationBody bounds one frames POST (a whole journal can arrive
// in one push during migration).
const maxReplicationBody = 64 << 20

// standbyStore owns the standby journals replicated from peers. It
// tracks each file's next expected sequence in memory (recovered lazily
// from the file itself after a restart) so appends stay O(frame), and
// serializes all mutations under one mutex — replication throughput is
// bounded by the network, not this lock.
type standbyStore struct {
	dir  string
	mu   sync.Mutex
	next map[string]int64
}

func newStandbyStore(journalDir string) (*standbyStore, error) {
	dir := filepath.Join(journalDir, "standby")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("standby dir: %w", err)
	}
	return &standbyStore{dir: dir, next: make(map[string]int64)}, nil
}

func (st *standbyStore) path(id string) string {
	return filepath.Join(st.dir, id+".journal")
}

// loadNext returns the next expected sequence for the session's standby
// journal; on first touch after a restart it recounts the intact frames
// on disk. Caller holds st.mu.
func (st *standbyStore) loadNext(id string) int64 {
	if n, ok := st.next[id]; ok {
		return n
	}
	frames, err := journal.ReadFrames(st.path(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		// Unreadable standby: treat as empty; the primary will re-push
		// from sequence 0.
		frames = nil
	}
	st.next[id] = int64(len(frames))
	return st.next[id]
}

// appendFrames validates and appends streamed frames. firstSeq is the
// sequence of frames[0]. Frames the standby already holds are skipped
// (at-least-once delivery); a gap returns conflict=true with the
// sequence the primary must resend from. The returned next is always
// the standby's next expected sequence.
func (st *standbyStore) appendFrames(id string, frames [][]byte, firstSeq int64) (next int64, conflict bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	next = st.loadNext(id)
	if firstSeq > next {
		return next, true, nil
	}
	skip := next - firstSeq
	if skip >= int64(len(frames)) {
		return next, false, nil // everything already held
	}
	fresh := frames[skip:]
	for i, fr := range fresh {
		seq := next + int64(i)
		kind, cerr := journal.CheckFrame(fr, seq)
		if cerr != nil {
			return next, false, cerr
		}
		if seq == 0 && kind != journal.KindOpen {
			return next, false, fmt.Errorf("first frame kind %q, want %q", kind, journal.KindOpen)
		}
	}
	f, err := os.OpenFile(st.path(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return next, false, err
	}
	defer f.Close()
	if _, err := f.Write(bytes.Join(fresh, nil)); err != nil {
		return next, false, err
	}
	if err := f.Sync(); err != nil {
		return next, false, err
	}
	next += int64(len(fresh))
	st.next[id] = next
	return next, false, nil
}

// release drops the session's standby journal.
func (st *standbyStore) release(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.next, id)
	os.Remove(st.path(id))
}

// sessionIDs lists the sessions with a standby journal on disk, sorted.
func (st *standbyStore) sessionIDs() []string {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	ids := make([]string, 0, len(ents))
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".journal"); ok && sessionIDOK(name) {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids
}

// promote moves the standby journal into the live journal location so
// the ordinary replay path can restore the session. Returns
// os.ErrNotExist when there is no standby for the id.
func (st *standbyStore) promote(id, livePath string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := os.Rename(st.path(id), livePath); err != nil {
		return err
	}
	delete(st.next, id)
	// Best-effort directory syncs: the rename must survive a crash or
	// the session would silently vanish from both places.
	for _, d := range []string{st.dir, filepath.Dir(livePath)} {
		if dh, err := os.Open(d); err == nil {
			dh.Sync()
			dh.Close()
		}
	}
	return nil
}

// sessionIDOK guards replication ids that arrive over the network and
// become file names: the daemon's own id alphabet plus '-' (replica
// prefixes), nothing that can traverse paths.
func sessionIDOK(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// splitFrames cuts a replication body into newline-terminated frames.
func splitFrames(body []byte) [][]byte {
	var frames [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			frames = append(frames, body) // torn tail; CheckFrame rejects it
			break
		}
		frames = append(frames, body[:i+1])
		body = body[i+1:]
	}
	return frames
}

// attachStreams wires a session's journal writer to its replication
// chain: one stream per peer, each primed with every frame already in
// the file, fanned out behind one journal sink. Callers hold the
// session's lock, so no append can race it and no committed frame can
// fall between the priming read and the sink attach. The initial flush
// happens off the request path.
func (s *server) attachStreams(id string, jw *journal.Writer, peers []fleet.Member) {
	if s.streams == nil || jw == nil || len(peers) == 0 {
		return
	}
	primed, err := journal.ReadFrames(jw.Path())
	if err != nil {
		fmt.Fprintf(s.cfg.errLog, "hummingbirdd: prime stream %s: %v\n", id, err)
		return
	}
	hops := make([]*fleet.SessionStream, 0, len(peers))
	for _, p := range peers {
		h := fleet.NewSessionStream(s.streamClient, strings.TrimRight(p.URL, "/"), p.ID, id, primed)
		h.SetFlightRecorder(s.flight)
		hops = append(hops, h)
	}
	ms := fleet.NewMultiStream(hops...)
	jw.SetSink(ms)
	s.streams.Attach(id, ms)
	go ms.Flush()
}

// handleReplFrames appends streamed journal frames to the session's
// standby journal. Responses always carry the standby's next expected
// sequence: 200 when the push is (now) fully held, 409 on a gap the
// primary must refill.
func (s *server) handleReplFrames(w http.ResponseWriter, r *http.Request) {
	if s.standby == nil {
		httpError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return
	}
	id := r.PathValue("id")
	if !sessionIDOK(id) {
		httpError(w, http.StatusBadRequest, "bad session id")
		return
	}
	firstSeq, err := strconv.ParseInt(r.Header.Get(fleet.FirstSeqHeader), 10, 64)
	if err != nil || firstSeq < 0 {
		httpError(w, http.StatusBadRequest, "missing or bad %s header", fleet.FirstSeqHeader)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicationBody))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "read frames: %v", err)
		return
	}
	frames := splitFrames(body)
	if len(frames) == 0 {
		st := s.standby
		st.mu.Lock()
		next := st.loadNext(id)
		st.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"session": id, "next": next})
		return
	}
	next, conflict, err := s.standby.appendFrames(id, frames, firstSeq)
	switch {
	case err != nil:
		mFramesRejected.Inc()
		httpError(w, http.StatusUnprocessableEntity, "frame rejected: %v", err)
	case conflict:
		writeJSON(w, http.StatusConflict, map[string]any{"session": id, "next": next})
	default:
		mFramesReceived.Add(int64(len(frames)))
		if firstSeq == 0 && next > 0 {
			// A push that began at the open record: pre-warm the shared
			// compile off the request path, so an adopt after the primary
			// dies skips the cold elaboration.
			go s.warmStandby(id, frames[0])
		}
		writeJSON(w, http.StatusOK, map[string]any{"session": id, "next": next})
	}
}

// warmStandby pre-warms the shared CompiledDesign named by a standby
// journal's open frame, holding one compile-cache reference in s.warm
// until the standby is adopted or released. One warm attempt per
// standby: concurrent re-pushes of frame 0 are deduplicated by the
// reservation entry.
func (s *server) warmStandby(id string, frame0 []byte) {
	s.warmMu.Lock()
	_, held := s.warm[id]
	if !held {
		s.warm[id] = nil // reserve the slot while the compile runs
	}
	s.warmMu.Unlock()
	if held {
		return
	}
	release := s.buildWarm(frame0)
	s.warmMu.Lock()
	if _, still := s.warm[id]; still && release != nil {
		s.warm[id] = release
		s.warmMu.Unlock()
		return
	}
	if release == nil {
		delete(s.warm, id) // failed warm; a later frame-0 push may retry
		s.warmMu.Unlock()
		return
	}
	// The standby was adopted or released while compiling; drop the hold.
	s.warmMu.Unlock()
	release()
}

// buildWarm resolves a compile-cache hold for the design in an open
// frame: an existing cached compile is referenced, otherwise the design
// is compiled once and published. Returns nil when the frame does not
// yield a usable design.
func (s *server) buildWarm(frame0 []byte) func() {
	rec, err := journal.ParseFrame(frame0)
	if err != nil || rec.Kind != journal.KindOpen {
		return nil
	}
	var req openRequest
	if json.Unmarshal(rec.Body, &req) != nil {
		return nil
	}
	design, opts, err := s.parseOpen(&req)
	if err != nil {
		return nil
	}
	key := incremental.StateKey(design, opts.Adjustments)
	if cd, release := s.compile.acquire(key); cd != nil {
		mStandbyWarms.Inc()
		return release
	}
	eng, err := incremental.Open(s.lib, design, opts)
	if err != nil {
		return nil
	}
	// Only the immutable CompiledDesign matters; the throwaway engine's
	// analysis state is dropped with it.
	if release, ok := s.compile.publish(key, eng.CompiledDesign()); ok {
		mStandbyWarms.Inc()
		return release
	}
	if _, release := s.compile.acquire(key); release != nil {
		// A racing open published first; hold a reference on that one.
		mStandbyWarms.Inc()
		return release
	}
	return nil
}

// dropWarm releases the session's warm compile hold, if any.
func (s *server) dropWarm(id string) {
	s.warmMu.Lock()
	release := s.warm[id]
	delete(s.warm, id)
	s.warmMu.Unlock()
	if release != nil {
		release()
	}
}

// handleReplAdopt promotes a session onto this replica: from its
// streamed standby journal (failover), or from a live-directory journal
// left by park (migration rollback / drain hand-off). The journal is
// replayed and compacted exactly like crash recovery, so the adopted
// session's analysis state is bit-identical to a single-replica replay
// of the same journal. Idempotent: adopting a session this replica
// already serves reports already=true.
func (s *server) handleReplAdopt(w http.ResponseWriter, r *http.Request) {
	if s.cfg.journal == nil || s.standby == nil {
		httpError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return
	}
	id := r.PathValue("id")
	if !sessionIDOK(id) {
		httpError(w, http.StatusBadRequest, "bad session id")
		return
	}
	// Serialize adopts: two racing adopts for one id must not both replay.
	s.adoptMu.Lock()
	defer s.adoptMu.Unlock()
	if ss := s.session(id); ss != nil {
		writeJSON(w, http.StatusOK, map[string]any{"session": id, "adopted": false, "already": true})
		return
	}
	if diag, quarantined := s.quarantineInfo(id); quarantined {
		httpError(w, http.StatusConflict, "session %s quarantined here: %s", id, diag)
		return
	}
	livePath := s.cfg.journal.Path(id)
	if _, err := os.Stat(livePath); err != nil {
		if err := s.standby.promote(id, livePath); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				httpError(w, http.StatusNotFound, "no journal for session %s on this replica", id)
				return
			}
			httpError(w, http.StatusInternalServerError, "promote standby %s: %v", id, err)
			return
		}
	}
	// Claim the id before the replay: an id of this replica's own form (a
	// session coming home) must not be handed to an open meanwhile, which
	// would share its journal path.
	s.mu.Lock()
	s.claim(id)
	s.mu.Unlock()
	ss, err := s.restore(id)
	// The warm compile hold served its purpose: a replay acquired its own
	// reference, and a failed one set the promoted journal aside.
	s.dropWarm(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "adopt %s: %v", id, err)
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if err := s.admit(ss, true); err != nil {
		s.retire(ss, keepJournal, "")
		refuseAdmission(w, err)
		return
	}
	// Onward replication toward the chain the router designated.
	s.attachStreams(id, ss.jw, fleet.ParsePeers(r.Header))
	records := ss.jw.Seq()
	mSessionsAdopted.Inc()
	fmt.Fprintf(s.cfg.errLog, "hummingbirdd: adopted session %s (%d records)\n", id, records)
	s.flight.Record(flight.Info, "repl.adopt", id, inboundTraceID(r), "adopted (%d records)", records)
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "adopted": true, "records": records})
}

// handleReplRelease drops the session's standby journal (the session
// closed, or re-homed so this replica is no longer its peer).
func (s *server) handleReplRelease(w http.ResponseWriter, r *http.Request) {
	if s.standby == nil {
		httpError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return
	}
	id := r.PathValue("id")
	if !sessionIDOK(id) {
		httpError(w, http.StatusBadRequest, "bad session id")
		return
	}
	s.standby.release(id)
	s.dropWarm(id)
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "released": true})
}

// handleReplInventory reports everything this replica holds for the
// fleet: live sessions — with design key, journal sequence, and active
// stream peers — and standby journals with their contiguous frame
// count. A restarted router rebuilds its whole pin table from these.
func (s *server) handleReplInventory(w http.ResponseWriter, r *http.Request) {
	if s.cfg.journal == nil {
		httpError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return
	}
	serving := make([]map[string]any, 0)
	for _, ss := range s.sessionsByID() {
		if !ss.live() {
			continue
		}
		var seq int64
		if ss.jw != nil {
			seq = ss.jw.Seq()
		}
		key := ss.designKey
		ss.mu.Unlock()
		var peers []string
		if s.streams != nil {
			if ms := s.streams.Get(ss.id); ms != nil {
				peers = ms.Peers()
			}
		}
		serving = append(serving, map[string]any{
			"session": ss.id, "seq": seq, "key": key, "peers": peers,
		})
	}
	standby := make([]map[string]any, 0)
	if st := s.standby; st != nil {
		for _, id := range st.sessionIDs() {
			st.mu.Lock()
			next := st.loadNext(id)
			st.mu.Unlock()
			key := ""
			if frames, err := journal.ReadFrames(st.path(id)); err == nil && len(frames) > 0 {
				if rec, rerr := journal.ParseFrame(frames[0]); rerr == nil && rec.Kind == journal.KindOpen {
					key = fleet.DesignKey(rec.Body)
				}
			}
			standby = append(standby, map[string]any{"session": id, "next": next, "key": key})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replica": s.cfg.replicaID, "live": serving, "standby": standby,
	})
}

// handleReplForget removes the live-directory journal of a session that
// is not being served here (parked, then migrated away). Refuses while
// the session is live — that journal is the session's durability.
func (s *server) handleReplForget(w http.ResponseWriter, r *http.Request) {
	if s.cfg.journal == nil {
		httpError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return
	}
	id := r.PathValue("id")
	if !sessionIDOK(id) {
		httpError(w, http.StatusBadRequest, "bad session id")
		return
	}
	if ss := s.session(id); ss != nil {
		httpError(w, http.StatusConflict, "session %s is live on this replica", id)
		return
	}
	if err := s.cfg.journal.Remove(id); err != nil {
		httpError(w, http.StatusInternalServerError, "remove journal %s: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "forgotten": true})
}

// handlePark closes a session's live serving state while keeping its
// journal on disk: the engine is released (same as close), the
// replication streams are flushed and detached, and the response reports
// each chain hop's residual lag ("hops") so the router knows whether that
// peer's standby is complete. Step one of a planned migration.
func (s *server) handlePark(w http.ResponseWriter, r *http.Request) {
	ss := s.sessionFor(w, r)
	if ss == nil {
		return
	}
	defer ss.mu.Unlock()
	// Unlike close, the journal file stays: it is the session's truth for
	// the adopt that follows.
	hops := s.retire(ss, keepJournal, "")
	mSessionsParked.Inc()
	lag := 0
	for _, h := range hops {
		lag = max(lag, h.Lag)
	}
	s.flight.Record(flight.Info, "session.park", ss.id, inboundTraceID(r), "parked (stream lag %d)", lag)
	writeJSON(w, http.StatusOK, map[string]any{"session": ss.id, "hops": hops})
}

// handleJournalExport serves the session's framed journal bytes — live
// journal first (flushed before reading), then standby. The router uses
// it to hand a lagging or unstreamed journal to a migration target.
func (s *server) handleJournalExport(w http.ResponseWriter, r *http.Request) {
	if s.cfg.journal == nil {
		httpError(w, http.StatusServiceUnavailable, "journaling is off")
		return
	}
	id := r.PathValue("id")
	if !sessionIDOK(id) {
		httpError(w, http.StatusBadRequest, "bad session id")
		return
	}
	if ss := s.session(id); ss != nil {
		ss.mu.Lock()
		jw := ss.jw
		ss.mu.Unlock()
		if jw != nil {
			jw.Sync()
		}
	}
	frames, err := journal.ReadFrames(s.cfg.journal.Path(id))
	if errors.Is(err, os.ErrNotExist) && s.standby != nil {
		frames, err = journal.ReadFrames(s.standby.path(id))
	}
	if err != nil {
		httpError(w, http.StatusNotFound, "no journal for session %s: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Hb-Frames", strconv.Itoa(len(frames)))
	w.WriteHeader(http.StatusOK)
	w.Write(bytes.Join(frames, nil))
}
