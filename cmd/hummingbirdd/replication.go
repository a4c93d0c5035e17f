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
// whose primary is another replica — under <journal-dir>/standby. A
// standby is frames and nothing else: it is written push by push as the
// primary streams commits and, when the router orders an adopt after the
// primary dies or drains, promoted into the live journal directory and
// restored like a crash recovery. internal/journal does every file
// operation of both directories; these handlers check session ids and
// speak HTTP.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"

	"hummingbird/internal/fleet"
	"hummingbird/internal/journal"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/flight"
)

var (
	mFramesReceived  = telemetry.NewCounter("fleet.frames_received")
	mFramesRejected  = telemetry.NewCounter("fleet.frames_rejected")
	mSessionsAdopted = telemetry.NewCounter("fleet.sessions_adopted")
	mSessionsParked  = telemetry.NewCounter("fleet.sessions_parked")
)

// maxReplicationBody bounds one frames POST (a whole journal can arrive
// in one push during migration).
const maxReplicationBody = 64 << 20

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

// replicationID returns the session id a replication request names, or ""
// after answering: 503 when journaling is off, since there is nowhere to
// keep frames, and 400 for an id that could not name a session.
func (s *server) replicationID(w http.ResponseWriter, r *http.Request) string {
	if s.cfg.journal == nil {
		httpError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return ""
	}
	id := r.PathValue("id")
	if !sessionIDOK(id) {
		httpError(w, http.StatusBadRequest, "bad session id")
		return ""
	}
	return id
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
	primed, err := jw.Frames()
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
	id := s.replicationID(w, r)
	if id == "" {
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
	next, frames, err := s.cfg.journal.AppendStandby(id, firstSeq, body)
	switch {
	case errors.Is(err, journal.ErrSeqGap):
		writeJSON(w, http.StatusConflict, map[string]any{"session": id, "next": next})
	case err != nil:
		mFramesRejected.Inc()
		httpError(w, http.StatusUnprocessableEntity, "frame rejected: %v", err)
	default:
		mFramesReceived.Add(int64(frames))
		writeJSON(w, http.StatusOK, map[string]any{"session": id, "next": next})
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
	id := s.replicationID(w, r)
	if id == "" {
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
	if err := s.cfg.journal.Promote(id); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			httpError(w, http.StatusNotFound, "no journal for session %s on this replica", id)
			return
		}
		httpError(w, http.StatusInternalServerError, "promote standby %s: %v", id, err)
		return
	}
	// Claim the id before the replay: an id of this replica's own form (a
	// session coming home) must not be handed to an open meanwhile, which
	// would share its journal path.
	s.mu.Lock()
	s.claim(id)
	s.mu.Unlock()
	ss, err := s.restore(id)
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
	id := s.replicationID(w, r)
	if id == "" {
		return
	}
	if err := s.cfg.journal.ReleaseStandby(id); err != nil {
		httpError(w, http.StatusInternalServerError, "release standby %s: %v", id, err)
		return
	}
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
	standbys, err := s.cfg.journal.Standbys()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "list standbys: %v", err)
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
		if ms := s.streams.Get(ss.id); ms != nil {
			peers = ms.Peers()
		}
		serving = append(serving, map[string]any{
			"session": ss.id, "seq": seq, "key": key, "peers": peers,
		})
	}
	standby := make([]map[string]any, 0, len(standbys))
	for _, sb := range standbys {
		if !sessionIDOK(sb.Session) {
			continue
		}
		key := ""
		if sb.Open != nil {
			key = fleet.DesignKey(sb.Open)
		}
		standby = append(standby, map[string]any{"session": sb.Session, "next": sb.Next, "key": key})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replica": s.cfg.replicaID, "live": serving, "standby": standby,
	})
}

// handleReplForget removes the live-directory journal of a session that
// is not being served here (parked, then migrated away). Refuses while
// the session is live — that journal is the session's durability.
func (s *server) handleReplForget(w http.ResponseWriter, r *http.Request) {
	id := s.replicationID(w, r)
	if id == "" {
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
	id := s.replicationID(w, r)
	if id == "" {
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
	frames, err := s.cfg.journal.Export(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no journal for session %s: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Hb-Frames", strconv.Itoa(len(frames)))
	w.WriteHeader(http.StatusOK)
	w.Write(bytes.Join(frames, nil))
}
