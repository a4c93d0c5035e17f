package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/flight"
)

var (
	mStreamFramesSent = telemetry.NewCounter("fleet.stream_frames_sent")
	mStreamAcks       = telemetry.NewCounter("fleet.stream_acks")
	mStreamErrors     = telemetry.NewCounter("fleet.stream_errors")
	mStreamRealigns   = telemetry.NewCounter("fleet.stream_realigns")
)

// FirstSeqHeader carries the sequence number of the first frame in a
// replication POST body. PeersHeader carries the session's replication
// chain as "id=url,id=url,..." in ring order.
const (
	FirstSeqHeader = "X-Hb-First-Seq"
	PeersHeader    = "X-Hb-Peers"
)

// FormatPeers renders a replication chain for the PeersHeader.
func FormatPeers(peers []Member) string {
	parts := make([]string, 0, len(peers))
	for _, p := range peers {
		if p.ID == "" || p.URL == "" {
			continue
		}
		parts = append(parts, p.ID+"="+p.URL)
	}
	return strings.Join(parts, ",")
}

// ParsePeers decodes a replication chain from the PeersHeader. Malformed
// entries are dropped rather than failing the request — a session with a
// short (or empty) chain still serves.
func ParsePeers(h http.Header) []Member {
	var out []Member
	for _, part := range strings.Split(h.Get(PeersHeader), ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			continue
		}
		out = append(out, Member{ID: id, URL: url})
	}
	return out
}

// framesPath is the replication endpoint for a session on a replica.
func framesPath(session string) string {
	return "/v1/replication/sessions/" + session + "/frames"
}

// Conflict-realign backoff: the first 409 in a flush realigns and
// retries immediately (the common catch-up case), but a second
// consecutive conflict means the peer and primary disagree persistently
// — further attempts back off exponentially instead of hot-looping on
// the request path.
const (
	conflictBackoffBase = 50 * time.Millisecond
	conflictBackoffCap  = 5 * time.Second
)

// SessionStream replicates one session's journal frames to a peer
// replica's standby endpoint. It implements journal.Sink: Commit is
// called by the journal writer after each group-commit fsync with the
// freshly durable frames, pushes everything unacknowledged to the peer
// and waits for the ack — so in the healthy path a client-acknowledged
// edit is on two machines before the HTTP response leaves the primary.
// When the peer is unreachable the frames stay buffered (Lag grows, the
// error is counted) and every later Commit or Flush retries the whole
// backlog; replication degrades, the session keeps serving.
type SessionStream struct {
	client  *http.Client
	peerURL string // peer base URL, no trailing slash
	peerID  string
	session string

	mu     sync.Mutex
	base   int64 // sequence number of buf[0]
	buf    [][]byte
	closed bool

	// 409-realign backoff state (under mu). conflicts counts consecutive
	// conflict responses; retryAt gates Commit-path flushes while set.
	conflicts int
	retryAt   time.Time
	nowFn     func() time.Time // test hook; nil = time.Now

	// events, when set, receives a flight event each time the conflict
	// backoff arms — the signal operators grep for when replication is
	// flapping.
	events *flight.Recorder
}

// SetFlightRecorder wires the stream to a flight recorder; backoff
// arming is recorded there. Safe to leave unset (events drop).
func (s *SessionStream) SetFlightRecorder(rec *flight.Recorder) {
	s.mu.Lock()
	s.events = rec
	s.mu.Unlock()
}

// NewSessionStream builds a stream to peerURL for the session, primed
// with the journal's existing frames (see journal.Writer.Frames) so a
// stream attached after the open record — or after an adopt-time
// rewrite — replicates the whole file, not just the tail. The primed
// backlog is pushed on the first Commit or Flush.
func NewSessionStream(client *http.Client, peerURL, peerID, session string, primed [][]byte) *SessionStream {
	s := &SessionStream{
		client:  client,
		peerURL: peerURL,
		peerID:  peerID,
		session: session,
		buf:     append([][]byte(nil), primed...),
	}
	return s
}

func (s *SessionStream) now() time.Time {
	if s.nowFn != nil {
		return s.nowFn()
	}
	return time.Now()
}

// Commit implements journal.Sink.
func (s *SessionStream) Commit(frames [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.buf = append(s.buf, frames...)
	s.flushLocked(false)
}

// Flush pushes the buffered backlog; it returns an error when frames
// remain unacknowledged afterwards. Park and drain paths call it so a
// migration never adopts a stale standby silently. Flush ignores the
// conflict backoff — a migration deserves one fresh attempt.
func (s *SessionStream) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.flushLocked(true)
	if n := len(s.buf); n > 0 {
		return fmt.Errorf("fleet: stream to %s lagging %d frame(s)", s.peerID, n)
	}
	return nil
}

// Lag is the number of locally durable frames the peer has not yet
// acknowledged.
func (s *SessionStream) Lag() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Peer returns the peer replica id the stream replicates to.
func (s *SessionStream) Peer() string { return s.peerID }

// PeerURL returns the peer base URL.
func (s *SessionStream) PeerURL() string { return s.peerURL }

// Close stops the stream; buffered frames are dropped (the session is
// closing or quarantined — the standby is released by the router).
func (s *SessionStream) Close() {
	s.mu.Lock()
	s.closed = true
	s.buf = nil
	s.mu.Unlock()
}

// flushLocked pushes the whole buffer in one POST and advances past the
// peer's acknowledged sequence. On a sequence conflict (the peer expects
// frames we still hold) it realigns and retries once; a second
// consecutive conflict arms a capped exponential backoff that gates
// Commit-path flushes (force bypasses it). Transport or server errors
// leave the buffer intact for the next attempt.
func (s *SessionStream) flushLocked(force bool) {
	if !force && !s.retryAt.IsZero() && s.now().Before(s.retryAt) {
		return // backing off after repeated conflicts; frames keep buffering
	}
	for attempt := 0; attempt < 2; attempt++ {
		if len(s.buf) == 0 {
			return
		}
		next, status, err := s.post()
		if err != nil {
			mStreamErrors.Inc()
			return
		}
		switch {
		case status == http.StatusOK, status == http.StatusConflict:
			// The peer tells us its next expected sequence either way;
			// drop what it holds and, after a conflict realign, retry.
			drop := next - s.base
			if drop < 0 {
				drop = 0
			}
			if drop > int64(len(s.buf)) {
				drop = int64(len(s.buf))
			}
			mStreamFramesSent.Add(drop)
			s.buf = s.buf[drop:]
			s.base = next
			if status == http.StatusOK {
				mStreamAcks.Inc()
				s.conflicts = 0
				s.retryAt = time.Time{}
				return
			}
			mStreamRealigns.Inc()
			s.conflicts++
			if s.conflicts >= 2 {
				d := conflictBackoffBase
				for i := 2; i < s.conflicts && d < conflictBackoffCap; i++ {
					d *= 2
				}
				if d > conflictBackoffCap {
					d = conflictBackoffCap
				}
				s.retryAt = s.now().Add(d)
				s.events.Record(flight.Warn, "stream.backoff", s.session, "",
					"realign conflict #%d with %s; backing off %s", s.conflicts, s.peerID, d)
				return
			}
		default:
			mStreamErrors.Inc()
			return
		}
	}
}

// post sends the buffered frames; returns the peer's next expected
// sequence.
func (s *SessionStream) post() (next int64, status int, err error) {
	body := bytes.Join(s.buf, nil)
	req, err := http.NewRequest(http.MethodPost, s.peerURL+framesPath(s.session), bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(FirstSeqHeader, strconv.FormatInt(s.base, 10))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Next int64 `json:"next"`
	}
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&m); derr != nil {
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
			return 0, 0, fmt.Errorf("fleet: frames ack without next seq: %w", derr)
		}
	}
	return m.Next, resp.StatusCode, nil
}

// HopLag reports one hop of a session's replication chain.
type HopLag struct {
	Peer string `json:"peer"`
	URL  string `json:"url"`
	Lag  int    `json:"lag"`
}

// MultiStream replicates one session's journal to a chain of standby
// replicas — the session key's ring successors, in order. It implements
// journal.Sink by fanning each committed frame batch to every hop
// directly from the primary, so losing a mid-chain standby never starves
// the hops behind it; the chain *order* still matters, because failover
// prefers the earliest hop holding the highest contiguous sequence.
type MultiStream struct {
	hops []*SessionStream
}

// NewMultiStream builds the chain; nil hops are skipped.
func NewMultiStream(hops ...*SessionStream) *MultiStream {
	m := &MultiStream{}
	for _, h := range hops {
		if h != nil {
			m.hops = append(m.hops, h)
		}
	}
	return m
}

// Commit implements journal.Sink.
func (m *MultiStream) Commit(frames [][]byte) {
	for _, h := range m.hops {
		h.Commit(frames)
	}
}

// Flush pushes every hop's backlog; the returned error joins the hops
// that still lag (a migration needs to know which standbys are current).
func (m *MultiStream) Flush() error {
	var errs []string
	for _, h := range m.hops {
		if err := h.Flush(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// Lag is the worst per-hop lag — the bound on how many frames a
// failover to the best standby might still need from a journal export.
func (m *MultiStream) Lag() int {
	worst := 0
	for _, h := range m.hops {
		if l := h.Lag(); l > worst {
			worst = l
		}
	}
	return worst
}

// HopLags reports each hop's peer and current lag, in chain order.
func (m *MultiStream) HopLags() []HopLag {
	out := make([]HopLag, 0, len(m.hops))
	for _, h := range m.hops {
		out = append(out, HopLag{Peer: h.Peer(), URL: h.PeerURL(), Lag: h.Lag()})
	}
	return out
}

// Peers lists the chain's replica ids in order.
func (m *MultiStream) Peers() []string {
	out := make([]string, 0, len(m.hops))
	for _, h := range m.hops {
		out = append(out, h.Peer())
	}
	return out
}

// Close stops every hop.
func (m *MultiStream) Close() {
	for _, h := range m.hops {
		h.Close()
	}
}

// StreamSet tracks the live replication chains of one replica, for the
// fleet.stream_lag_frames / per-hop lag gauges and for shutdown.
type StreamSet struct {
	mu        sync.Mutex
	m         map[string]*MultiStream
	hopGauges int // per-hop lag gauges registered so far
}

// NewStreamSet returns an empty set.
func NewStreamSet() *StreamSet { return &StreamSet{m: make(map[string]*MultiStream)} }

// Attach registers the session's chain, closing any previous one, and
// lazily registers a fleet.stream_lag_hop<N> gauge per chain position
// the first time a chain that deep appears.
func (t *StreamSet) Attach(session string, s *MultiStream) {
	t.mu.Lock()
	old := t.m[session]
	t.m[session] = s
	for i := t.hopGauges; i < len(s.hops); i++ {
		hop := i
		telemetry.NewGaugeFunc(fmt.Sprintf("fleet.stream_lag_hop%d", hop+1), func() float64 {
			return float64(t.HopLag(hop))
		})
		t.hopGauges = i + 1
	}
	t.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// Detach removes and returns the session's chain (nil when absent).
func (t *StreamSet) Detach(session string) *MultiStream {
	t.mu.Lock()
	s := t.m[session]
	delete(t.m, session)
	t.mu.Unlock()
	return s
}

// Get returns the session's chain (nil when absent).
func (t *StreamSet) Get(session string) *MultiStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[session]
}

// Len is the number of sessions with an active chain.
func (t *StreamSet) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

func (t *StreamSet) snapshot() []*MultiStream {
	t.mu.Lock()
	streams := make([]*MultiStream, 0, len(t.m))
	for _, s := range t.m {
		streams = append(streams, s)
	}
	t.mu.Unlock()
	return streams
}

// TotalLag sums the worst-hop unacknowledged frames across every
// session — the replication-lag gauge.
func (t *StreamSet) TotalLag() int {
	lag := 0
	for _, s := range t.snapshot() {
		lag += s.Lag()
	}
	return lag
}

// HopLag sums the lag at one chain position across every session.
func (t *StreamSet) HopLag(i int) int {
	lag := 0
	for _, s := range t.snapshot() {
		if i < len(s.hops) {
			lag += s.hops[i].Lag()
		}
	}
	return lag
}

// CloseAll closes every chain (replica shutdown).
func (t *StreamSet) CloseAll() {
	t.mu.Lock()
	streams := make([]*MultiStream, 0, len(t.m))
	for _, s := range t.m {
		streams = append(streams, s)
	}
	t.m = make(map[string]*MultiStream)
	t.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
}
