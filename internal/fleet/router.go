package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/flight"
	"hummingbird/internal/telemetry/span"
)

var (
	mRouted         = telemetry.NewCounter("fleet.requests_routed")
	mOpens          = telemetry.NewCounter("fleet.opens_routed")
	mProxyErrors    = telemetry.NewCounter("fleet.proxy_errors")
	mFailovers      = telemetry.NewCounter("fleet.failovers")
	mFailoverErrors = telemetry.NewCounter("fleet.failover_errors")
	mMigrations     = telemetry.NewCounter("fleet.migrations")
	mMemberDown     = telemetry.NewCounter("fleet.member_down_events")
	mMemberUp       = telemetry.NewCounter("fleet.member_up_events")
	mJoins          = telemetry.NewCounter("fleet.members_joined")
	mLeaves         = telemetry.NewCounter("fleet.members_left")
	mReconciles     = telemetry.NewCounter("fleet.reconciles")
	mReconConflicts = telemetry.NewCounter("fleet.reconcile_conflicts")
	mReconAdopts    = telemetry.NewCounter("fleet.reconcile_adopts")
)

// Member names one hummingbirdd replica: its stable replica id (the
// ring key and the value of its -replica-id flag) and its base URL.
type Member struct {
	ID  string
	URL string // e.g. http://127.0.0.1:8091, no trailing slash
}

// Config configures a Router.
type Config struct {
	Members []Member
	// Vnodes per member; DefaultVnodes when <= 0.
	Vnodes int
	// Client proxies session traffic. nil uses a default with a 60s
	// timeout (report recomputes on large designs are slow).
	Client *http.Client
	// HealthInterval between member polls (default 500ms).
	HealthInterval time.Duration
	// FailAfter is the consecutive probe-failure count that marks a
	// member down (default 2). Proxy transport errors confirm with a
	// single /healthz probe instead, so failover latency is one RTT.
	FailAfter int
	// Standbys is the replication-chain length: each session's journal
	// streams to this many ring successors (default 2). With fewer
	// members available the chain is shorter, never padded.
	Standbys int
	// MigrateConcurrency bounds how many sessions a bulk migration
	// (drain, leave, join rebalance) moves at once (default 4).
	MigrateConcurrency int
	// EventCapacity bounds the flight-recorder ring behind GET /events
	// (default flight.DefaultCapacity).
	EventCapacity int
	// TraceCapacity bounds the operation-trace retention ring behind
	// GET /fleet/trace/{id} (default 256).
	TraceCapacity int
	// Logf receives router life-cycle events; nil discards.
	Logf func(format string, args ...any)
}

// maxBody bounds buffered request and response bodies, matching the
// daemon's own open limit.
const maxBody = 16 << 20

// memberState is the router's view of one replica.
type memberState struct {
	Member
	up       bool
	draining bool
	fails    int
	state    string // last /readyz "state"
}

// sessionRoute pins one session to its primary and replication chain
// (the standby members its journal streams to, in ring order). The
// per-route mutex single-flights failover and migration: concurrent
// requests against a dying primary elect exactly one re-homing.
// closing is set while the session's client closes it (see move).
type sessionRoute struct {
	mu      sync.Mutex
	id      string
	key     string
	primary string
	peers   []string
	closing atomic.Bool
}

// Router is the fleet front-end: it owns the consistent-hash ring over
// healthy members, pins each opened session to a primary (+ journal
// peer), proxies the session protocol, and re-homes sessions on member
// failure or drain.
type Router struct {
	cfg      Config
	client   *http.Client
	healthc  *http.Client
	flight   *flight.Recorder
	traces   *span.Ring
	traceSeq atomic.Int64
	mu       sync.Mutex // members, ring, sessions
	members  map[string]*memberState
	ring     *Ring
	sessions map[string]*sessionRoute
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a router over the configured members. Members start
// optimistically up; call PollOnce (or Start) to correct that view
// before serving.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: no members configured")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	if cfg.Standbys <= 0 {
		cfg.Standbys = 2
	}
	if cfg.MigrateConcurrency <= 0 {
		cfg.MigrateConcurrency = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 256
	}
	r := &Router{
		cfg:      cfg,
		client:   cfg.Client,
		healthc:  &http.Client{Timeout: 2 * time.Second}, // a slow proxy cannot starve health probes
		flight:   flight.NewRecorder("router", cfg.EventCapacity),
		traces:   span.NewRing(cfg.TraceCapacity),
		members:  make(map[string]*memberState, len(cfg.Members)),
		sessions: make(map[string]*sessionRoute),
		stop:     make(chan struct{}),
	}
	for _, m := range cfg.Members {
		id := m.ID
		if id == "" || r.members[id] != nil {
			return nil, fmt.Errorf("fleet: member ids must be unique and non-empty (got %q)", id)
		}
		r.members[id] = &memberState{Member: Member{ID: id, URL: strings.TrimRight(m.URL, "/")}, up: true, state: "ready"}
	}
	r.rebuildRingLocked()
	// Callback gauges; re-registering replaces, so routers rebuilt within
	// one process (tests) re-point them at the live instance.
	telemetry.NewGaugeFunc("fleet.members_up", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		n := 0
		for _, m := range r.members {
			if m.up {
				n++
			}
		}
		return float64(n)
	})
	telemetry.NewGaugeFunc("fleet.sessions_routed", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.sessions))
	})
	return r, nil
}

// Start reconciles the pin table against the fleet (which polls every
// member once synchronously, so the initial ring reflects reality) and
// launches the health loop. A router restarted after a crash rebuilds
// every session pin here before it serves a single request.
func (r *Router) Start() {
	r.Reconcile()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.PollOnce()
			}
		}
	}()
}

// Close stops the health loop.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// setDraining marks a member draining (out of the ring, still serving)
// or returns it to the ring; ok is false for an unknown member.
func (r *Router) setDraining(id string, draining bool) (wasUp, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil {
		return false, false
	}
	m.draining = draining
	r.rebuildRingLocked()
	return m.up, true
}

// rebuildRingLocked recomputes the ring from members that are up and
// not draining. Caller holds r.mu.
func (r *Router) rebuildRingLocked() {
	ids := make([]string, 0, len(r.members))
	for id, m := range r.members {
		if m.up && !m.draining && m.state != "starting" {
			ids = append(ids, id)
		}
	}
	r.ring = NewRing(ids, r.cfg.Vnodes)
}

// member snapshots one member's state: the health loop rewrites it
// under r.mu, so callers read the copy, never the shared record.
func (r *Router) member(id string) (memberState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.members[id]; m != nil {
		return *m, true
	}
	return memberState{}, false
}

// chainLocked resolves a session's replication chain: the first
// Standbys distinct up members clockwise from key, skipping the
// primary. Caller holds r.mu.
func (r *Router) chainLocked(key, primary string) []Member {
	ids := r.ring.Successors(key, primary, r.cfg.Standbys)
	out := make([]Member, 0, len(ids))
	for _, id := range ids {
		if m := r.members[id]; m != nil && m.up {
			out = append(out, m.Member)
		}
	}
	return out
}

// setPeerHeaders writes a replication chain onto an outbound request.
func setPeerHeaders(hdr http.Header, peers []Member) {
	if len(peers) == 0 {
		return
	}
	hdr.Set(PeersHeader, FormatPeers(peers))
}

func memberIDs(peers []Member) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		out = append(out, p.ID)
	}
	return out
}

// newTraceID mints a router-originated trace id ("f" + base36 millis +
// sequence) for the operation traces the router opens itself (failover,
// migration, reconcile). The alphabet matches what the daemon accepts
// as an inbound X-Trace-Id.
func (r *Router) newTraceID() string {
	return "f" + strconv.FormatInt(time.Now().UnixMilli(), 36) +
		"-" + strconv.FormatInt(r.traceSeq.Add(1), 36)
}

// startOp opens one router-side operation trace: the returned context
// carries it, so every forward/control issued under it stamps the
// member request with the trace id and current span (the member's own
// fragment then splices back under that span via GET /fleet/trace/{id}).
// finish retains the trace in the ring; call it exactly once.
func (r *Router) startOp(name string) (ctx context.Context, tr *span.Trace, finish func()) {
	tr = span.New(r.newTraceID(), name)
	tr.SetProcess("router")
	return span.NewContext(context.Background(), tr), tr, func() {
		tr.Finish()
		r.traces.Add(tr)
	}
}

// release drops the session's standby journal on each listed member
// the router still knows.
func (r *Router) release(ctx context.Context, sid string, ids ...string) {
	for _, id := range ids {
		if m, ok := r.member(id); ok {
			r.control(ctx, m.URL, http.MethodPost, "/v1/replication/sessions/"+sid+"/release", nil)
		}
	}
}

// probeStandbySeq asks a replica how many contiguous frames its standby
// journal for the session holds; an empty frames POST mutates nothing.
func (r *Router) probeStandbySeq(ctx context.Context, baseURL, sid string) (int64, bool) {
	hdr := http.Header{}
	hdr.Set(FirstSeqHeader, "0")
	resp, err := r.forward(ctx, baseURL, http.MethodPost, framesPath(sid), hdr, nil)
	if err != nil || resp.status != http.StatusOK {
		return 0, false
	}
	var m struct {
		Next int64 `json:"next"`
	}
	if json.Unmarshal(resp.body, &m) != nil {
		return 0, false
	}
	return m.Next, true
}

// markDown flips a member down and rebuilds the ring. Returns true when
// the state changed.
func (r *Router) markDown(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil || !m.up {
		return false
	}
	m.up = false
	mMemberDown.Inc()
	r.rebuildRingLocked()
	r.cfg.Logf("fleet: member %s down", id)
	r.flight.Record(flight.Error, "member.down", "", "", "member %s marked down (proxy failure confirmed dead)", id)
	return true
}

// PollOnce probes every member's /readyz once and updates membership.
func (r *Router) PollOnce() {
	r.mu.Lock()
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		r.pollMember(id)
	}
}

func (r *Router) pollMember(id string) {
	r.mu.Lock()
	m := r.members[id]
	r.mu.Unlock()
	if m == nil {
		return
	}
	state, err := r.probeReadyz(m.URL)
	r.mu.Lock()
	wasUp, wasState := m.up, m.state
	if err != nil {
		m.fails++
		fails := m.fails
		failed := m.fails >= r.cfg.FailAfter && m.up
		if failed {
			m.up = false
			mMemberDown.Inc()
			r.rebuildRingLocked()
		}
		r.mu.Unlock()
		if failed {
			r.cfg.Logf("fleet: member %s down (%v)", id, err)
			r.flight.Record(flight.Error, "member.down", "", "", "member %s marked down after %d failed probes (%v)", id, fails, err)
			r.failoverAll(id)
		}
		return
	}
	m.fails = 0
	m.state = state
	selfDraining := state == "draining" && !m.draining
	if selfDraining {
		m.draining = true
	}
	if !m.up || wasState != state || selfDraining {
		m.up = true
		r.rebuildRingLocked()
	}
	r.mu.Unlock()
	if !wasUp {
		mMemberUp.Inc()
		r.cfg.Logf("fleet: member %s up (state %s)", id, state)
		r.flight.Record(flight.Info, "member.up", "", "", "member %s back up (state %s)", id, state)
		go r.reconcileRejoined(id)
	}
	if selfDraining {
		r.cfg.Logf("fleet: member %s draining; migrating its sessions", id)
		r.flight.Record(flight.Warn, "member.drain", "", "", "member %s reports draining; migrating its sessions", id)
		go r.drainMember(id)
	}
}

// probeReadyz fetches a member's /readyz and returns its "state" field;
// both 200 and 503 are live answers (draining replicas answer 503).
func (r *Router) probeReadyz(base string) (string, error) {
	resp, err := r.healthc.Get(base + "/readyz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err != nil {
		return "", fmt.Errorf("readyz decode: %w", err)
	}
	if body.State == "" {
		body.State = "ready"
	}
	return body.State, nil
}

// probeAlive distinguishes a dead member from a flaky connection with
// one cheap /healthz round trip.
func (r *Router) probeAlive(base string) bool {
	resp, err := r.healthc.Get(base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// DesignKey derives the ring key from an open-session request body:
// the FNV-1a 64 hash of the netlist text plus the sorted adjustment
// set. Two sessions opening the same design + adjustments get the same
// key, land on the same replica, and share one refcounted compile.
func DesignKey(body []byte) string {
	var req struct {
		Design      string            `json:"design"`
		Adjustments map[string]string `json:"adjustments"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Design == "" {
		// Unparseable bodies still need a deterministic home; the primary
		// rejects them with its own 4xx.
		return fmt.Sprintf("raw:%016x", hash64(string(body)))
	}
	h := fnv.New64a()
	io.WriteString(h, req.Design)
	adj := make([]string, 0, len(req.Adjustments))
	for k, v := range req.Adjustments {
		adj = append(adj, k+"="+v)
	}
	sort.Strings(adj)
	for _, kv := range adj {
		io.WriteString(h, "\x00"+kv)
	}
	return fmt.Sprintf("design:%016x", h.Sum64())
}

// Handler returns the router's HTTP surface: the daemon session
// protocol proxied by session pin, plus fleet-level health, metrics,
// and drain orchestration.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", r.handleOpen)
	mux.HandleFunc("GET /v1/sessions", r.handleList)
	mux.HandleFunc("/v1/sessions/{id}", r.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", r.handleSession)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "fleet-router"})
	})
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /events", r.flight.ServeHTTP)
	mux.HandleFunc("GET /fleet/metrics", r.handleFleetMetrics)
	mux.HandleFunc("GET /fleet/status", r.handleFleetStatus)
	mux.HandleFunc("GET /fleet/trace/{id}", r.handleFleetTrace)
	mux.HandleFunc("GET /fleet/members", r.handleMembers)
	mux.HandleFunc("POST /fleet/members/join", r.handleJoin)
	mux.HandleFunc("POST /fleet/members/leave", r.handleLeave)
	mux.HandleFunc("POST /fleet/reconcile", r.handleReconcile)
	mux.HandleFunc("POST /fleet/drain/{id}", r.handleDrain)
	mux.HandleFunc("POST /fleet/undrain/{id}", r.handleUndrain)
	return mux
}

// handleJoin adds a member to the fleet at runtime: the ring is rebuilt
// and the ~K/N sessions the new topology displaces are bulk-migrated to
// their new owners through park → journal hand-off → adopt.
func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	var body struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&body); err != nil || body.ID == "" || body.URL == "" {
		httpError(w, http.StatusBadRequest, `join wants {"id":"rN","url":"http://host:port"}`)
		return
	}
	url := strings.TrimRight(body.URL, "/")
	state, err := r.probeReadyz(url)
	if err != nil {
		httpError(w, http.StatusBadGateway, "member %s not reachable at %s: %v", body.ID, url, err)
		return
	}
	r.mu.Lock()
	if r.members[body.ID] != nil {
		r.mu.Unlock()
		httpError(w, http.StatusConflict, "member %q already present", body.ID)
		return
	}
	r.members[body.ID] = &memberState{Member: Member{ID: body.ID, URL: url}, up: true, state: state}
	r.rebuildRingLocked()
	r.mu.Unlock()
	mJoins.Inc()
	r.cfg.Logf("fleet: member %s joined at %s (state %s)", body.ID, url, state)
	r.flight.Record(flight.Info, "member.join", "", "", "%s joined at %s (state %s)", body.ID, url, state)
	migrated, errs := r.rebalance()
	status := http.StatusOK
	if len(errs) > 0 {
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]any{
		"member": body.ID, "joined": true, "state": state, "migrated": migrated, "errors": errs,
	})
}

// handleLeave removes a member at runtime: a live member drains first
// (park → hand-off → adopt for each pinned session), a dead one has its
// sessions failed over to their standbys; the member leaves the table
// only once no session pins to it, so a stuck migration never strands a
// session on a forgotten replica.
func (r *Router) handleLeave(w http.ResponseWriter, req *http.Request) {
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&body); err != nil || body.ID == "" {
		httpError(w, http.StatusBadRequest, `leave wants {"id":"rN"}`)
		return
	}
	id := body.ID
	wasUp, ok := r.setDraining(id, true)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown member %q", id)
		return
	}
	var migrated int
	var errs []string
	if wasUp {
		migrated, errs = r.drainMember(id)
	} else {
		r.failoverAll(id)
	}
	if pinned := len(r.pinned(primaryIs(id))); pinned > 0 {
		writeJSON(w, http.StatusConflict, map[string]any{
			"member": id, "left": false, "migrated": migrated, "pinned": pinned, "errors": errs,
		})
		return
	}
	r.mu.Lock()
	delete(r.members, id)
	r.rebuildRingLocked()
	r.mu.Unlock()
	mLeaves.Inc()
	r.cfg.Logf("fleet: member %s left (%d session(s) migrated)", id, migrated)
	r.flight.Record(flight.Info, "member.leave", "", "", "%s left (%d session(s) migrated)", id, migrated)
	writeJSON(w, http.StatusOK, map[string]any{
		"member": id, "left": true, "migrated": migrated, "errors": errs,
	})
}

// handleReconcile rebuilds the pin table from member inventories on
// demand (see Reconcile).
func (r *Router) handleReconcile(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Reconcile())
}

// handleOpen routes a session-open by design key, pins the session, and
// tells the primary where to stream its journal.
func (r *Router) handleOpen(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBody+1))
	if err != nil || int64(len(body)) > maxBody {
		httpError(w, http.StatusRequestEntityTooLarge, "open body unreadable or over %d bytes", maxBody)
		return
	}
	key := DesignKey(body)
	for attempt := 0; attempt < 2; attempt++ {
		r.mu.Lock()
		primary := r.ring.Lookup(key)
		chain := r.chainLocked(key, primary)
		var pm *memberState
		if primary != "" {
			pm = r.members[primary]
		}
		r.mu.Unlock()
		if pm == nil {
			httpError(w, http.StatusServiceUnavailable, "no ready replicas")
			return
		}
		hdr := http.Header{}
		copyProxyHeaders(hdr, req.Header)
		setPeerHeaders(hdr, chain)
		resp, rerr := r.forward(req.Context(), pm.URL, http.MethodPost, "/v1/sessions", hdr, body)
		if rerr != nil {
			mProxyErrors.Inc()
			if !r.probeAlive(pm.URL) && r.markDown(pm.ID) {
				go r.failoverAll(pm.ID)
			}
			continue
		}
		sid := resp.sessionID()
		if resp.status == http.StatusCreated && sid != "" {
			rt := &sessionRoute{id: sid, key: key, primary: pm.ID, peers: memberIDs(chain)}
			r.mu.Lock()
			r.sessions[sid] = rt
			r.mu.Unlock()
			w.Header().Set("X-Hb-Replica", pm.ID)
		}
		mOpens.Inc()
		resp.writeTo(w)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "no replica could open the session")
}

// handleList reports the router's own session table — the fleet-level
// view, one row per pinned session.
func (r *Router) handleList(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	out := make([]map[string]any, 0, len(r.sessions))
	for _, rt := range r.sessions {
		row := map[string]any{
			"session": rt.id,
			"replica": rt.primary,
			"peers":   append([]string(nil), rt.peers...),
		}
		if len(rt.peers) > 0 {
			row["peer"] = rt.peers[0]
		}
		out = append(out, row)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i]["session"].(string) < out[j]["session"].(string) })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// handleSession proxies a session-scoped request to its pinned primary,
// failing over to the journal peer when the primary is unreachable.
func (r *Router) handleSession(w http.ResponseWriter, req *http.Request) {
	sid := req.PathValue("id")
	r.mu.Lock()
	rt := r.sessions[sid]
	r.mu.Unlock()
	if rt == nil {
		httpError(w, http.StatusNotFound, "session %s is not routed by this fleet", sid)
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBody+1))
	if err != nil || int64(len(body)) > maxBody {
		httpError(w, http.StatusRequestEntityTooLarge, "body unreadable or over %d bytes", maxBody)
		return
	}
	uri := req.URL.RequestURI()
	hdr := http.Header{}
	copyProxyHeaders(hdr, req.Header)

	rt.mu.Lock()
	primary := rt.primary
	rt.mu.Unlock()
	if req.Method == http.MethodDelete {
		// Marked before the close is forwarded, so a bulk move whose park
		// finds the session already closed skips it (see move). The mark
		// stays only if the close succeeded and unpinned the session.
		rt.closing.Store(true)
		defer func() {
			r.mu.Lock()
			rt.closing.Store(r.sessions[sid] != rt)
			r.mu.Unlock()
		}()
	}
	pm, ok := r.member(primary)
	attempted := false
	if ok && pm.up {
		resp, rerr := r.forward(req.Context(), pm.URL, req.Method, uri, hdr, body)
		if rerr == nil {
			r.finishSession(w, req, sid, rt, pm.ID, resp)
			return
		}
		mProxyErrors.Inc()
		attempted = true
		if r.probeAlive(pm.URL) {
			// The member is alive; the failure was transient transport. One
			// retry, any method — the request never reached a handler.
			if resp, rerr = r.forward(req.Context(), pm.URL, req.Method, uri, hdr, body); rerr == nil {
				r.finishSession(w, req, sid, rt, pm.ID, resp)
				return
			}
			mProxyErrors.Inc()
		}
		if r.markDown(pm.ID) {
			go r.failoverAll(pm.ID)
		}
	}

	// Primary is down: fail the session over to its journal peer (a
	// no-op returning the current pin when the health loop got there
	// first).
	newPrimary, ferr := r.failoverSession(sid, rt, primary)
	if ferr != nil {
		mFailoverErrors.Inc()
		httpError(w, http.StatusServiceUnavailable, "session %s: primary down, failover failed: %v", sid, ferr)
		return
	}
	if attempted && req.Method == http.MethodPost {
		// Our own POST (edit batch) died mid-flight: it may have committed
		// on the dying primary and replicated before the crash, so blindly
		// replaying it on the peer could double-apply. The client owns the
		// retry decision. POSTs that never left the router (attempted ==
		// false: the session was re-homed before we forwarded anything)
		// proceed normally below.
		w.Header().Set("Retry-After", "0")
		httpError(w, http.StatusConflict, "session %s re-homed to %s mid-request; retry the batch", sid, newPrimary)
		return
	}
	npm, ok := r.member(newPrimary)
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "session %s: new primary %s vanished", sid, newPrimary)
		return
	}
	resp, rerr := r.forward(req.Context(), npm.URL, req.Method, uri, hdr, body)
	if rerr != nil {
		mProxyErrors.Inc()
		httpError(w, http.StatusServiceUnavailable, "session %s: retry on %s failed: %v", sid, newPrimary, rerr)
		return
	}
	r.finishSession(w, req, sid, rt, newPrimary, resp)
}

// finishSession writes a proxied response and maintains the session
// table on close.
func (r *Router) finishSession(w http.ResponseWriter, req *http.Request, sid string, rt *sessionRoute, servedBy string, resp *bufferedResponse) {
	mRouted.Inc()
	if req.Method == http.MethodDelete && resp.status < 300 {
		rt.mu.Lock()
		peers := append([]string(nil), rt.peers...)
		rt.mu.Unlock()
		r.mu.Lock()
		delete(r.sessions, sid)
		r.mu.Unlock()
		// Best-effort: every chain member's standby journal is garbage
		// once the session is closed.
		r.release(req.Context(), sid, peers...)
	}
	w.Header().Set("X-Hb-Replica", servedBy)
	resp.writeTo(w)
}

// pinned snapshots the pin table: each route whose current primary
// satisfies match, mapped to that primary.
func (r *Router) pinned(match func(rt *sessionRoute, primary string) bool) map[*sessionRoute]string {
	r.mu.Lock()
	routes := make([]*sessionRoute, 0, len(r.sessions))
	for _, rt := range r.sessions {
		routes = append(routes, rt)
	}
	r.mu.Unlock()
	out := make(map[*sessionRoute]string)
	for _, rt := range routes {
		rt.mu.Lock()
		primary := rt.primary
		rt.mu.Unlock()
		if match(rt, primary) {
			out[rt] = primary
		}
	}
	return out
}

// primaryIs matches the routes pinned to one member.
func primaryIs(id string) func(*sessionRoute, string) bool {
	return func(_ *sessionRoute, primary string) bool { return primary == id }
}

// failoverAll re-homes every session pinned to a dead member.
func (r *Router) failoverAll(dead string) {
	for rt := range r.pinned(primaryIs(dead)) {
		if _, err := r.failoverSession(rt.id, rt, dead); err != nil {
			mFailoverErrors.Inc()
			r.cfg.Logf("fleet: failover %s off %s: %v", rt.id, dead, err)
		}
	}
}

// failoverSession re-homes one session off its dead primary onto its
// replication chain: every reachable chain member is asked how many
// contiguous frames its standby journal holds, and the earliest hop
// with the highest sequence is the move's target. Single-flighted per
// session; returns the (possibly already updated) primary.
func (r *Router) failoverSession(sid string, rt *sessionRoute, failed string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.primary != failed {
		return rt.primary, nil // lost the race; someone already re-homed it
	}
	err := r.moveOp("failover", mFailovers, rt, Member{ID: failed}, false, func(ctx context.Context) (Member, error) {
		if len(rt.peers) == 0 {
			return Member{}, fmt.Errorf("no journal peers")
		}
		var best Member
		var bestNext int64
		for _, pid := range rt.peers {
			pctx, ps := span.Start(ctx, "probe")
			ps.Annotate("peer", pid)
			m, ok := r.member(pid)
			if !ok || !m.up {
				ps.Annotate("result", "down")
				ps.End()
				continue
			}
			next, ok := r.probeStandbySeq(pctx, m.URL, sid)
			if !ok || next < 1 {
				ps.Annotate("result", "no-journal")
				ps.End()
				continue
			}
			ps.Annotate("seq", strconv.FormatInt(next, 10))
			ps.End()
			if next > bestNext {
				best, bestNext = m.Member, next
			}
		}
		if bestNext == 0 {
			return Member{}, fmt.Errorf("no reachable standby holds session %s (chain %v)", sid, rt.peers)
		}
		return best, nil
	})
	if err != nil {
		return "", err
	}
	return rt.primary, nil
}

// drainMember migrates every session off a draining (but still live)
// member via park → journal hand-off → adopt.
func (r *Router) drainMember(id string) (migrated int, errs []string) {
	return r.migrateMatching(primaryIs(id))
}

// rebalance migrates every session whose ring owner changed (a member
// joined or left) to its new owner — the displaced ~K/N, nothing else.
func (r *Router) rebalance() (migrated int, errs []string) {
	return r.migrateMatching(func(rt *sessionRoute, primary string) bool {
		r.mu.Lock()
		desired := r.ring.Lookup(rt.key)
		m := r.members[primary]
		r.mu.Unlock()
		return m != nil && m.up && desired != "" && desired != primary
	})
}

// migrateMatching bulk-migrates every pinned session whose current
// primary matches, MigrateConcurrency sessions at a time; each failure
// rolls that one session back and is reported, the rest proceed. A
// session its client closed meanwhile is skipped.
func (r *Router) migrateMatching(match func(rt *sessionRoute, primary string) bool) (migrated int, errs []string) {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, r.cfg.MigrateConcurrency)
	)
	for rt, primary := range r.pinned(match) {
		wg.Add(1)
		sem <- struct{}{}
		go func(rt *sessionRoute, from string) {
			defer wg.Done()
			defer func() { <-sem }()
			err := r.migrateSession(rt, from)
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, errClosed) {
				return // its client closed it: neither moved nor failed
			}
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", rt.id, err))
				r.cfg.Logf("fleet: migrate %s off %s: %v", rt.id, from, err)
				return
			}
			migrated++
		}(rt, primary)
	}
	wg.Wait()
	return migrated, errs
}

// migrateSession is the planned (primary still alive) re-homing onto
// the key's ring owner.
func (r *Router) migrateSession(rt *sessionRoute, from string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.primary != from {
		return nil
	}
	fm, ok := r.member(from)
	if !ok || !fm.up {
		return fmt.Errorf("old primary %s not reachable; use failover", from)
	}
	r.mu.Lock()
	tm, ok := r.members[r.ring.Lookup(rt.key)]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("no migration target")
	}
	if tm.ID == from {
		return nil // the ring still wants it here; nothing displaced
	}
	return r.moveOp("migrate", mMigrations, rt, fm.Member, true, func(context.Context) (Member, error) { return tm.Member, nil })
}

// moveOp runs one traced move for failover and migration. The root of
// its operation trace carries session, from, target and any error; the
// flight recorder gets <kind>.begin, then <kind>.end or <kind>.error,
// and moved counts each success. choose picks the target inside the
// trace. Caller holds rt.mu.
func (r *Router) moveOp(kind string, moved *telemetry.Counter, rt *sessionRoute, from Member, live bool, choose func(context.Context) (Member, error)) error {
	ctx, tr, finish := r.startOp("fleet." + kind)
	defer finish()
	root := span.Current(ctx)
	root.Annotate("session", rt.id)
	root.Annotate("from", from.ID)
	severity := flight.Info
	if !live {
		severity = flight.Warn // the source died
	}
	r.flight.Record(severity, kind+".begin", rt.id, tr.ID(), "off %s (chain %v)", from.ID, rt.peers)
	target, err := choose(ctx)
	if err == nil {
		root.Annotate("target", target.ID)
		err = r.move(ctx, rt, from, target, live)
	}
	switch {
	case errors.Is(err, errClosed):
		r.flight.Record(flight.Info, kind+".end", rt.id, tr.ID(), "closed by its client mid-move; skipped")
	case err != nil:
		root.Annotate("error", err.Error())
		r.flight.Record(flight.Error, kind+".error", rt.id, tr.ID(), "%v", err)
	default:
		moved.Inc()
		r.cfg.Logf("fleet: %s %s: %s -> %s (chain %v)", kind, rt.id, from.ID, target.ID, rt.peers)
		r.flight.Record(flight.Info, kind+".end", rt.id, tr.ID(), "%s -> %s (chain %v)", from.ID, target.ID, rt.peers)
	}
	return err
}

// errClosed marks a move whose session its client closed meanwhile:
// the source's park answered 404 on a route marked closing. Bulk moves
// skip such a session; it is neither a migration nor an error.
var errClosed = errors.New("session closed by its client")

// move is the one session-move protocol; failover, migration and
// reconcile's orphan adoption differ only in how they choose target. A
// live source is parked, which flushes its replication chain, and its
// exported journal is handed to target unless the park reports target
// as a caught-up hop; without one, target already holds the freshest
// standby. adopt then promotes the journal on target, and a live
// source's journal and the old peers the new chain dropped are
// forgotten, so a restart cannot resurrect the session twice. Any
// failure after the park re-adopts the session on its source through
// the same adopt. Caller holds rt.mu.
func (r *Router) move(ctx context.Context, rt *sessionRoute, from, target Member, live bool) error {
	sid := rt.id
	rollback := func(err error) error {
		if !live {
			return err
		}
		rbctx, rb := span.Start(ctx, "rollback")
		if chain, aerr := r.adopt(rbctx, sid, rt.key, from); aerr == nil {
			rt.peers = memberIDs(chain)
		}
		rb.End()
		r.flight.Record(flight.Warn, "migrate.rollback", sid, span.FromContext(ctx).ID(), "re-adopted on %s", from.ID)
		return err
	}
	if live {
		pctx, ps := span.Start(ctx, "park")
		resp, err := r.control(pctx, from.URL, http.MethodPost, "/v1/sessions/"+sid+"/park", nil)
		ps.End()
		switch {
		case err != nil:
			return fmt.Errorf("park on %s: %w", from.ID, err)
		case resp.status == http.StatusNotFound && rt.closing.Load():
			return errClosed
		case resp.status != http.StatusOK:
			return fmt.Errorf("park on %s: status %d: %s", from.ID, resp.status, truncate(resp.body, 200))
		}
		var park struct {
			Hops []HopLag `json:"hops"`
		}
		_ = json.Unmarshal(resp.body, &park)
		if !slices.ContainsFunc(park.Hops, func(h HopLag) bool { return h.Peer == target.ID && h.Lag == 0 }) {
			if err := r.handOff(ctx, sid, from, target); err != nil {
				return rollback(err)
			}
		}
	}
	chain, err := r.adopt(ctx, sid, rt.key, target)
	if err != nil {
		return rollback(err)
	}
	if live {
		fctx, fs := span.Start(ctx, "forget")
		r.control(fctx, from.URL, http.MethodPost, "/v1/replication/sessions/"+sid+"/forget", nil)
		kept := append(memberIDs(chain), target.ID)
		dropped := slices.DeleteFunc(slices.Clone(rt.peers), func(id string) bool { return slices.Contains(kept, id) })
		r.release(fctx, sid, dropped...)
		fs.End()
	}
	rt.primary, rt.peers = target.ID, memberIDs(chain)
	return nil
}

// handOff makes target hold the parked session's complete journal: its
// stale standby copy is dropped and the source's exported frames are
// pushed in its place.
func (r *Router) handOff(ctx context.Context, sid string, from, target Member) error {
	hctx, hs := span.Start(ctx, "journal-handoff")
	defer hs.End()
	hs.Annotate("target", target.ID)
	exp, err := r.control(hctx, from.URL, http.MethodGet, "/v1/sessions/"+sid+"/journal", nil)
	if err != nil || exp.status != http.StatusOK {
		return fmt.Errorf("journal export from %s failed (err=%v status=%d)", from.ID, err, exp.statusOr0())
	}
	r.release(hctx, sid, target.ID)
	hdr := http.Header{}
	hdr.Set(FirstSeqHeader, "0")
	push, err := r.forward(hctx, target.URL, http.MethodPost, framesPath(sid), hdr, exp.body)
	if err != nil || push.status != http.StatusOK {
		return fmt.Errorf("journal push to %s failed (err=%v status=%d)", target.ID, err, push.statusOr0())
	}
	return nil
}

// adopt promotes the session's journal on target and wires target's
// onward replication chain, the key's first Standbys up successors.
// Standby copies on that chain are released first, so copies from an
// older epoch never pollute the fresh streams the adopt attaches.
func (r *Router) adopt(ctx context.Context, sid, key string, target Member) ([]Member, error) {
	r.mu.Lock()
	chain := r.chainLocked(key, target.ID)
	r.mu.Unlock()
	actx, as := span.Start(ctx, "adopt")
	defer as.End()
	as.Annotate("session", sid)
	as.Annotate("target", target.ID)
	r.release(actx, sid, memberIDs(chain)...)
	hdr := http.Header{}
	setPeerHeaders(hdr, chain)
	resp, err := r.forward(actx, target.URL, http.MethodPost, "/v1/replication/sessions/"+sid+"/adopt", hdr, nil)
	if err != nil {
		return nil, fmt.Errorf("adopt on %s: %w", target.ID, err)
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("adopt on %s: status %d: %s", target.ID, resp.status, truncate(resp.body, 200))
	}
	return chain, nil
}

// inventory mirrors the daemon's GET /v1/replication/inventory reply.
type inventory struct {
	Replica string `json:"replica"`
	Live    []struct {
		Session string   `json:"session"`
		Seq     int64    `json:"seq"`
		Key     string   `json:"key"`
		Peers   []string `json:"peers"`
	} `json:"live"`
	Standby []struct {
		Session string `json:"session"`
		Next    int64  `json:"next"`
		Key     string `json:"key"`
	} `json:"standby"`
}

// Reconcile rebuilds the session pin table from the fleet itself, so a
// router restarted after a crash (or started against an already-running
// fleet) recovers every pin without any persistent state of its own.
// Every up member reports the sessions it serves — with design key,
// journal sequence, and active stream peers — and the standby journals
// it holds. Sessions served by exactly one member are pinned there;
// double-claims resolve to the highest journal sequence (ties prefer
// the ring owner, then the smaller id) and the loser's copy is
// force-closed; sessions surviving only as standby journals are adopted
// on the holder with the highest contiguous sequence. Runs at Start and
// on POST /fleet/reconcile.
func (r *Router) Reconcile() map[string]any {
	mReconciles.Inc()
	ctx, tr, finish := r.startOp("fleet.reconcile")
	defer finish()
	root := span.Current(ctx)
	r.PollOnce()
	polled := r.upMembersSorted()

	type liveClaim struct {
		member string
		seq    int64
		key    string
		peers  []string
	}
	type standbyClaim struct {
		member string
		next   int64
		key    string
	}
	liveBy := make(map[string][]liveClaim)
	standbyBy := make(map[string][]standbyClaim)
	inventoried := 0
	complete := true
	ictx, is := span.Start(ctx, "inventory")
	for _, m := range polled {
		resp, err := r.control(ictx, m.URL, http.MethodGet, "/v1/replication/inventory", nil)
		if err != nil || resp.status != http.StatusOK {
			complete = false
			continue
		}
		var inv inventory
		if json.Unmarshal(resp.body, &inv) != nil {
			complete = false
			continue
		}
		inventoried++
		for _, l := range inv.Live {
			liveBy[l.Session] = append(liveBy[l.Session], liveClaim{m.ID, l.Seq, l.Key, l.Peers})
		}
		for _, sb := range inv.Standby {
			standbyBy[sb.Session] = append(standbyBy[sb.Session], standbyClaim{m.ID, sb.Next, sb.Key})
		}
	}
	is.AnnotateInt("members", inventoried)
	is.End()

	pinned, conflicts, adopted, released := 0, 0, 0, 0
	liveSids := make([]string, 0, len(liveBy))
	for sid := range liveBy {
		liveSids = append(liveSids, sid)
	}
	sort.Strings(liveSids)
	for _, sid := range liveSids {
		claims := liveBy[sid]
		r.mu.Lock()
		owner := r.ring.Lookup(claims[0].key)
		r.mu.Unlock()
		sort.Slice(claims, func(i, j int) bool {
			a, b := claims[i], claims[j]
			if a.seq != b.seq {
				return a.seq > b.seq
			}
			if (a.member == owner) != (b.member == owner) {
				return a.member == owner
			}
			return a.member < b.member
		})
		winner := claims[0]
		for _, loser := range claims[1:] {
			conflicts++
			mReconConflicts.Inc()
			r.cfg.Logf("fleet: reconcile: force-closing double-claimed %s on %s (seq %d; winner %s at seq %d)",
				sid, loser.member, loser.seq, winner.member, winner.seq)
			r.flight.Record(flight.Warn, "reconcile.conflict", sid, tr.ID(),
				"force-closing on %s (seq %d; winner %s at seq %d)", loser.member, loser.seq, winner.member, winner.seq)
			if m, ok := r.member(loser.member); ok {
				cctx, cs := span.Start(ctx, "force-close")
				cs.Annotate("session", sid)
				cs.Annotate("loser", loser.member)
				r.control(cctx, m.URL, http.MethodDelete, "/v1/sessions/"+sid, nil)
				cs.End()
			}
		}
		r.pinSession(sid, winner.key, winner.member, r.knownMembers(winner.peers))
		pinned++
		// Standby copies on members outside the winner's active chain are
		// leftovers from an older epoch; drop them.
		var stale []string
		for _, sb := range standbyBy[sid] {
			if sb.member != winner.member && !slices.Contains(winner.peers, sb.member) {
				stale = append(stale, sb.member)
			}
		}
		r.release(ctx, sid, stale...)
		released += len(stale)
	}

	standbySids := make([]string, 0, len(standbyBy))
	for sid := range standbyBy {
		if liveBy[sid] == nil {
			standbySids = append(standbySids, sid)
		}
	}
	sort.Strings(standbySids)
	for _, sid := range standbySids {
		claims := standbyBy[sid]
		sort.Slice(claims, func(i, j int) bool {
			if claims[i].next != claims[j].next {
				return claims[i].next > claims[j].next
			}
			return claims[i].member < claims[j].member
		})
		best := claims[0]
		bm, ok := r.member(best.member)
		if best.next < 1 || !ok || !bm.up {
			continue
		}
		rt := &sessionRoute{id: sid, key: best.key}
		if err := r.move(ctx, rt, Member{}, bm.Member, false); err != nil {
			r.cfg.Logf("fleet: reconcile: adopt orphaned %s on %s failed: %v", sid, best.member, err)
			continue
		}
		mReconAdopts.Inc()
		r.pinSession(sid, rt.key, rt.primary, rt.peers)
		adopted++
		r.cfg.Logf("fleet: reconcile: adopted orphaned session %s on %s at seq %d", sid, best.member, best.next)
		r.flight.Record(flight.Info, "reconcile.adopt", sid, tr.ID(),
			"orphaned session adopted on %s at seq %d", best.member, best.next)
	}

	// Pins nothing in the fleet backs are stale — but only drop them when
	// every up member answered, and never while the pinned primary is
	// down (its journal may come back with it).
	dropped := 0
	if complete {
		r.mu.Lock()
		var stale []string
		for sid, rt := range r.sessions {
			if liveBy[sid] != nil || standbyBy[sid] != nil {
				continue
			}
			if m := r.members[rt.primary]; m != nil && !m.up {
				continue
			}
			stale = append(stale, sid)
		}
		for _, sid := range stale {
			delete(r.sessions, sid)
			dropped++
		}
		r.mu.Unlock()
		if dropped > 0 {
			r.cfg.Logf("fleet: reconcile: dropped %d stale pin(s)", dropped)
		}
	}
	root.AnnotateInt("pinned", pinned)
	root.AnnotateInt("conflicts", conflicts)
	root.AnnotateInt("adopted", adopted)
	r.flight.Record(flight.Info, "reconcile.end", "", tr.ID(),
		"inventoried %d member(s): pinned %d, conflicts %d, adopted %d, released %d, dropped %d",
		inventoried, pinned, conflicts, adopted, released, dropped)
	return map[string]any{
		"members_inventoried": inventoried,
		"complete":            complete,
		"pinned":              pinned,
		"conflicts":           conflicts,
		"adopted":             adopted,
		"released":            released,
		"dropped":             dropped,
	}
}

// pinSession installs (or overwrites) one session pin.
func (r *Router) pinSession(sid, key, primary string, peers []string) {
	r.mu.Lock()
	rt := r.sessions[sid]
	if rt == nil {
		rt = &sessionRoute{id: sid}
		r.sessions[sid] = rt
	}
	r.mu.Unlock()
	rt.mu.Lock()
	rt.key, rt.primary, rt.peers = key, primary, peers
	rt.mu.Unlock()
}

// knownMembers filters a reported peer list down to ids the router
// actually has as members.
func (r *Router) knownMembers(ids []string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if r.members[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// reconcileRejoined clears sessions a rejoining member still holds from
// a pre-failover life: any session it serves that the router has pinned
// elsewhere (or forgotten) is closed there so one session id never runs
// on two replicas.
func (r *Router) reconcileRejoined(id string) {
	m, ok := r.member(id)
	if !ok {
		return
	}
	resp, err := r.control(context.Background(), m.URL, http.MethodGet, "/v1/sessions", nil)
	if err != nil || resp.status != http.StatusOK {
		return
	}
	var list struct {
		Sessions []struct {
			Session string `json:"session"`
		} `json:"sessions"`
	}
	if json.Unmarshal(resp.body, &list) != nil {
		return
	}
	mine := make(map[string]bool)
	for rt := range r.pinned(primaryIs(id)) {
		mine[rt.id] = true
	}
	for _, s := range list.Sessions {
		if !mine[s.Session] {
			r.cfg.Logf("fleet: closing stale copy of %s on rejoined %s", s.Session, id)
			r.control(context.Background(), m.URL, http.MethodDelete, "/v1/sessions/"+s.Session, nil)
		}
	}
}

// handleReadyz aggregates member readiness into fleet-level health.
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	members := make(map[string]any, len(r.members))
	up, routable := 0, 0
	for id, m := range r.members {
		st := m.state
		if !m.up {
			st = "down"
		} else if m.draining {
			st = "draining"
		}
		members[id] = map[string]any{"up": m.up, "state": st}
		if m.up {
			up++
			if !m.draining && m.state != "starting" {
				routable++
			}
		}
	}
	total := len(r.members)
	nsess := len(r.sessions)
	r.mu.Unlock()

	state := "ready"
	switch {
	case routable == 0:
		state = "down"
	case up < total:
		state = "degraded"
	}
	status := http.StatusOK
	if routable == 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    routable > 0,
		"state":    state,
		"members":  members,
		"up":       up,
		"total":    total,
		"sessions": nsess,
	})
}

// handleMetrics renders the router's own telemetry plus per-member
// liveness gauges in Prometheus text exposition.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	telemetry.WritePrometheus(&buf)
	r.mu.Lock()
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(&buf, "# HELP hb_fleet_member_up Member liveness by replica (1 up, 0 down).\n# TYPE hb_fleet_member_up gauge\n")
	for _, id := range ids {
		v := 0
		if r.members[id].up {
			v = 1
		}
		fmt.Fprintf(&buf, "hb_fleet_member_up{replica=%q} %d\n", id, v)
	}
	fmt.Fprintf(&buf, "# HELP hb_fleet_member_sessions Sessions currently pinned to each replica.\n# TYPE hb_fleet_member_sessions gauge\n")
	counts := make(map[string]int, len(ids))
	for _, rt := range r.sessions {
		counts[rt.primary]++
	}
	for _, id := range ids {
		fmt.Fprintf(&buf, "hb_fleet_member_sessions{replica=%q} %d\n", id, counts[id])
	}
	r.mu.Unlock()
	w.Write(buf.Bytes())
}

// scrapeMemberMetrics fetches one member's /metrics.json snapshot with
// the short health-probe client, so a hung member cannot stall a
// federated scrape.
func (r *Router) scrapeMemberMetrics(baseURL string) (telemetry.Metrics, error) {
	var m telemetry.Metrics
	resp, err := r.healthc.Get(baseURL + "/metrics.json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&m); err != nil {
		return m, err
	}
	return m, nil
}

// upMembersSorted snapshots the up members in id order.
func (r *Router) upMembersSorted() []Member {
	r.mu.Lock()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		if m.up {
			out = append(out, m.Member)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleFleetMetrics federates the fleet: it scrapes every up member's
// /metrics.json snapshot, merges it with the router's own instruments
// (replica "router"), and re-exposes one Prometheus exposition —
// per-member series labelled replica="<id>" plus hb_fleet_* rollup
// families carrying the merged values (see telemetry.WriteFederated).
// Unreachable members are skipped and counted in
// hb_fleet_federated_scrape_errors.
func (r *Router) handleFleetMetrics(w http.ResponseWriter, _ *http.Request) {
	members := []telemetry.MemberMetrics{{Replica: "router", Metrics: telemetry.Snapshot()}}
	scrapeErrs := 0
	for _, m := range r.upMembersSorted() {
		snap, err := r.scrapeMemberMetrics(m.URL)
		if err != nil {
			scrapeErrs++
			r.cfg.Logf("fleet: federated scrape of %s failed: %v", m.ID, err)
			continue
		}
		members = append(members, telemetry.MemberMetrics{Replica: m.ID, Metrics: snap})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	telemetry.WriteFederated(&buf, members)
	fmt.Fprintf(&buf, "# HELP hb_fleet_federated_scrape_errors Members that failed to scrape on this federation pass.\n")
	fmt.Fprintf(&buf, "# TYPE hb_fleet_federated_scrape_errors gauge\nhb_fleet_federated_scrape_errors %d\n", scrapeErrs)
	w.Write(buf.Bytes())
}

// handleFleetStatus is the operator one-pager: fleet health state,
// every member with its pinned-session count and per-hop replication
// lag (from the member's fleet.stream_lag_hop* gauges), the session pin
// table, and the tail of the router's flight-recorder timeline.
func (r *Router) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	type memberRow struct {
		ID       string             `json:"id"`
		URL      string             `json:"url"`
		Up       bool               `json:"up"`
		Draining bool               `json:"draining"`
		State    string             `json:"state"`
		Sessions int                `json:"sessions"`
		HopLag   map[string]float64 `json:"hopLag,omitempty"`
	}
	rows := make([]*memberRow, 0, len(r.members))
	byID := make(map[string]*memberRow, len(r.members))
	up, total := 0, len(r.members)
	for _, m := range r.members {
		row := &memberRow{ID: m.ID, URL: m.URL, Up: m.up, Draining: m.draining, State: m.state}
		rows = append(rows, row)
		byID[m.ID] = row
		if m.up {
			up++
		}
	}
	pins := make(map[string]map[string]any, len(r.sessions))
	routes := make([]*sessionRoute, 0, len(r.sessions))
	for _, rt := range r.sessions {
		routes = append(routes, rt)
	}
	r.mu.Unlock()
	for _, rt := range routes {
		rt.mu.Lock()
		pins[rt.id] = map[string]any{"primary": rt.primary, "peers": rt.peers}
		if row := byID[rt.primary]; row != nil {
			row.Sessions++
		}
		rt.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	for _, row := range rows {
		if !row.Up {
			continue
		}
		snap, err := r.scrapeMemberMetrics(row.URL)
		if err != nil {
			continue
		}
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "fleet.stream_lag_hop") {
				if row.HopLag == nil {
					row.HopLag = map[string]float64{}
				}
				row.HopLag[strings.TrimPrefix(name, "fleet.stream_lag_")] = v
			}
		}
	}
	state := "ready"
	switch {
	case up == 0:
		state = "down"
	case up < total:
		state = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"state":    state,
		"up":       up,
		"total":    total,
		"standbys": r.cfg.Standbys,
		"sessions": len(pins),
		"members":  rows,
		"pins":     pins,
		"events":   r.flight.Tail(10),
	})
}

// handleFleetTrace reassembles one distributed trace: the router's own
// fragment (retained in its trace ring) plus the fragment each up
// member retained for the same trace id (GET /v1/traces/{id}), spliced
// by span.Stitch into a single cross-process tree. ?format=chrome
// downloads it as a Chrome trace-event file; the default is the span
// tree as JSON.
func (r *Router) handleFleetTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !span.ValidID(id) {
		httpError(w, http.StatusBadRequest, "bad trace id")
		return
	}
	var frags []*span.Export
	if t := r.traces.Get(id); t != nil {
		frags = append(frags, t.Export())
	}
	for _, m := range r.upMembersSorted() {
		resp, err := r.healthc.Get(m.URL + "/v1/traces/" + id)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var e span.Export
		if json.Unmarshal(body, &e) == nil && e.Root != nil {
			frags = append(frags, &e)
		}
	}
	if len(frags) == 0 {
		httpError(w, http.StatusNotFound, "trace %q not retained anywhere in the fleet", id)
		return
	}
	stitched := span.Stitch(frags)
	if req.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+id+".json"))
		stitched.WriteChrome(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	stitched.WriteJSON(w)
}

// handleMembers reports full member detail for operators.
func (r *Router) handleMembers(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	out := make([]map[string]any, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, map[string]any{
			"id": m.ID, "url": m.URL, "up": m.up,
			"draining": m.draining, "state": m.state,
		})
	}
	ringMembers := r.ring.Members()
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i]["id"].(string) < out[j]["id"].(string) })
	writeJSON(w, http.StatusOK, map[string]any{
		"members": out, "ring": ringMembers, "standbys": r.cfg.Standbys,
	})
}

// handleDrain marks a member draining (no new sessions) and migrates
// its sessions to ring targets. The replica itself stays up; the
// operator stops it afterwards.
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if _, ok := r.setDraining(id, true); !ok {
		httpError(w, http.StatusNotFound, "unknown member %q", id)
		return
	}
	r.flight.Record(flight.Info, "member.drain", "", "", "%s draining (operator request)", id)
	migrated, errs := r.drainMember(id)
	status := http.StatusOK
	if len(errs) > 0 {
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]any{
		"member": id, "draining": true, "migrated": migrated, "errors": errs,
	})
}

// handleUndrain returns a drained member to the ring.
func (r *Router) handleUndrain(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if _, ok := r.setDraining(id, false); !ok {
		httpError(w, http.StatusNotFound, "unknown member %q", id)
		return
	}
	r.flight.Record(flight.Info, "member.undrain", "", "", "%s back in the ring", id)
	writeJSON(w, http.StatusOK, map[string]any{"member": id, "draining": false})
}

// bufferedResponse is a fully buffered upstream response, so a
// transport failure can never leave a half-written downstream reply and
// retries stay safe.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

func (b *bufferedResponse) statusOr0() int {
	if b == nil {
		return 0
	}
	return b.status
}

func (b *bufferedResponse) sessionID() string {
	var m struct {
		Session string `json:"session"`
	}
	if json.Unmarshal(b.body, &m) != nil {
		return ""
	}
	return m.Session
}

func (b *bufferedResponse) writeTo(w http.ResponseWriter) {
	copyProxyHeaders(w.Header(), b.header)
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// forward proxies one request to a member and buffers the reply. Every
// outbound hop is tagged: when the explicit headers carry no trace id,
// the trace on ctx (a proxied client's request trace, or a router
// operation trace from startOp) is injected as X-Trace-Id plus the
// current span id as X-Hb-Parent-Span, so member-side fragments splice
// back into one cross-process tree.
func (r *Router) forward(ctx context.Context, baseURL, method, uri string, hdr http.Header, body []byte) (*bufferedResponse, error) {
	req, err := http.NewRequest(method, baseURL+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if req.Header.Get(span.TraceIDHeader) == "" {
		span.Inject(ctx, req.Header)
	}
	if req.Header.Get("Content-Type") == "" && len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// control issues a short fleet-control request (park, adopt, release,
// forget, export) against a member, trace-tagged from ctx like forward.
func (r *Router) control(ctx context.Context, baseURL, method, uri string, body []byte) (*bufferedResponse, error) {
	return r.forward(ctx, baseURL, method, uri, nil, body)
}

// proxyHeaders is the one whitelist both proxy directions share:
// client→member requests and member→client responses copy exactly
// these headers; hop-by-hop and routing headers stay out. Retry-After
// rides along in both directions so shed/realign signals survive every
// proxied path.
var proxyHeaders = []string{"Content-Type", "Accept", "X-Trace-Id", "Retry-After"}

// copyProxyHeaders copies the shared whitelist from src to dst.
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range proxyHeaders {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
