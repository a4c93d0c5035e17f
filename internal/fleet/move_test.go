// Session-move characterization tests against fake replicas that log
// every session control call the router sends them as "<replica>
// <step>". Each re-homing path (failover, migration with and without a
// journal hand-off, rollback, reconcile's orphan adoption) is pinned
// down by the exact call sequence it emits, the pin it leaves and the
// operation trace it records. Three more tests cover the pin a
// rollback leaves, a client closing a session during a bulk move, and
// member-state reads while a member's health flaps.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hummingbird/internal/telemetry/span"
)

// moveLog collects the control calls the fake replicas receive, in
// arrival order.
type moveLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *moveLog) add(replica, step string) {
	l.mu.Lock()
	l.calls = append(l.calls, replica+" "+step)
	l.mu.Unlock()
}

func (l *moveLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.calls, ", ")
}

// fakeReplica serves the session-move surface of one daemon: the
// replication control calls, park, journal export and close, plus the
// health and inventory reads the router polls (not logged).
type fakeReplica struct {
	id          string
	log         *moveLog
	key         string   // design key its inventory reports
	standby     int64    // frames its standby journal of s holds (0: none)
	hops        []HopLag // the park reply
	parkStatus  int      // overrides the park's 200 when non-zero
	adoptStatus int      // overrides the adopt's 200 when non-zero
	onClose     func()   // runs inside a session DELETE before it answers
	flap        bool     // /readyz fails every other probe
	probes      atomic.Int64
}

func (f *fakeReplica) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	step := func(name string, status *int, reply func() any) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			f.log.add(f.id, name)
			if status != nil && *status != 0 {
				httpError(w, *status, "injected %s failure", name)
				return
			}
			writeJSON(w, http.StatusOK, reply())
		}
	}
	ok := func() any { return map[string]any{"ok": true} }
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if f.flap && f.probes.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"state": "ready"})
	})
	mux.HandleFunc("GET /v1/replication/inventory", func(w http.ResponseWriter, _ *http.Request) {
		inv := map[string]any{"replica": f.id}
		if f.standby > 0 {
			inv["standby"] = []map[string]any{{"session": "s", "next": f.standby, "key": f.key}}
		}
		writeJSON(w, http.StatusOK, inv)
	})
	mux.HandleFunc("POST /v1/replication/sessions/{id}/frames", func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		if len(body) == 0 {
			f.log.add(f.id, "probe")
			writeJSON(w, http.StatusOK, map[string]any{"next": f.standby})
			return
		}
		f.log.add(f.id, "push")
		writeJSON(w, http.StatusOK, map[string]any{"next": 7})
	})
	mux.HandleFunc("POST /v1/replication/sessions/{id}/release", step("release", nil, ok))
	mux.HandleFunc("POST /v1/replication/sessions/{id}/adopt", step("adopt", &f.adoptStatus, ok))
	mux.HandleFunc("POST /v1/replication/sessions/{id}/forget", step("forget", nil, ok))
	mux.HandleFunc("POST /v1/sessions/{id}/park", step("park", &f.parkStatus, func() any {
		return map[string]any{"parked": true, "hops": f.hops}
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/journal", func(w http.ResponseWriter, _ *http.Request) {
		f.log.add(f.id, "export")
		w.Write([]byte("frames"))
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"session": req.PathValue("id")})
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, _ *http.Request) {
		f.log.add(f.id, "close")
		if f.onClose != nil {
			f.onClose()
		}
		writeJSON(w, http.StatusOK, map[string]any{"parked": true})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": []any{}})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// moveKey finds a design key whose ring order over r1..r3 runs r2, r3,
// r1 clockwise: the ring owner is r2 with or without r1, and r2's
// chain in the full ring is [r3 r1].
func moveKey(t *testing.T) string {
	t.Helper()
	full := NewRing([]string{"r1", "r2", "r3"}, 0)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("design:%d", i)
		if full.Lookup(key) == "r2" && slices.Equal(full.Successors(key, "r2", 2), []string{"r3", "r1"}) {
			return key
		}
	}
	t.Fatal("no design key orders the ring r2, r3, r1")
	return ""
}

// moveFleet starts fake replicas r1..r3 behind a router. With pin set,
// session s is pinned to r1 with chain [r2 r3]. configure runs on the
// fakes before they serve.
func moveFleet(t *testing.T, pin bool, configure func(map[string]*fakeReplica)) (*Router, *httptest.Server, *moveLog) {
	t.Helper()
	log := &moveLog{}
	key := moveKey(t)
	fakes := map[string]*fakeReplica{}
	for _, id := range []string{"r1", "r2", "r3"} {
		fakes[id] = &fakeReplica{id: id, log: log, key: key}
	}
	if configure != nil {
		configure(fakes)
	}
	var members []Member
	for _, id := range []string{"r1", "r2", "r3"} {
		members = append(members, Member{ID: id, URL: fakes[id].serve(t).URL})
	}
	r, err := NewRouter(Config{Members: members, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	if pin {
		r.pinSession("s", key, "r1", []string{"r2", "r3"})
	}
	return r, front, log
}

// wantCalls checks the control calls logged so far.
func wantCalls(t *testing.T, log *moveLog, want string) {
	t.Helper()
	if got := log.String(); got != want {
		t.Fatalf("control calls:\n got %s\nwant %s", got, want)
	}
}

// wantPin checks where the router pins session s.
func wantPin(t *testing.T, r *Router, primary string, peers ...string) {
	t.Helper()
	r.mu.Lock()
	rt := r.sessions["s"]
	r.mu.Unlock()
	if rt == nil {
		t.Fatal("session s is not pinned")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.primary != primary || !slices.Equal(rt.peers, peers) {
		t.Fatalf("pin %s %v, want %s %v", rt.primary, rt.peers, primary, peers)
	}
}

// opTrace returns the event kinds recorded for session s, and the span
// name counts and root attributes of the operation trace behind the
// first of them carrying a trace id.
func opTrace(t *testing.T, r *Router) (kinds []string, names map[string]int, root map[string]string) {
	t.Helper()
	events, _ := r.flight.Since(0, "s")
	traceID := ""
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
		if traceID == "" {
			traceID = ev.Trace
		}
	}
	tr := r.traces.Get(traceID)
	if tr == nil {
		t.Fatalf("no retained trace behind events %v", kinds)
	}
	exp := tr.Export()
	names = map[string]int{}
	var walk func(n *span.Node)
	walk = func(n *span.Node) {
		names[n.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(exp.Root)
	return kinds, names, exp.Root.Attrs
}

// drain asks the router to drain r1 and returns the reply's status,
// migrated count and error count. It reports failures with t.Error, so
// a fake's handler goroutine may call it too.
func drain(t *testing.T, front *httptest.Server) (status, migrated, errs int) {
	t.Helper()
	resp, err := http.Post(front.URL+"/fleet/drain/r1", "application/json", nil)
	if err != nil {
		t.Error(err)
		return 0, 0, 0
	}
	defer resp.Body.Close()
	var out struct {
		Migrated int      `json:"migrated"`
		Errors   []string `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Error(err)
	}
	return resp.StatusCode, out.Migrated, len(out.Errors)
}

func TestMoveFailover(t *testing.T) {
	r, _, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
		f["r2"].standby, f["r3"].standby = 5, 3
	})
	r.markDown("r1")
	r.mu.Lock()
	rt := r.sessions["s"]
	r.mu.Unlock()
	target, err := r.failoverSession("s", rt, "r1")
	if err != nil || target != "r2" {
		t.Fatalf("failover: %q %v", target, err)
	}
	wantCalls(t, log, "r2 probe, r3 probe, r3 release, r2 adopt")
	wantPin(t, r, "r2", "r3")
	kinds, names, root := opTrace(t, r)
	if !slices.Contains(kinds, "failover.begin") || !slices.Contains(kinds, "failover.end") {
		t.Fatalf("failover events %v", kinds)
	}
	if names["fleet.failover"] != 1 || names["probe"] != 2 || names["adopt"] != 1 {
		t.Fatalf("failover spans %v", names)
	}
	if root["session"] != "s" || root["from"] != "r1" || root["target"] != "r2" || root["error"] != "" {
		t.Fatalf("failover root %v", root)
	}
}

func TestMoveMigrate(t *testing.T) {
	r, front, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
		f["r1"].hops = []HopLag{{Peer: "r2", Lag: 0}, {Peer: "r3", Lag: 1}}
	})
	if status, migrated, errs := drain(t, front); status != http.StatusOK || migrated != 1 || errs != 0 {
		t.Fatalf("drain: status %d migrated %d errors %d", status, migrated, errs)
	}
	wantCalls(t, log, "r1 park, r3 release, r2 adopt, r1 forget")
	wantPin(t, r, "r2", "r3")
	kinds, names, root := opTrace(t, r)
	if !slices.Contains(kinds, "migrate.end") || slices.Contains(kinds, "migrate.error") {
		t.Fatalf("migrate events %v", kinds)
	}
	if names["fleet.migrate"] != 1 || names["park"] != 1 || names["journal-handoff"] != 0 ||
		names["adopt"] != 1 || names["forget"] != 1 {
		t.Fatalf("migrate spans %v", names)
	}
	if root["session"] != "s" || root["from"] != "r1" || root["target"] != "r2" || root["error"] != "" {
		t.Fatalf("migrate root %v", root)
	}
}

func TestMoveMigrateHandoff(t *testing.T) {
	r, front, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
		f["r1"].hops = []HopLag{{Peer: "r2", Lag: 2}, {Peer: "r3", Lag: 2}}
	})
	if status, migrated, errs := drain(t, front); status != http.StatusOK || migrated != 1 || errs != 0 {
		t.Fatalf("drain: status %d migrated %d errors %d", status, migrated, errs)
	}
	wantCalls(t, log, "r1 park, r1 export, r2 release, r2 push, r3 release, r2 adopt, r1 forget")
	wantPin(t, r, "r2", "r3")
	_, names, _ := opTrace(t, r)
	if names["park"] != 1 || names["journal-handoff"] != 1 || names["adopt"] != 1 || names["forget"] != 1 {
		t.Fatalf("hand-off spans %v", names)
	}
}

func TestMoveRollback(t *testing.T) {
	r, front, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
		f["r1"].hops = []HopLag{{Peer: "r2", Lag: 0}}
		f["r2"].adoptStatus = http.StatusInternalServerError
	})
	if status, migrated, errs := drain(t, front); status != http.StatusConflict || migrated != 0 || errs != 1 {
		t.Fatalf("drain: status %d migrated %d errors %d", status, migrated, errs)
	}
	wantCalls(t, log, "r1 park, r3 release, r2 adopt, r2 release, r3 release, r1 adopt")
	wantPin(t, r, "r1", "r2", "r3")
	kinds, names, root := opTrace(t, r)
	if !slices.Contains(kinds, "migrate.rollback") || !slices.Contains(kinds, "migrate.error") ||
		slices.Contains(kinds, "migrate.end") {
		t.Fatalf("rollback events %v", kinds)
	}
	if names["park"] != 1 || names["rollback"] != 1 || names["adopt"] < 1 || names["forget"] != 0 {
		t.Fatalf("rollback spans %v", names)
	}
	if root["target"] != "r2" || root["error"] == "" {
		t.Fatalf("rollback root %v", root)
	}
}

// TestMoveRollbackRepinsChain: the rollback's adopt wires the source's
// chain on the current ring, and the pin follows it, so a later
// failover probes the standbys that actually receive the stream.
func TestMoveRollbackRepinsChain(t *testing.T) {
	r, front, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
		f["r1"].hops = []HopLag{{Peer: "r2", Lag: 0}}
		f["r2"].adoptStatus = http.StatusInternalServerError
	})
	r.pinSession("s", moveKey(t), "r1", []string{"r3"})
	if status, _, errs := drain(t, front); status != http.StatusConflict || errs != 1 {
		t.Fatalf("drain: status %d errors %d", status, errs)
	}
	wantCalls(t, log, "r1 park, r3 release, r2 adopt, r2 release, r3 release, r1 adopt")
	wantPin(t, r, "r1", "r2", "r3")
}

func TestMoveReconcileOrphan(t *testing.T) {
	r, _, log := moveFleet(t, false, func(f map[string]*fakeReplica) {
		f["r2"].standby, f["r3"].standby = 4, 2
	})
	out := r.Reconcile()
	if out["adopted"] != 1 || out["pinned"] != 0 {
		t.Fatalf("reconcile: %v", out)
	}
	wantCalls(t, log, "r3 release, r1 release, r2 adopt")
	wantPin(t, r, "r2", "r3", "r1")
	kinds, names, root := opTrace(t, r)
	if !slices.Equal(kinds, []string{"reconcile.adopt"}) {
		t.Fatalf("reconcile events for s: %v", kinds)
	}
	if names["fleet.reconcile"] != 1 || names["inventory"] != 1 || names["adopt"] != 1 {
		t.Fatalf("reconcile spans %v", names)
	}
	if root["adopted"] != "1" {
		t.Fatalf("reconcile root %v", root)
	}
}

// TestMoveSkipsClosedSession: a session its client closes while a bulk
// move has it in hand answers the move's park with 404. That is the
// close winning the race, not a failed move: the drain skips it. The
// same 404 on a session nobody closed is still a reported error.
func TestMoveSkipsClosedSession(t *testing.T) {
	t.Run("closing", func(t *testing.T) {
		var front *httptest.Server
		drained := make(chan [3]int, 1)
		r, front, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
			f["r1"].parkStatus = http.StatusNotFound
			// The drain runs while the close is in flight on r1.
			f["r1"].onClose = func() {
				status, migrated, errs := drain(t, front)
				drained <- [3]int{status, migrated, errs}
			}
		})
		req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/sessions/s", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("close: %d", resp.StatusCode)
		}
		if got := <-drained; got != [3]int{http.StatusOK, 0, 0} {
			t.Fatalf("drain during close: status, migrated, errors %v", got)
		}
		wantCalls(t, log, "r1 close, r1 park, r2 release, r3 release")
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.sessions["s"] != nil {
			t.Fatal("closed session still pinned")
		}
	})
	t.Run("not closing", func(t *testing.T) {
		r, front, log := moveFleet(t, true, func(f map[string]*fakeReplica) {
			f["r1"].parkStatus = http.StatusNotFound
		})
		if status, migrated, errs := drain(t, front); status != http.StatusConflict || migrated != 0 || errs != 1 {
			t.Fatalf("drain: status %d migrated %d errors %d", status, migrated, errs)
		}
		wantCalls(t, log, "r1 park")
		wantPin(t, r, "r1", "r2", "r3")
	})
}

// TestMemberStateReadsUnderFlap proxies session requests while the
// health loop flips their primary down and up: the request path must
// read member state only under the router's lock (run with -race).
func TestMemberStateReadsUnderFlap(t *testing.T) {
	log := &moveLog{}
	f := &fakeReplica{id: "r1", log: log, flap: true}
	r, err := NewRouter(Config{
		Members:   []Member{{ID: "r1", URL: f.serve(t).URL}},
		FailAfter: 1,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	r.pinSession("s", "design:0", "r1", nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.PollOnce()
		}
	}()
	deadline := time.After(10 * time.Second)
	for served := 0; ; served++ {
		select {
		case <-done:
			if served == 0 {
				t.Fatal("no request proxied while the member flapped")
			}
			return
		case <-deadline:
			t.Fatal("health polls did not finish")
		default:
		}
		resp, err := http.Get(front.URL + "/v1/sessions/s")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("proxied read: %d", resp.StatusCode)
		}
	}
}
