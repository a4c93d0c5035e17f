package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/fleet"
	"hummingbird/internal/journal"
	"hummingbird/internal/workload"
)

// serve drives the handler in process, safe to call from any goroutine,
// and decodes the JSON answer.
func serve(h http.Handler, method, path string, body any) (int, map[string]any) {
	var b []byte
	if body != nil {
		b, _ = json.Marshal(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	m := map[string]any{}
	json.Unmarshal(rec.Body.Bytes(), &m)
	return rec.Code, m
}

var refsGauge = regexp.MustCompile(`(?m)^hb_compile_cache_refs(\{[^}]*\})? 0$`)

// assertNoReferences checks that no compile-cache reference outlived the
// sessions: the cache and its /metrics gauge both read empty.
func assertNoReferences(t *testing.T, srv *server) {
	t.Helper()
	if d, r := srv.compile.designs(), srv.compile.totalRefs(); d != 0 || r != 0 {
		t.Fatalf("compile cache holds designs=%d refs=%d with no session left, want 0/0", d, r)
	}
	rec := httptest.NewRecorder()
	srv.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !refsGauge.Match(rec.Body.Bytes()) {
		t.Fatal("/metrics does not read hb_compile_cache_refs 0")
	}
}

// TestNoReferenceOutlivesSessions takes a session out by each way out of
// service and checks its compile-cache reference goes with it: every
// engine that leaves service is released.
func TestNoReferenceOutlivesSessions(t *testing.T) {
	edit := map[string]any{"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "1ps"}}}
	open := map[string]any{"design": pipeSrc}
	for _, tc := range []struct {
		name string
		// out takes the open session id out of service, or returns a
		// server restarted onto a journal that cannot be restored.
		out func(t *testing.T, srv *server, h http.Handler, id string) *server
	}{
		{"close", func(t *testing.T, srv *server, h http.Handler, id string) *server {
			if status, m := serve(h, "DELETE", "/v1/sessions/"+id, nil); status != http.StatusOK {
				t.Fatalf("close: %d %v", status, m)
			}
			return srv
		}},
		{"park", func(t *testing.T, srv *server, h http.Handler, id string) *server {
			if status, m := serve(h, "POST", "/v1/sessions/"+id+"/park", nil); status != http.StatusOK {
				t.Fatalf("park: %d %v", status, m)
			}
			return srv
		}},
		{"panic quarantine", func(t *testing.T, srv *server, h http.Handler, id string) *server {
			arm(t, "incr.classify", "1*panic(chaos)")
			if status, m := serve(h, "POST", "/v1/sessions/"+id+"/edits", edit); status != http.StatusInternalServerError {
				t.Fatalf("panicking edit: %d %v", status, m)
			}
			return srv
		}},
		{"dead journal quarantine", func(t *testing.T, srv *server, h http.Handler, id string) *server {
			arm(t, "journal.append", "1*error(disk gone)")
			if status, m := serve(h, "POST", "/v1/sessions/"+id+"/edits", edit); status != http.StatusServiceUnavailable {
				t.Fatalf("edit on a dead journal: %d %v", status, m)
			}
			return srv
		}},
		{"edit fails to re-apply at recovery", func(t *testing.T, _ *server, _ http.Handler, _ string) *server {
			dir := t.TempDir()
			jm := newJournal(t, dir)
			jw, err := jm.Create("s9", &openRequest{Design: pipeSrc})
			if err != nil {
				t.Fatal(err)
			}
			if err := jw.Append(journal.KindEdits, []editJSON{{Op: "adjust", Inst: "nope", Delta: "1ns"}}); err != nil {
				t.Fatal(err)
			}
			jw.Close()
			srv := newServer(celllib.Default(), serverConfig{maxSessions: 4, journal: newJournal(t, dir)})
			if n := srv.recoverSessions(); n != 0 {
				t.Fatalf("restored %d sessions from a journal that cannot re-apply", n)
			}
			if _, ok := srv.quarantineInfo("s9"); !ok {
				t.Fatal("unrestorable journal not quarantined")
			}
			return srv
		}},
		{"adopt refused at the limit", func(t *testing.T, srv *server, h http.Handler, id string) *server {
			jw, err := srv.cfg.journal.Create("r2-s1", &openRequest{Design: pipeSrc})
			if err != nil {
				t.Fatal(err)
			}
			jw.Close()
			if status, m := serve(h, "POST", "/v1/replication/sessions/r2-s1/adopt", nil); status != http.StatusServiceUnavailable {
				t.Fatalf("adopt past the limit: %d %v", status, m)
			}
			if status, m := serve(h, "DELETE", "/v1/sessions/"+id, nil); status != http.StatusOK {
				t.Fatalf("close: %d %v", status, m)
			}
			return srv
		}},
		{"open whose journal create fails", func(t *testing.T, srv *server, h http.Handler, id string) *server {
			if status, m := serve(h, "DELETE", "/v1/sessions/"+id, nil); status != http.StatusOK {
				t.Fatalf("close: %d %v", status, m)
			}
			arm(t, "journal.append", "1*error(disk gone)")
			if status, m := serve(h, "POST", "/v1/sessions", open); status != http.StatusServiceUnavailable {
				t.Fatalf("open without a journal: %d %v", status, m)
			}
			return srv
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv := newServer(celllib.Default(), serverConfig{maxSessions: 1, journal: newJournal(t, dir)})
			h := srv.handler()
			status, m := serve(h, "POST", "/v1/sessions", open)
			if status != http.StatusCreated {
				t.Fatalf("open: %d %v", status, m)
			}
			if d, r := srv.compile.designs(), srv.compile.totalRefs(); d != 1 || r != 1 {
				t.Fatalf("open session holds designs=%d refs=%d, want 1/1", d, r)
			}
			id := m["session"].(string)
			srv = tc.out(t, srv, h, id)
			srv.mu.Lock()
			live := len(srv.sessions)
			srv.mu.Unlock()
			if live != 0 {
				t.Fatalf("%d sessions still open", live)
			}
			assertNoReferences(t, srv)
		})
	}
}

// TestStandbyHoldsNoCompiledDesign streams a DES session's journal from
// sequence 0 to a replica, as a migration hand-off does. The replica holds
// the frames and no compiled design; the adopt replays them into a
// session in the primary's state, and its close leaves no reference.
func TestStandbyHoldsNoCompiledDesign(t *testing.T) {
	primary, path, edits := openDES(t, serverConfig{maxSessions: 4, replicaID: "r1", journal: newJournal(t, t.TempDir())})
	ph := primary.handler()
	do(t, ph, "POST", path+"/edits", edits[0], http.StatusOK)
	id := strings.TrimPrefix(path, "/v1/sessions/")
	rec := httptest.NewRecorder()
	ph.ServeHTTP(rec, httptest.NewRequest("GET", path+"/journal", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Hb-Frames") != "2" {
		t.Fatalf("export: %d, %s frames", rec.Code, rec.Header().Get("X-Hb-Frames"))
	}

	replica := newServer(celllib.Default(), serverConfig{maxSessions: 4, replicaID: "r2", journal: newJournal(t, t.TempDir())})
	rh := replica.handler()
	req := httptest.NewRequest("POST", "/v1/replication/sessions/"+id+"/frames", rec.Body)
	req.Header.Set(fleet.FirstSeqHeader, "0")
	pushed := httptest.NewRecorder()
	rh.ServeHTTP(pushed, req)
	if pushed.Code != http.StatusOK || !strings.Contains(pushed.Body.String(), `"next": 2`) {
		t.Fatalf("push: %d %s", pushed.Code, pushed.Body)
	}
	time.Sleep(time.Second)
	assertNoReferences(t, replica)

	m := do(t, rh, "POST", "/v1/replication/sessions/"+id+"/adopt", "", http.StatusOK)
	if m["adopted"] != true || m["records"] != float64(2) {
		t.Fatalf("adopt: %v", m)
	}
	want := do(t, ph, "GET", path, "", http.StatusOK)["state_hash"]
	if got := do(t, rh, "GET", path, "", http.StatusOK)["state_hash"]; got != want {
		t.Fatalf("adopted session's state %v, primary's %v", got, want)
	}
	do(t, rh, "DELETE", path, "", http.StatusOK)
	assertNoReferences(t, replica)
}

// TestRetiredSessionReadsClosed forces the interleaving a session lookup
// and a close can take: a summary has found the session in the table and
// waits on its lock while a close retires it. The summary must read the
// session as closed — not dereference the released engine, answer 500
// and quarantine an id nobody is using.
func TestRetiredSessionReadsClosed(t *testing.T) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4})
	h := srv.handler()
	status, m := serve(h, "POST", "/v1/sessions", map[string]any{"design": pipeSrc})
	if status != http.StatusCreated {
		t.Fatalf("open: %d %v", status, m)
	}
	id := m["session"].(string)

	ss := srv.session(id)
	ss.mu.Lock() // a request in progress on the session
	summary := make(chan answerOf, 1)
	go func() {
		status, m := serve(h, "GET", "/v1/sessions/"+id, nil)
		summary <- answerOf{status, m}
	}()
	waitOnMutex(t, "handleSummary")
	srv.retire(ss, dropJournal, "") // what the close does, under the same lock
	ss.mu.Unlock()

	got := <-summary
	if got.status != http.StatusNotFound || got.body["error"] != "session closed" {
		t.Fatalf("summary of a session retired while it waited: %d %v", got.status, got.body)
	}
	if status, m := serve(h, "GET", "/v1/sessions", nil); status != http.StatusOK || len(m["sessions"].([]any)) != 0 {
		t.Fatalf("list after close: %d %v", status, m)
	}
	status, m = serve(h, "GET", "/readyz", nil)
	if status != http.StatusOK || m["quarantined"] != float64(0) {
		t.Fatalf("readyz after close: %d %v", status, m)
	}
}

// waitOnMutex waits until a goroutine running fn is parked on a mutex.
func waitOnMutex(t *testing.T, fn string) {
	t.Helper()
	waitParked(t, fn, "[sync.Mutex.Lock")
}

// waitParked waits until a goroutine running fn is parked with the given
// wait reason, as its stack trace's header shows it.
func waitParked(t *testing.T, fn, reason string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, reason) && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine in %s parked in %s", fn, reason)
}

// TestOpenRacesAdoptOfOwnID opens a session while an adopt replays the
// journal of a session coming home under this replica's next own-form
// id. The adopt claims the id before its replay, so the open gets the
// next one: the two sessions end live, with distinct ids and journal
// paths.
func TestOpenRacesAdoptOfOwnID(t *testing.T) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4, replicaID: "r1", journal: newJournal(t, t.TempDir())})
	h := srv.handler()
	const home = "r1-s1" // what the allocator hands out next
	jw, err := srv.cfg.journal.Create(home, &openRequest{Design: pipeSrc})
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()
	// The adopt's replay sleeps in its first cluster analysis; the open
	// runs meanwhile, past the spent failpoint.
	arm(t, "sta.cluster", "1*sleep(300ms)")
	adopted := make(chan answerOf, 1)
	go func() {
		status, m := serve(h, "POST", "/v1/replication/sessions/"+home+"/adopt", nil)
		adopted <- answerOf{status, m}
	}()
	waitParked(t, "handleReplAdopt", "[sleep")
	status, m := serve(h, "POST", "/v1/sessions", map[string]any{"design": pipeSrc})
	if status != http.StatusCreated {
		t.Fatalf("open during the adopt: %d %v", status, m)
	}
	opened := m["session"].(string)
	if a := <-adopted; a.status != http.StatusOK || a.body["adopted"] != true {
		t.Fatalf("adopt: %d %v", a.status, a.body)
	}
	if opened == home {
		t.Fatalf("the open took the adopted session's id %s", home)
	}
	if srv.cfg.journal.Path(opened) == srv.cfg.journal.Path(home) {
		t.Fatalf("sessions %s and %s share the journal %s", opened, home, srv.cfg.journal.Path(home))
	}
	for _, id := range []string{home, opened} {
		if status, m := serve(h, "GET", "/v1/sessions/"+id, nil); status != http.StatusOK {
			t.Fatalf("session %s after the race: %d %v", id, status, m)
		}
	}
	srv.mu.Lock()
	live := len(srv.sessions)
	srv.mu.Unlock()
	if live != 2 {
		t.Fatalf("%d sessions live after an open and an adopt, want 2", live)
	}
}

// TestAdmitRefusesLiveID admits a session under an id another live
// session holds: admit refuses it with errLiveID, answered 409, and the
// live session keeps its place in the table.
func TestAdmitRefusesLiveID(t *testing.T) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4})
	h := srv.handler()
	status, m := serve(h, "POST", "/v1/sessions", map[string]any{"design": pipeSrc})
	if status != http.StatusCreated {
		t.Fatalf("open: %d %v", status, m)
	}
	id := m["session"].(string)
	live := srv.session(id)
	twin := &sess{id: id, created: time.Now()}
	err := srv.admit(twin, true)
	if !errors.Is(err, errLiveID) {
		t.Fatalf("admit of a live id: %v, want errLiveID", err)
	}
	rec := httptest.NewRecorder()
	refuseAdmission(rec, err)
	if rec.Code != http.StatusConflict {
		t.Fatalf("refused admission answered %d, want 409", rec.Code)
	}
	srv.retire(twin, keepJournal, "")
	if srv.session(id) != live {
		t.Fatal("retiring the refused twin took the live session out of the table")
	}
}

// TestSessionLimitUnderConcurrentOpens opens more sessions at once than
// the limit allows: exactly the limit is admitted, every other open is
// refused with 503, and no refused open leaves a compile-cache reference.
func TestSessionLimitUnderConcurrentOpens(t *testing.T) {
	const limit, opens = 2, 8
	srv := newServer(celllib.Default(), serverConfig{maxSessions: limit})
	h := srv.handler()
	body := map[string]any{"design": designText(t, workload.ALU)}
	answers := make(chan answerOf, opens)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < opens; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, m := serve(h, "POST", "/v1/sessions", body)
			answers <- answerOf{status, m}
		}()
	}
	close(start)
	wg.Wait()
	close(answers)
	var ids []string
	refused := 0
	for a := range answers {
		switch a.status {
		case http.StatusCreated:
			ids = append(ids, a.body["session"].(string))
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Errorf("open: %d %v", a.status, a.body)
		}
	}
	if len(ids) != limit || refused != opens-limit {
		t.Fatalf("%d concurrent opens against a limit of %d: %d admitted, %d refused", opens, limit, len(ids), refused)
	}
	for _, id := range ids {
		if status, m := serve(h, "DELETE", "/v1/sessions/"+id, nil); status != http.StatusOK {
			t.Fatalf("close %s: %d %v", id, status, m)
		}
	}
	assertNoReferences(t, srv)
}

type answerOf struct {
	status int
	body   map[string]any
}

func newJournal(t *testing.T, dir string) *journal.Manager {
	t.Helper()
	jm, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	return jm
}

func arm(t *testing.T, name, spec string) {
	t.Helper()
	if err := failpoint.Arm(name, spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)
}
