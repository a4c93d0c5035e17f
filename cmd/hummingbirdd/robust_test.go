package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/incremental"
	"hummingbird/internal/journal"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
)

// chainSrc builds a pipeline of n register-separated inverter stages. Its
// point is cluster count: analyses visit ~n clusters, so a sleep armed on
// the sta.cluster failpoint stretches them predictably.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("design chain\n")
	b.WriteString("clock phi1 period 10ns rise 0 fall 4ns\n")
	b.WriteString("clock phi2 period 10ns rise 5ns fall 9ns\n")
	b.WriteString("input IN clock phi2 edge fall offset 0\n")
	b.WriteString("output OUT clock phi2 edge fall offset -0.5ns\n")
	prev := "IN"
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "inst g%d INV_X1 A=%s Y=n%d\n", i, prev, i)
		fmt.Fprintf(&b, "inst l%d DFF_X1 D=n%d CK=phi2 Q=q%d\n", i, i, i)
		prev = fmt.Sprintf("q%d", i)
	}
	fmt.Fprintf(&b, "inst gout BUF_X1 A=%s Y=OUT\n", prev)
	b.WriteString("end\n")
	return b.String()
}

// fullEdit is an add-instance edit: never delay-only, so it forces a full
// re-analysis over every cluster.
func fullEdit(name string) map[string]any {
	return map[string]any{
		"edits": []map[string]any{{"op": "add", "inst": name, "ref": "BUF_X1",
			"conns": map[string]string{"A": "n0", "Y": name + "_out"}}},
	}
}

// newTestServerCfg is newTestServer with full control over the config.
func newTestServerCfg(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(celllib.Default(), cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// rawPost sends a request body verbatim (no JSON marshalling), for
// malformed-input tests.
func rawPost(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return resp.StatusCode, m
}

func TestMalformedJSONRejected(t *testing.T) {
	ts := newTestServer(t, 4)
	if status, m := rawPost(t, ts, "/v1/sessions", "{not json"); status != http.StatusBadRequest {
		t.Fatalf("malformed open: %d %v", status, m)
	}
	id, _ := openSession(t, ts, pipeSrc)
	if status, m := rawPost(t, ts, "/v1/sessions/"+id+"/edits", `{"edits": [`); status != http.StatusBadRequest {
		t.Fatalf("malformed edits: %d %v", status, m)
	}
	// The session survives the garbage.
	if status, _ := call(t, ts, "GET", "/v1/sessions/"+id, nil); status != http.StatusOK {
		t.Fatalf("session gone after malformed request: %d", status)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t, 4)
	id, _ := openSession(t, ts, pipeSrc)
	// The edits endpoint caps bodies at 1 MiB.
	big := `{"edits":[{"op":"adjust","inst":"` + strings.Repeat("x", 2<<20) + `","delta":"1ns"}]}`
	status, m := rawPost(t, ts, "/v1/sessions/"+id+"/edits", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized edits body: %d %v", status, m)
	}
	// The open endpoint caps at 16 MiB.
	bigOpen := `{"design":"` + strings.Repeat("y", 17<<20) + `"}`
	status, m = rawPost(t, ts, "/v1/sessions", bigOpen)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized open body: %d %v", status, m)
	}
	if status, _ := call(t, ts, "GET", "/v1/sessions/"+id, nil); status != http.StatusOK {
		t.Fatalf("session gone after oversized request: %d", status)
	}
}

func TestUnknownSessionEndpoints(t *testing.T) {
	ts := newTestServer(t, 4)
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/s999"},
		{"GET", "/v1/sessions/s999/report"},
		{"GET", "/v1/sessions/s999/constraints"},
		{"DELETE", "/v1/sessions/s999"},
	} {
		if status, m := call(t, ts, probe.method, probe.path, nil); status != http.StatusNotFound {
			t.Errorf("%s %s: %d %v", probe.method, probe.path, status, m)
		}
	}
	status, m := call(t, ts, "POST", "/v1/sessions/s999/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g1", "delta": "1ns"}},
	})
	if status != http.StatusNotFound {
		t.Errorf("edits on unknown session: %d %v", status, m)
	}
}

// TestEditCloseRace hammers one session with edits while closing it from
// another goroutine: every response must be a clean 200 or 404, never a
// panic or a hung request. Run with -race this doubles as the data-race
// check for the close path.
func TestEditCloseRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		ts := newTestServer(t, 4)
		id, _ := openSession(t, ts, pipeSrc)
		var wg sync.WaitGroup
		errs := make(chan error, 9)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
					"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "10ps"}},
				})
				if status != http.StatusOK && status != http.StatusNotFound {
					errs <- fmt.Errorf("edit %d: %d %v", w, status, m)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, m := call(t, ts, "DELETE", "/v1/sessions/"+id, nil)
			if status != http.StatusOK {
				errs <- fmt.Errorf("close: %d %v", status, m)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		ts.Close()
	}
}

// TestPanicQuarantinesOnlyTheFaultingSession injects a panic into one
// session's edit path and checks the blast radius: that session is
// quarantined (503 with the diagnostic), the sibling session keeps
// serving, and closing the quarantined id releases it.
func TestPanicQuarantinesOnlyTheFaultingSession(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	before := mPanicsRecovered.Load()

	ts := newTestServer(t, 4)
	victim, _ := openSession(t, ts, pipeSrc)
	bystander, _ := openSession(t, ts, pipeSrc)

	if err := failpoint.Arm("incr.classify", "1*panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)

	status, m := call(t, ts, "POST", "/v1/sessions/"+victim+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "1ps"}},
	})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking edit: %d %v", status, m)
	}
	if got := mPanicsRecovered.Load(); got != before+1 {
		t.Fatalf("server.panics_recovered = %d, want %d", got, before+1)
	}

	// The victim is quarantined: every op fails fast with the diagnostic.
	status, m = call(t, ts, "GET", "/v1/sessions/"+victim, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("quarantined summary: %d %v", status, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "quarantined") || !strings.Contains(msg, "chaos") {
		t.Fatalf("quarantine diagnostic missing: %v", m)
	}
	status, _ = call(t, ts, "POST", "/v1/sessions/"+victim+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "1ps"}},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("quarantined edit: %d", status)
	}

	// The bystander is untouched.
	status, m = call(t, ts, "POST", "/v1/sessions/"+bystander+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "1ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("bystander edit after quarantine: %d %v", status, m)
	}

	// DELETE acknowledges the fault and releases the id.
	status, m = call(t, ts, "DELETE", "/v1/sessions/"+victim, nil)
	if status != http.StatusOK || m["quarantined"] != true {
		t.Fatalf("close quarantined: %d %v", status, m)
	}
	if status, _ := call(t, ts, "GET", "/v1/sessions/"+victim, nil); status != http.StatusNotFound {
		t.Fatalf("quarantined id not released after close: %d", status)
	}
}

// TestRequestDeadlineCancelsAnalysis stalls the analyzer via the
// sta.cluster failpoint and checks a typed "cancelled" error comes back
// once the per-request deadline expires, and that the session recovers
// (the next edit rebuilds from scratch).
func TestRequestDeadlineCancelsAnalysis(t *testing.T) {
	_, ts := newTestServerCfg(t, serverConfig{
		maxSessions:    4,
		requestTimeout: 150 * time.Millisecond,
	})
	id, _ := openSession(t, ts, chainSrc(25))

	// Every cluster visit sleeps 20ms; a full re-analysis of the 25-stage
	// chain cannot finish inside the 150ms deadline and must be cancelled
	// between clusters.
	if err := failpoint.Arm("sta.cluster", "sleep(20ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)

	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", fullEdit("tap"))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline expiry: %d %v", status, m)
	}
	if m["kind"] != "cancelled" || m["partial"] != true {
		t.Fatalf("cancelled error not typed: %v", m)
	}

	failpoint.DisarmAll()
	status, m = call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g0", "delta": "1ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit after cancelled analysis: %d %v", status, m)
	}
}

// TestAdmissionControlSheds fills the single in-flight slot with a stalled
// analysis and checks the next request is shed with 429 + Retry-After
// after the queue timeout.
func TestAdmissionControlSheds(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	shedBefore := mRequestsShed.Load()

	srv, ts := newTestServerCfg(t, serverConfig{
		maxSessions:  4,
		maxInflight:  1,
		queueTimeout: 50 * time.Millisecond,
	})
	id, _ := openSession(t, ts, chainSrc(25))

	if err := failpoint.Arm("sta.cluster", "sleep(30ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)

	slow := make(chan struct{})
	go func() {
		defer close(slow)
		call(t, ts, "POST", "/v1/sessions/"+id+"/edits", fullEdit("tap"))
	}()
	// Wait until the slow request holds the slot.
	deadline := time.Now().Add(time.Second)
	for len(srv.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never acquired the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := mRequestsShed.Load(); got != shedBefore+1 {
		t.Fatalf("server.requests_shed = %d, want %d", got, shedBefore+1)
	}
	<-slow
}

// TestJournalReplayRestoresSessions opens sessions against a journaling
// server, applies edits, then brings up a second server over the same
// journal directory — simulating a crash-restart — and checks the
// restored sessions are bit-identical (same state hash) to both the
// pre-crash server and an independently driven reference engine.
func TestJournalReplayRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm1})

	id, _ := openSession(t, ts, pipeSrc)
	batches := [][]map[string]any{
		{{"op": "adjust", "inst": "g2", "delta": "250ps"}},
		{{"op": "resize", "inst": "g3", "to": "INV_X4"},
			{"op": "add", "inst": "tap1", "ref": "BUF_X1",
				"conns": map[string]string{"A": "n2", "Y": "tap1_out"}}},
	}
	for i, b := range batches {
		status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{"edits": b})
		if status != http.StatusOK {
			t.Fatalf("batch %d: %d %v", i, status, m)
		}
	}
	_, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil)
	preCrashHash, _ := sum["state_hash"].(string)
	if preCrashHash == "" {
		t.Fatalf("no state hash: %v", sum)
	}

	// Reference: the same design and edit stream driven directly.
	d, err := netlist.ParseString(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := incremental.Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	refEdits := []incremental.Edit{
		{Op: incremental.Adjust, Inst: "g2", Delta: 250},
		{Op: incremental.Resize, Inst: "g3", To: "INV_X4"},
		{Op: incremental.AddInst, New: &netlist.Instance{Name: "tap1", Ref: "BUF_X1",
			Conns: map[string]string{"A": "n2", "Y": "tap1_out"}}},
	}
	if _, err := ref.Apply(refEdits[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(refEdits[1], refEdits[2]); err != nil {
		t.Fatal(err)
	}
	if ref.StateHash() != preCrashHash {
		t.Fatalf("reference %s != server %s before crash", ref.StateHash(), preCrashHash)
	}

	// "Crash": abandon the first server without closing the session, then
	// restart over the same journal directory.
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	replayBefore := mReplayed.Load()
	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv2.recoverSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if got := mReplayed.Load(); got != replayBefore+1 {
		t.Fatalf("server.sessions_replayed = %d, want %d", got, replayBefore+1)
	}

	status, sum2 := call(t, ts2, "GET", "/v1/sessions/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("replayed session missing: %d %v", status, sum2)
	}
	if sum2["state_hash"] != preCrashHash {
		t.Fatalf("replayed state %v != pre-crash %s", sum2["state_hash"], preCrashHash)
	}

	// The restored session keeps journaling: another edit, another restart.
	status, m := call(t, ts2, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "remove", "inst": "tap1"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit after replay: %d %v", status, m)
	}
	if _, err := ref.Apply(incremental.Edit{Op: incremental.RemoveInst, Inst: "tap1"}); err != nil {
		t.Fatal(err)
	}
	jm3, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm3})
	if n := srv3.recoverSessions(); n != 1 {
		t.Fatalf("second recovery: %d sessions, want 1", n)
	}
	_, sum3 := call(t, ts3, "GET", "/v1/sessions/"+id, nil)
	if sum3["state_hash"] != ref.StateHash() {
		t.Fatalf("second replay state %v != reference %s", sum3["state_hash"], ref.StateHash())
	}

	// A new session on the restored server must not collide with the
	// replayed id.
	id2, _ := openSession(t, ts3, pipeSrc)
	if id2 == id {
		t.Fatalf("restored server reissued id %s", id)
	}
}

// TestJournalReplayToleratesTornTail appends a torn half-record to a
// session's journal (what a crash mid-write leaves behind) and checks
// replay stops at the last intact record instead of failing.
func TestJournalReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm1})
	id, _ := openSession(t, ts, pipeSrc)
	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "250ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit: %d %v", status, m)
	}
	_, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil)
	ackedHash := sum["state_hash"]

	// Tear the tail: a record that lost its end (and its fsync) to the
	// crash.
	f, err := os.OpenFile(filepath.Join(dir, id+".journal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"kind":"edits","seq":3,"bo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv2.recoverSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	_, sum2 := call(t, ts2, "GET", "/v1/sessions/"+id, nil)
	if sum2["state_hash"] != ackedHash {
		t.Fatalf("torn-tail replay state %v != acked %v", sum2["state_hash"], ackedHash)
	}
}

// TestBrokenJournalQuarantinedOnReplay plants an undecodable journal and
// checks the restart quarantines it (rename + diagnostic) instead of
// refusing to start or silently dropping it.
func TestBrokenJournalQuarantinedOnReplay(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A journal whose open record references an unparsable design.
	w, err := jm1.Create("s7", &openRequest{Design: "design broken\n"})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv.recoverSessions(); n != 0 {
		t.Fatalf("recovered %d sessions from a broken journal", n)
	}
	status, m := call(t, ts, "GET", "/v1/sessions/s7", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("broken-journal session not quarantined: %d %v", status, m)
	}
	// The journal file was set aside, not deleted.
	if _, err := os.Stat(filepath.Join(dir, "s7.journal.quarantined")); err != nil {
		t.Fatalf("quarantined journal file missing: %v", err)
	}
	// The quarantined id is still claimed: a fresh open must not collide
	// with it (a collision would 503 every request on the new session).
	id, _ := openSession(t, ts, pipeSrc)
	if id == "s7" {
		t.Fatal("new session reused the quarantined id")
	}
	status, m = call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "1ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit on fresh session after quarantine: %d %v", status, m)
	}
}

// TestCancelledEditKeepsJournalConsistent is the cancelled-mid-batch
// consistency check: a delay-only edit batch that times out must leave the
// live engine, the journal, and a retry all agreeing. The engine rolls the
// batch back atomically, so the 504 means "nothing happened" — the summary
// hash is unchanged, a crash-replay reproduces the live state, and the
// client's retry applies the batch exactly once.
func TestCancelledEditKeepsJournalConsistent(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serverConfig{
		maxSessions:    4,
		journal:        jm1,
		requestTimeout: 50 * time.Millisecond,
	})
	id, _ := openSession(t, ts, pipeSrc)
	_, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil)
	openHash, _ := sum["state_hash"].(string)
	if openHash == "" {
		t.Fatalf("no state hash: %v", sum)
	}

	// The first cluster visit sleeps past the whole 50ms request deadline,
	// so the incremental recompute is cancelled after the edits were
	// already patched into the engine — the rollback path under test.
	if err := failpoint.Arm("sta.cluster", "sleep(150ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)

	batch := map[string]any{
		"edits": []map[string]any{
			{"op": "adjust", "inst": "g2", "delta": "250ps"},
			{"op": "resize", "inst": "g3", "to": "INV_X4"},
		},
	}
	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", batch)
	if status != http.StatusGatewayTimeout || m["kind"] != "cancelled" {
		t.Fatalf("cancelled edit: %d %v", status, m)
	}

	// Nothing happened: the live state still matches the pre-batch hash.
	failpoint.DisarmAll()
	_, sum = call(t, ts, "GET", "/v1/sessions/"+id, nil)
	if sum["state_hash"] != openHash {
		t.Fatalf("cancelled batch leaked into live state: %v != %s", sum["state_hash"], openHash)
	}

	// The retry applies the batch exactly once.
	status, m = call(t, ts, "POST", "/v1/sessions/"+id+"/edits", batch)
	if status != http.StatusOK {
		t.Fatalf("retry after cancel: %d %v", status, m)
	}
	_, sum = call(t, ts, "GET", "/v1/sessions/"+id, nil)
	liveHash, _ := sum["state_hash"].(string)

	// Crash-restart: the journal must reproduce the live state, which
	// would fail if the cancelled attempt had mutated the engine without
	// being journalled (or been journalled without taking effect).
	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv2.recoverSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	_, sum2 := call(t, ts2, "GET", "/v1/sessions/"+id, nil)
	if sum2["state_hash"] != liveHash {
		t.Fatalf("replayed state %v != live %s", sum2["state_hash"], liveHash)
	}

	// Reference: the same design with the batch applied once. Equality
	// here is the double-apply check.
	d, err := netlist.ParseString(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := incremental.Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(
		incremental.Edit{Op: incremental.Adjust, Inst: "g2", Delta: 250},
		incremental.Edit{Op: incremental.Resize, Inst: "g3", To: "INV_X4"},
	); err != nil {
		t.Fatal(err)
	}
	if ref.StateHash() != liveHash {
		t.Fatalf("reference %s != live %s (batch applied twice?)", ref.StateHash(), liveHash)
	}

	// The replayed session keeps working and tracking the reference.
	follow := map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g1", "delta": "50ps"}},
	}
	if status, m := call(t, ts2, "POST", "/v1/sessions/"+id+"/edits", follow); status != http.StatusOK {
		t.Fatalf("edit after replay: %d %v", status, m)
	}
	if _, err := ref.Apply(incremental.Edit{Op: incremental.Adjust, Inst: "g1", Delta: 50}); err != nil {
		t.Fatal(err)
	}
	_, sum2 = call(t, ts2, "GET", "/v1/sessions/"+id, nil)
	if sum2["state_hash"] != ref.StateHash() {
		t.Fatalf("post-replay edit diverged: %v != %s", sum2["state_hash"], ref.StateHash())
	}
}

// TestRecoveryRewriteFailureQuarantines fails the recovery-time journal
// compaction and checks the daemon quarantines the session rather than
// serving it without durability — and that the set-aside journal still
// holds every acknowledged record, so a later restart can recover it.
func TestRecoveryRewriteFailureQuarantines(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm1})
	id, _ := openSession(t, ts, pipeSrc)
	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "250ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit: %d %v", status, m)
	}
	_, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil)
	ackedHash := sum["state_hash"]

	// "Crash", then fail the compaction rewrite during recovery.
	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("journal.append", "1*error(disk full)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)
	srv2, ts2 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv2.recoverSessions(); n != 0 {
		t.Fatalf("recovered %d sessions despite rewrite failure", n)
	}
	if status, _ := call(t, ts2, "GET", "/v1/sessions/"+id, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("session served without durability: %d", status)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".journal.quarantined")); err != nil {
		t.Fatalf("quarantined journal missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".journal")); !os.IsNotExist(err) {
		t.Fatalf("original journal still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".journal.tmp")); !os.IsNotExist(err) {
		t.Fatalf("rewrite temp left behind: %v", err)
	}

	// The quarantined journal lost nothing: put it back and a healthy
	// restart replays the full acknowledged history.
	failpoint.DisarmAll()
	if err := os.Rename(
		filepath.Join(dir, id+".journal.quarantined"),
		filepath.Join(dir, id+".journal"),
	); err != nil {
		t.Fatal(err)
	}
	jm3, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm3})
	if n := srv3.recoverSessions(); n != 1 {
		t.Fatalf("recovery after restore: %d sessions, want 1", n)
	}
	_, sum3 := call(t, ts3, "GET", "/v1/sessions/"+id, nil)
	if sum3["state_hash"] != ackedHash {
		t.Fatalf("restored replay state %v != acked %v", sum3["state_hash"], ackedHash)
	}
}

// TestCleanCloseDropsJournal checks a deliberate DELETE removes the
// session's journal, so a restart does not resurrect it.
func TestCleanCloseDropsJournal(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm1})
	id, _ := openSession(t, ts, pipeSrc)
	if status, m := call(t, ts, "DELETE", "/v1/sessions/"+id, nil); status != http.StatusOK {
		t.Fatalf("close: %d %v", status, m)
	}
	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, _ := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv2.recoverSessions(); n != 0 {
		t.Fatalf("closed session resurrected: %d", n)
	}
}

// TestFailpointEndpointsGated checks /debug/failpoints is a 404 without
// the flag and functional with it.
func TestFailpointEndpointsGated(t *testing.T) {
	_, tsOff := newTestServerCfg(t, serverConfig{maxSessions: 1})
	resp, err := tsOff.Client().Get(tsOff.URL + "/debug/failpoints")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("failpoints served without the flag: %d", resp.StatusCode)
	}

	_, tsOn := newTestServerCfg(t, serverConfig{maxSessions: 1, failpoints: true})
	t.Cleanup(failpoint.DisarmAll)
	req, err := http.NewRequest("PUT", tsOn.URL+"/debug/failpoints/sta.cluster", strings.NewReader("1*error(hi)"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = tsOn.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm via HTTP: %d", resp.StatusCode)
	}
	if failpoint.List()["sta.cluster"] == "" {
		t.Fatal("failpoint not armed")
	}
	req, _ = http.NewRequest("DELETE", tsOn.URL+"/debug/failpoints/sta.cluster", nil)
	resp, err = tsOn.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if failpoint.List()["sta.cluster"] != "" {
		t.Fatal("failpoint not disarmed")
	}
	// Bad spec is rejected.
	req, _ = http.NewRequest("PUT", tsOn.URL+"/debug/failpoints/x", strings.NewReader("frobnicate"))
	resp, err = tsOn.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec accepted: %d", resp.StatusCode)
	}
}

// TestJournalAppendFailureQuarantines arms the journal.append failpoint so
// the durability write fails after a successful apply: the session must be
// quarantined (its disk state no longer matches memory), and the client
// must see a 503, not a silent ack.
func TestJournalAppendFailureQuarantines(t *testing.T) {
	dir := t.TempDir()
	jm, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm})
	id, _ := openSession(t, ts, pipeSrc)

	if err := failpoint.Arm("journal.append", "1*error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)
	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "1ps"}},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("failed append: %d %v", status, m)
	}
	if status, _ := call(t, ts, "GET", "/v1/sessions/"+id, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("session not quarantined after append failure: %d", status)
	}
}
