package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
)

const pipeSrc = `
design pipe
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -0.5ns
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`

func newTestServer(t *testing.T, maxSessions int) *httptest.Server {
	t.Helper()
	srv := newServer(celllib.Default(), serverConfig{maxSessions: maxSessions})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

// call issues a request and decodes the JSON response into a generic map.
func call(t *testing.T, ts *httptest.Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp.StatusCode, m
}

func openSession(t *testing.T, ts *httptest.Server, design string) (string, map[string]any) {
	t.Helper()
	status, m := call(t, ts, "POST", "/v1/sessions", map[string]any{"design": design})
	if status != http.StatusCreated {
		t.Fatalf("open session: status %d: %v", status, m)
	}
	id, _ := m["session"].(string)
	if id == "" {
		t.Fatalf("open session: no id in %v", m)
	}
	return id, m
}

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, 4)

	id, m := openSession(t, ts, pipeSrc)
	if m["design"] != "pipe" {
		t.Fatalf("design name = %v", m["design"])
	}
	if ok, _ := m["ok"].(bool); !ok {
		t.Fatalf("pipe design should meet timing: %v", m)
	}

	status, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil)
	if status != http.StatusOK || sum["edits"] != float64(0) {
		t.Fatalf("summary: %d %v", status, sum)
	}
	// The open reports the state key it opened under; the summary hashes
	// the engine's state.
	if h, _ := m["state_hash"].(string); h == "" || h != sum["state_hash"] {
		t.Fatalf("open state_hash %v, summary state_hash %v", m["state_hash"], sum["state_hash"])
	}

	status, list := call(t, ts, "GET", "/v1/sessions", nil)
	if status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	if n := len(list["sessions"].([]any)); n != 1 {
		t.Fatalf("list has %d sessions, want 1", n)
	}

	// Slow g2 down enough to violate timing; the delta report must flag it.
	status, em := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "9ns"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edits: %d %v", status, em)
	}
	if inc, _ := em["incremental"].(bool); !inc {
		t.Fatalf("single adjust should be incremental: %v", em)
	}
	if ok, _ := em["ok"].(bool); ok {
		t.Fatalf("design should now violate timing: %v", em)
	}
	if _, hasChanged := em["changed_nets"]; !hasChanged {
		t.Fatalf("delta report missing changed_nets: %v", em)
	}
	if em["changed_nets"] == nil || len(em["changed_nets"].([]any)) == 0 {
		t.Fatalf("9ns adjust changed no net slacks: %v", em)
	}

	// Undo; timing should recover and the dirty nets reappear in the delta.
	status, em = call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "-9ns"}},
	})
	if status != http.StatusOK {
		t.Fatalf("undo edits: %d %v", status, em)
	}
	if ok, _ := em["ok"].(bool); !ok {
		t.Fatalf("undo should restore timing: %v", em)
	}

	status, rep := call(t, ts, "GET", "/v1/sessions/"+id+"/report", nil)
	if status != http.StatusOK {
		t.Fatalf("report: %d %v", status, rep)
	}
	if rep["design"] != "pipe" {
		t.Fatalf("report design = %v", rep["design"])
	}

	status, cm := call(t, ts, "GET", "/v1/sessions/"+id+"/constraints?net=n2", nil)
	if status != http.StatusOK {
		t.Fatalf("constraints: %d %v", status, cm)
	}
	if nets, _ := cm["nets"].([]any); len(nets) == 0 {
		t.Fatalf("no constraint rows for n2: %v", cm)
	}

	status, closed := call(t, ts, "DELETE", "/v1/sessions/"+id, nil)
	if status != http.StatusOK || closed["closed"] != true {
		t.Fatalf("close: %d %v", status, closed)
	}
	if status, _ := call(t, ts, "GET", "/v1/sessions/"+id, nil); status != http.StatusNotFound {
		t.Fatalf("closed session still reachable: %d", status)
	}
}

// TestEditsMatchDirectEngine replays the same edit stream against the
// server and against a local engine, and compares the resulting state
// hashes and worst slacks.
func TestEditsMatchDirectEngine(t *testing.T) {
	ts := newTestServer(t, 4)
	id, _ := openSession(t, ts, pipeSrc)

	d, err := netlist.ParseString(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := incremental.Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		json   map[string]any
		direct incremental.Edit
	}{
		{map[string]any{"op": "adjust", "inst": "g3", "delta": "250ps"},
			incremental.Edit{Op: incremental.Adjust, Inst: "g3", Delta: 250}},
		{map[string]any{"op": "resize", "inst": "g2", "to": "INV_X4"},
			incremental.Edit{Op: incremental.Resize, Inst: "g2", To: "INV_X4"}},
		{map[string]any{"op": "add", "inst": "tap1", "ref": "BUF_X1",
			"conns": map[string]string{"A": "n2", "Y": "tap1_out"}},
			incremental.Edit{Op: incremental.AddInst, New: &netlist.Instance{
				Name: "tap1", Ref: "BUF_X1",
				Conns: map[string]string{"A": "n2", "Y": "tap1_out"}}}},
		{map[string]any{"op": "remove", "inst": "tap1"},
			incremental.Edit{Op: incremental.RemoveInst, Inst: "tap1"}},
	}
	for i, st := range steps {
		status, em := call(t, ts, "POST", "/v1/sessions/"+id+"/edits",
			map[string]any{"edits": []map[string]any{st.json}})
		if status != http.StatusOK {
			t.Fatalf("step %d: %d %v", i, status, em)
		}
		if _, err := eng.Apply(st.direct); err != nil {
			t.Fatalf("step %d direct: %v", i, err)
		}
		_, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil)
		if sum["state_hash"] != eng.StateHash() {
			t.Fatalf("step %d: server state %v diverges from direct engine %v",
				i, sum["state_hash"], eng.StateHash())
		}
		wantWorst := fmt.Sprintf("%v", timeJSON(eng.Report().WorstSlack()))
		gotWorst := fmt.Sprintf("%v", sum["worst_slack"])
		// JSON numbers decode as float64; compare textually.
		if !jsonNumEqual(sum["worst_slack"], timeJSON(eng.Report().WorstSlack())) {
			t.Fatalf("step %d: worst slack %s != %s", i, gotWorst, wantWorst)
		}
	}
}

func jsonNumEqual(got, want any) bool {
	if f, ok := got.(float64); ok {
		if w, ok := want.(int64); ok {
			return int64(f) == w
		}
	}
	return reflect.DeepEqual(got, want)
}

func TestSessionLimitAndErrors(t *testing.T) {
	ts := newTestServer(t, 1)
	openSession(t, ts, pipeSrc)

	status, m := call(t, ts, "POST", "/v1/sessions", map[string]any{"design": pipeSrc})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-limit open: %d %v", status, m)
	}
	status, m = call(t, ts, "POST", "/v1/sessions", map[string]any{"design": "design broken\n"})
	if status != http.StatusUnprocessableEntity && status != http.StatusServiceUnavailable {
		t.Fatalf("bad design: %d %v", status, m)
	}
	if status, _ := call(t, ts, "GET", "/v1/sessions/nope", nil); status != http.StatusNotFound {
		t.Fatalf("unknown session: %d", status)
	}
	if status, _ := call(t, ts, "DELETE", "/v1/sessions/nope", nil); status != http.StatusNotFound {
		t.Fatalf("delete unknown session: %d", status)
	}
}

func TestBadEditsLeaveSessionUsable(t *testing.T) {
	ts := newTestServer(t, 4)
	id, _ := openSession(t, ts, pipeSrc)

	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "nope", "delta": "1ns"}},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad edit: %d %v", status, m)
	}
	status, m = call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "frobnicate"}},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown op: %d %v", status, m)
	}
	status, m = call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{"edits": []map[string]any{}})
	if status != http.StatusBadRequest {
		t.Fatalf("empty edits: %d %v", status, m)
	}
	// The session still answers with a valid report.
	status, em := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "100ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("good edit after bad ones: %d %v", status, em)
	}
}

// TestConcurrentSessions exercises several sessions editing in parallel;
// run with -race this doubles as the data-race check for the server.
func TestConcurrentSessions(t *testing.T) {
	ts := newTestServer(t, 8)
	const nSessions = 4
	const nEdits = 6
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for w := 0; w < nSessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			status, m := call(t, ts, "POST", "/v1/sessions", map[string]any{"design": pipeSrc})
			if status != http.StatusCreated {
				errs <- fmt.Errorf("worker %d: open: %d %v", w, status, m)
				return
			}
			id := m["session"].(string)
			for i := 0; i < nEdits; i++ {
				delta := "50ps"
				if i%2 == 1 {
					delta = "-50ps"
				}
				status, em := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
					"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": delta}},
				})
				if status != http.StatusOK {
					errs <- fmt.Errorf("worker %d edit %d: %d %v", w, i, status, em)
					return
				}
			}
			if status, m := call(t, ts, "DELETE", "/v1/sessions/"+id, nil); status != http.StatusOK {
				errs <- fmt.Errorf("worker %d close: %d %v", w, status, m)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	ts := newTestServer(t, 2)
	status, h := call(t, ts, "GET", "/healthz", nil)
	if status != http.StatusOK || h["ok"] != true {
		t.Fatalf("healthz: %d %v", status, h)
	}
	status, rdy := call(t, ts, "GET", "/readyz", nil)
	if status != http.StatusOK || rdy["ready"] != true {
		t.Fatalf("readyz: %d %v", status, rdy)
	}

	// /metrics speaks Prometheus text exposition; the JSON snapshot moved
	// to /metrics.json.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	if err := telemetry.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("metrics exposition invalid: %v\n%s", err, body)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics.json not JSON: %v", err)
	}

	status, bi := call(t, ts, "GET", "/buildinfo", nil)
	if status != http.StatusOK || bi["goVersion"] == "" {
		t.Fatalf("buildinfo: %d %v", status, bi)
	}
}

// readBody fetches a path and returns the raw response bytes.
func readBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, b)
	}
	return b
}

// TestSharedCompiledDesignConcurrency: two sessions opened on the same
// design hash must share one CompiledDesign through the compile cache, stay
// correct while analyzing and editing concurrently (the -race build guards
// the read-only sharing), and produce reports byte-identical to sessions
// that never shared anything.
func TestSharedCompiledDesignConcurrency(t *testing.T) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 8})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	idA, mA := openSession(t, ts, pipeSrc)
	if shared, _ := mA["shared_design"].(bool); shared {
		t.Fatalf("first open must publish, not share: %v", mA)
	}
	idB, mB := openSession(t, ts, pipeSrc)
	if shared, _ := mB["shared_design"].(bool); !shared {
		t.Fatalf("second open on the same design hash did not share: %v", mB)
	}

	// One compiled design, two session references — via the cache itself
	// and via the hb_compile_cache_* gauges a fleet would scrape.
	if d, r := srv.compile.designs(), srv.compile.totalRefs(); d != 1 || r != 2 {
		t.Fatalf("compile cache holds %d designs / %d refs, want 1 / 2", d, r)
	}
	metrics := string(readBody(t, ts, "/metrics"))
	for _, want := range []string{"hb_compile_cache_designs 1", "hb_compile_cache_refs 2"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Deterministic per-session edit scripts, run concurrently. The first
	// delay edit in each session triggers the copy-on-write unshare of the
	// shared compiled design while the other session keeps analyzing it.
	scripts := map[string][]map[string]any{
		idA: {
			{"op": "adjust", "inst": "g2", "delta": "50ps"},
			{"op": "adjust", "inst": "g3", "delta": "-25ps"},
			{"op": "adjust", "inst": "g2", "delta": "75ps"},
		},
		idB: {
			{"op": "adjust", "inst": "g3", "delta": "100ps"},
			{"op": "resize", "inst": "g2", "to": "INV_X4"},
			{"op": "adjust", "inst": "g4", "delta": "-10ps"},
		},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for id, script := range scripts {
		wg.Add(1)
		go func(id string, script []map[string]any) {
			defer wg.Done()
			for i, ed := range script {
				status, em := call(t, ts, "POST", "/v1/sessions/"+id+"/edits",
					map[string]any{"edits": []map[string]any{ed}})
				if status != http.StatusOK {
					errs <- fmt.Errorf("session %s edit %d: %d %v", id, i, status, em)
					return
				}
				// Interleave reads of the (possibly still shared) design.
				if _, sum := call(t, ts, "GET", "/v1/sessions/"+id, nil); sum["session"] != id {
					errs <- fmt.Errorf("session %s: bad summary %v", id, sum)
					return
				}
			}
		}(id, script)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Both sessions made delay edits, so both unshared their copy-on-write
	// clones and dropped their cache references.
	if d, r := srv.compile.designs(), srv.compile.totalRefs(); d != 0 || r != 0 {
		t.Fatalf("after unshare, compile cache holds %d designs / %d refs, want 0 / 0", d, r)
	}

	// Byte-identical reports versus sessions that never shared: replay each
	// script serially on a fresh server (fresh compile cache, no second
	// session, no sharing) and compare the raw report bodies.
	for id, script := range scripts {
		iso := newTestServer(t, 2)
		isoID, _ := openSession(t, iso, pipeSrc)
		for i, ed := range script {
			status, em := call(t, iso, "POST", "/v1/sessions/"+isoID+"/edits",
				map[string]any{"edits": []map[string]any{ed}})
			if status != http.StatusOK {
				t.Fatalf("isolated session edit %d: %d %v", i, status, em)
			}
		}
		got := readBody(t, ts, "/v1/sessions/"+id+"/report")
		want := readBody(t, iso, "/v1/sessions/"+isoID+"/report")
		if !bytes.Equal(got, want) {
			t.Fatalf("session %s report diverges from isolated session:\n got: %s\nwant: %s", id, got, want)
		}
	}
}
