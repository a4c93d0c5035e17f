package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/loadgen"
	"hummingbird/internal/telemetry"
)

// TestReadyzDrainingState checks the distinct draining state: a server
// that begins graceful shutdown must answer 503 with state "draining"
// so load generators stop scheduling new sessions against it, while the
// existing endpoints keep serving.
func TestReadyzDrainingState(t *testing.T) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	status, rdy := call(t, ts, "GET", "/readyz", nil)
	if status != http.StatusOK || rdy["state"] != "ready" || rdy["ready"] != true {
		t.Fatalf("fresh server readyz: %d %v", status, rdy)
	}

	srv.draining.Store(true)
	status, rdy = call(t, ts, "GET", "/readyz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", status)
	}
	if rdy["state"] != "draining" || rdy["ready"] != false {
		t.Fatalf("draining readyz body: %v", rdy)
	}

	// Draining refuses new routing, not existing work: a session can
	// still be opened directly (the load balancer is what honours
	// readyz) and served.
	id, _ := openSession(t, ts, pipeSrc)
	if status, m := call(t, ts, "GET", "/v1/sessions/"+id+"/report", nil); status != http.StatusOK {
		t.Fatalf("report while draining: %d %v", status, m)
	}

	srv.draining.Store(false)
	if status, rdy = call(t, ts, "GET", "/readyz", nil); status != http.StatusOK || rdy["state"] != "ready" {
		t.Fatalf("undrained readyz: %d %v", status, rdy)
	}
}

// TestInboundTraceID checks that a well-formed client X-Trace-Id is
// adopted as the request's trace id (echoed in the response header and
// visible at /trace/last), while malformed ids fall back to a
// server-generated one.
func TestInboundTraceID(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	ts := newTestServer(t, 4)
	id, _ := openSession(t, ts, pipeSrc)

	post := func(traceID string) *http.Response {
		t.Helper()
		body := bytes.NewReader([]byte(`{"edits":[{"op":"adjust","inst":"g2","delta":"10ps"}]}`))
		req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+id+"/edits", body)
		if err != nil {
			t.Fatal(err)
		}
		if traceID != "" {
			req.Header.Set("X-Trace-Id", traceID)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	before := telemetry.Snapshot().Counters["server.trace_ids_inherited"]
	resp := post("loadgen-7.test_42")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "loadgen-7.test_42" {
		t.Fatalf("echoed trace id %q, want the inbound one", got)
	}
	if after := telemetry.Snapshot().Counters["server.trace_ids_inherited"]; after != before+1 {
		t.Fatalf("trace_ids_inherited %d -> %d, want +1", before, after)
	}

	// The adopted id is the one served from the session's /trace/last.
	status, tr := call(t, ts, "GET", "/v1/sessions/"+id+"/trace/last", nil)
	if status != http.StatusOK || tr["id"] != "loadgen-7.test_42" {
		t.Fatalf("trace/last after tagged request: %d %v", status, tr)
	}

	// Malformed ids (bad characters, oversized) are not adopted.
	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 65)} {
		resp := post(bad)
		if got := resp.Header.Get("X-Trace-Id"); got == bad || got == "" {
			t.Fatalf("malformed inbound id %q must be replaced, got %q", bad, got)
		}
	}
}

// TestExpositionCoversLoadObservability checks the full Prometheus
// surface stays valid with the new draining gauge and inherited-trace
// counter registered, and that both metrics actually render.
func TestExpositionCoversLoadObservability(t *testing.T) {
	ts := newTestServer(t, 4)
	mTraceInherited.Inc() // counters render only once non-registered-at-zero paths ran

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{"hb_server_draining", "hb_server_trace_ids_inherited_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestTopoEditBatchAddRemove pins the contract the load generator's
// edit_topo class relies on: adding and removing a uniquely named
// buffer in one batch is accepted, classified as a full rebuild (the
// topology changed mid-batch), and leaves the design's timing intact.
func TestTopoEditBatchAddRemove(t *testing.T) {
	ts := newTestServer(t, 4)
	id, m0 := openSession(t, ts, pipeSrc)
	worst0 := m0["worst_slack"]

	status, m := call(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{
			{"op": "add", "inst": "lg_tmp_1", "ref": "BUF_X1",
				"conns": map[string]string{"A": "n2", "Y": "lg_tmp_1_y"}},
			{"op": "remove", "inst": "lg_tmp_1"},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("topo batch: %d %v", status, m)
	}
	if m["incremental"] != false {
		t.Fatalf("add+remove batch must force a full rebuild: %v", m)
	}
	if m["worst_slack"] != worst0 {
		t.Fatalf("net-zero topo batch changed worst slack: %v -> %v", worst0, m["worst_slack"])
	}
	// The session stays usable for the steady-state mix afterwards.
	if status, m := call(t, ts, "GET", "/v1/sessions/"+id+"/report", nil); status != http.StatusOK {
		t.Fatalf("report after topo batch: %d %v", status, m)
	}
}

// TestLoadgenAgainstRealDaemon runs the open-loop generator end to end
// against the real server handler: the full default mix (delay edits,
// topology edits, what-ifs, reports, park/resume) at a modest rate,
// with trace tagging on. Nothing may 5xx, every scheduled class must
// complete work, and the slowest op's span tree must be retrievable.
func TestLoadgenAgainstRealDaemon(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 64})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:   ts.URL,
		Rate:      150,
		Arrivals:  loadgen.ArrivalsPoisson,
		Duration:  700 * time.Millisecond,
		Sessions:  8,
		Workload:  "pipe",
		Design:    pipeSrc,
		EditInsts: []string{"g2", "g3"},
		TopoNets:  []string{"n2"},
		Seed:      11,
		TraceTag:  "e2e",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Failed5xx(); n != 0 {
		t.Fatalf("%d failed ops against the real daemon: %+v", n, res.Classes)
	}
	for _, class := range []string{loadgen.OpEditDelay, loadgen.OpEditTopo, loadgen.OpWhatIf, loadgen.OpReport, loadgen.OpParkResume} {
		c := res.Classes[class]
		if c == nil || c.Completed == 0 {
			t.Errorf("class %s completed no operations: %+v", class, c)
		}
	}
	if res.SlowestTrace == nil {
		t.Fatalf("slowest-op trace not fetched (slowest %s on %s)", res.SlowestTraceID, res.SlowestClass)
	}
	// The daemon's admission counters moved during the run.
	delta := res.ServerDelta()
	if delta["hummingbirdd.edit_calls"] <= 0 {
		t.Fatalf("server-side edit counter did not move: %v", delta)
	}
}

// TestDebugMux checks the profiling mux serves the pprof index and
// named profiles (heap, goroutine) without exposing the service API.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("service API must not be reachable on the debug port")
	}
}
