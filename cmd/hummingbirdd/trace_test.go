package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hummingbird/internal/journal"
	"hummingbird/internal/telemetry/span"
	"hummingbird/internal/workload"
)

// syncBuffer is an errLog sink safe to read while the server still holds
// it: finishRequest runs in a deferred frame that may outlive the HTTP
// response the test already received.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// doTraced issues a request and returns the status, decoded body and the
// X-Trace-Id header the guard echoed.
func doTraced(t *testing.T, ts *httptest.Server, method, path string, body any) (int, map[string]any, string) {
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
	return resp.StatusCode, m, resp.Header.Get("X-Trace-Id")
}

// traceLast fetches and decodes /trace/last for a session. The endpoint
// is unguarded, so reading it must not replace the trace it reports.
func traceLast(t *testing.T, ts *httptest.Server, id string) (string, *span.Node, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id + "/trace/last")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, resp.StatusCode
	}
	var tr struct {
		ID   string     `json:"id"`
		Root *span.Node `json:"root"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("trace/last decode: %v", err)
	}
	return tr.ID, tr.Root, resp.StatusCode
}

// findSpan returns the first node with the given name, depth-first.
func findSpan(n *span.Node, name string) *span.Node {
	if hits := findSpans(n, name); len(hits) > 0 {
		return hits[0]
	}
	return nil
}

// findSpans returns every node with the given name, depth-first.
func findSpans(n *span.Node, name string) []*span.Node {
	if n == nil {
		return nil
	}
	var hits []*span.Node
	if n.Name == name {
		hits = append(hits, n)
	}
	for _, c := range n.Children {
		hits = append(hits, findSpans(c, name)...)
	}
	return hits
}

// checkNested asserts every child's interval lies within its parent's.
func checkNested(t *testing.T, n *span.Node) {
	t.Helper()
	for _, c := range n.Children {
		if c.OffsetNs < n.OffsetNs {
			t.Errorf("span %s starts at %d before parent %s at %d",
				c.Name, c.OffsetNs, n.Name, n.OffsetNs)
		}
		if c.OffsetNs+c.DurNs > n.OffsetNs+n.DurNs {
			t.Errorf("span %s ends at %d after parent %s at %d",
				c.Name, c.OffsetNs+c.DurNs, n.Name, n.OffsetNs+n.DurNs)
		}
		checkNested(t, c)
	}
}

// TestRequestTrace drives one journaled edit batch and checks the
// acceptance span tree: admission, journal append (with its fsync),
// classification, per-sweep recompute, and response encoding, all
// properly nested under the request root — plus the Chrome trace-event
// export in -trace-dir.
func TestRequestTrace(t *testing.T) {
	jm, err := journal.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	traceDir := t.TempDir()
	srv, ts := newTestServerCfg(t, serverConfig{
		maxSessions: 4,
		maxInflight: 4, queueTimeout: time.Second,
		journal: jm, traceDir: traceDir,
	})
	srv.recoverSessions()

	id, _ := openSession(t, ts, pipeSrc)
	// A 9ns adjust violates timing, so the fixed point actually runs
	// slack-transfer sweeps (a passing design converges before the first
	// sweep and would leave no core.sweep spans to check).
	status, m, editTID := doTraced(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "9ns"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edits: %d %v", status, m)
	}
	if editTID == "" {
		t.Fatal("edit response has no X-Trace-Id header")
	}

	root := awaitTrace(t, ts, id, editTID)
	if root.Name != "server.edits" {
		t.Fatalf("root span %q, want server.edits", root.Name)
	}
	if root.Attrs["session"] != id {
		t.Fatalf("root session attr %q, want %q", root.Attrs["session"], id)
	}
	for _, name := range []string{"admission", "incr.classify", "journal.append", "core.sweep", "sta.recompute", "encode"} {
		if findSpan(root, name) == nil {
			t.Errorf("trace lacks %q span", name)
		}
	}
	// The fsync barrier nests under the append that waited on it, and the
	// recompute under the sweep that invoked it.
	if app := findSpan(root, "journal.append"); app == nil || findSpan(app, "journal.fsync") == nil {
		t.Error("journal.fsync span is not a descendant of journal.append")
	}
	sweeps := findSpans(root, "core.sweep")
	recomputing := 0
	for _, sw := range sweeps {
		if sw.Attrs["iteration"] == "" {
			t.Errorf("core.sweep span lacks iteration attr: %v", sw.Attrs)
		}
		if findSpan(sw, "sta.recompute") != nil {
			recomputing++
		}
	}
	// The final sweep of each iteration converges (moved == 0) and
	// recomputes nothing, but a violating design must have at least one
	// sweep that transferred slack and re-analysed its dirty clusters.
	if recomputing == 0 {
		t.Errorf("none of %d core.sweep spans has an sta.recompute child", len(sweeps))
	}
	if cl := findSpan(root, "incr.classify"); cl != nil && cl.Attrs["edits"] != "1" {
		t.Errorf("classify edits attr %q, want 1", cl.Attrs["edits"])
	}
	checkNested(t, root)

	// Chrome export: one file per request, an array of complete events.
	path := filepath.Join(traceDir, editTID+".trace.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace export: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace export not a Chrome event array: %v", err)
	}
	if len(events) < 5 {
		t.Fatalf("trace export has %d events, want >= 5", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" && ev["ph"] != "M" {
			t.Fatalf("event %v is not a complete or metadata event", ev)
		}
	}
}

// awaitTrace returns the span tree of trace tid once the session serves it
// as its last trace: finishRequest runs in a deferred frame after the
// response body is written, so it is polled for briefly.
func awaitTrace(t *testing.T, ts *httptest.Server, id, tid string) *span.Node {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gotID, root, st := traceLast(t, ts, id)
		if st == http.StatusOK && gotID == tid {
			return root
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace/last never served trace %s (last: %d id %s)", tid, st, gotID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTopologyEditTrace serves the add-and-remove-buffer batch of a DES
// session and checks the topology path's spans: one incr.rebuild, carrying
// the batch size and the fallback reason, around the design copy and the
// rebuild, with the elaboration (core.load) and the first block analysis
// (sta.analyze) side by side under it, all nested under the request root.
func TestTopologyEditTrace(t *testing.T) {
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4})
	id, _ := openSession(t, ts, designText(t, workload.DES))
	status, m, tid := doTraced(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{
			{"op": "add", "inst": "tap", "ref": "BUF_X1", "conns": map[string]string{"A": "s7l2w11", "Y": "tap_y"}},
			{"op": "remove", "inst": "tap"},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("edits: %d %v", status, m)
	}
	if m["incremental"] != false || m["fallback_reason"] != "topology change" {
		t.Fatalf("topology batch response: %v", m)
	}
	root := awaitTrace(t, ts, id, tid)
	if root.Name != "server.edits" {
		t.Fatalf("root span %q, want server.edits", root.Name)
	}
	if cl := findSpan(root, "incr.classify"); cl == nil || cl.Attrs["class"] != "topology" {
		t.Errorf("incr.classify span %v, want class topology", cl)
	}
	rebuilds := findSpans(root, "incr.rebuild")
	if len(rebuilds) != 1 {
		t.Fatalf("%d incr.rebuild spans, want 1", len(rebuilds))
	}
	rb := rebuilds[0]
	if rb.Attrs["edits"] != "2" || rb.Attrs["reason"] != "topology change" {
		t.Errorf("incr.rebuild attrs %v, want edits 2 and reason topology change", rb.Attrs)
	}
	var load, analyze *span.Node
	for _, c := range rb.Children {
		switch c.Name {
		case "core.load":
			load = c
		case "sta.analyze":
			analyze = c
		}
	}
	if load == nil || analyze == nil {
		t.Fatalf("incr.rebuild children %v, want core.load and sta.analyze", rb.Children)
	}
	if len(findSpans(root, "core.load")) != 1 || len(findSpans(root, "sta.analyze")) != 1 {
		t.Error("core.load or sta.analyze appears outside incr.rebuild")
	}
	if load.OffsetNs+load.DurNs > analyze.OffsetNs {
		t.Errorf("core.load ends at %d, after sta.analyze starts at %d", load.OffsetNs+load.DurNs, analyze.OffsetNs)
	}
	checkNested(t, root)
}

// TestReportTrace serves a DES report and checks its trace: one
// report.write span under the request root, annotated with the bytes the
// client received, in the session's last trace and under /v1/traces/{id}.
func TestReportTrace(t *testing.T) {
	_, ts := newTestServerCfg(t, serverConfig{maxSessions: 4})
	id, _ := openSession(t, ts, designText(t, workload.DES))
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d %v", resp.StatusCode, err)
	}
	tid := resp.Header.Get(span.TraceIDHeader)
	root := awaitTrace(t, ts, id, tid)
	if root.Name != "server.report" {
		t.Fatalf("root span %q, want server.report", root.Name)
	}
	writes := findSpans(root, "report.write")
	if len(writes) != 1 {
		t.Fatalf("%d report.write spans, want 1", len(writes))
	}
	if got, want := writes[0].Attrs["bytes"], strconv.Itoa(len(body)); got != want {
		t.Errorf("report.write bytes %q, want %s", got, want)
	}
	checkNested(t, root)
	if tr := readBody(t, ts, "/v1/traces/"+tid); !bytes.Contains(tr, []byte(`"report.write"`)) {
		t.Errorf("/v1/traces/%s lacks the report.write span: %s", tid, tr)
	}
}

// TestTraceFreshAfterReplay restarts a journaling server and checks that
// journal replay leaves no stale trace behind: the recovered session has
// no /trace/last until its first live request, which gets a fresh id.
func TestTraceFreshAfterReplay(t *testing.T) {
	dir := t.TempDir()
	jm1, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm1})
	srv1.recoverSessions()
	id, _ := openSession(t, ts1, pipeSrc)
	status, m, preTID := doTraced(t, ts1, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "100ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit before crash: %d %v", status, m)
	}

	// Crash-restart over the same journal directory.
	jm2, err := journal.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm2})
	if n := srv2.recoverSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if _, _, st := traceLast(t, ts2, id); st != http.StatusNotFound {
		t.Fatalf("replayed session serves a trace before any live request: %d", st)
	}

	status, m, postTID := doTraced(t, ts2, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "-100ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edit after replay: %d %v", status, m)
	}
	if postTID == "" || postTID == preTID {
		t.Fatalf("post-replay trace id %q not fresh (pre-crash %q)", postTID, preTID)
	}
}

// TestReadyzGatesOnReplay checks /readyz stays 503 until the journal
// directory has been replayed, while /healthz is green the whole time.
func TestReadyzGatesOnReplay(t *testing.T) {
	jm, err := journal.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServerCfg(t, serverConfig{maxSessions: 4, journal: jm})

	status, h := call(t, ts, "GET", "/healthz", nil)
	if status != http.StatusOK || h["ok"] != true {
		t.Fatalf("healthz during replay: %d %v", status, h)
	}
	status, rdy := call(t, ts, "GET", "/readyz", nil)
	if status != http.StatusServiceUnavailable || rdy["ready"] != false {
		t.Fatalf("readyz before replay: %d %v", status, rdy)
	}
	srv.recoverSessions()
	status, rdy = call(t, ts, "GET", "/readyz", nil)
	if status != http.StatusOK || rdy["ready"] != true {
		t.Fatalf("readyz after replay: %d %v", status, rdy)
	}
}

// TestSlowRequestLog sets a threshold every request exceeds and checks
// the span tree lands in the error log.
func TestSlowRequestLog(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServerCfg(t, serverConfig{
		maxSessions:   4,
		slowThreshold: time.Nanosecond,
		errLog:        &logBuf,
	})
	id, _ := openSession(t, ts, pipeSrc)
	status, m, _ := doTraced(t, ts, "POST", "/v1/sessions/"+id+"/edits", map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": "g2", "delta": "150ps"}},
	})
	if status != http.StatusOK {
		t.Fatalf("edits: %d %v", status, m)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := logBuf.String()
		if strings.Contains(out, "slow request edits") &&
			strings.Contains(out, "server.edits") &&
			strings.Contains(out, "incr.classify") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow-request log missing span tree:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestVersionFlag checks -version prints a build line and exits cleanly
// without starting a listener.
func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-version"}, &out, &errOut); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	line := out.String()
	if !strings.HasPrefix(line, "hummingbirdd ") || !strings.HasSuffix(line, "\n") {
		t.Fatalf("version output %q", line)
	}
	if !strings.Contains(line, "go") {
		t.Fatalf("version output %q lacks toolchain version", line)
	}
}

// TestNewTraceIDFormat: a minted trace id is the wall-clock millis and a
// sequence number, both base 36, joined by a dash; span.ValidID accepts
// it, so a client may send it back as its X-Trace-Id.
func TestNewTraceIDFormat(t *testing.T) {
	before := time.Now().UnixMilli()
	id := newTraceID()
	after := time.Now().UnixMilli()
	if !span.ValidID(id) {
		t.Fatalf("minted id %q is not a valid trace id", id)
	}
	ms, seq, ok := strings.Cut(id, "-")
	if !ok {
		t.Fatalf("minted id %q has no dash", id)
	}
	m, err := strconv.ParseInt(ms, 36, 64)
	if err != nil || m < before || m > after {
		t.Fatalf("minted id %q: millis %d (%v), want within [%d, %d]", id, m, err, before, after)
	}
	n, err := strconv.ParseInt(seq, 36, 64)
	if err != nil || n <= 0 {
		t.Fatalf("minted id %q: sequence %d (%v)", id, n, err)
	}
	if next := newTraceID(); next == id {
		t.Fatalf("two minted ids are both %q", id)
	}
}
