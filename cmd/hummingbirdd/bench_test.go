package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/netlist"
	"hummingbird/internal/testlib"
	"hummingbird/internal/workload"
)

// designText serialises a workload back to netlist text so the session
// benchmarks exercise a realistically sized design rather than the toy
// pipe fixture.
func designText(tb testing.TB, gen func() (*netlist.Design, error)) string {
	tb.Helper()
	d, err := gen()
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.Write(&sb, d); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// benchDesign is the ALU workload's netlist text.
func benchDesign(b *testing.B) string { return designText(b, workload.ALU) }

// do drives a handler directly (no TCP) and fails the test or benchmark
// on an unexpected status.
func do(tb testing.TB, h http.Handler, method, path, body string, want int) map[string]any {
	tb.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		tb.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
	}
	m := map[string]any{}
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			tb.Fatalf("decode %s: %v", rec.Body.Bytes(), err)
		}
	}
	return m
}

// mustJSON marshals a request body.
func mustJSON(tb testing.TB, v any) string {
	tb.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

func openBody(b *testing.B, design string) string {
	return mustJSON(b, map[string]any{"design": design})
}

// BenchmarkSessionOpen_Cold is the pre-sharing baseline: every open pays a
// full parse + elaboration + compile + first analysis. Closing the session
// releases its engine and with it the last compile-cache reference, so the
// next open is cold again.
func BenchmarkSessionOpen_Cold(b *testing.B) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4})
	h := srv.handler()
	body := openBody(b, benchDesign(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := do(b, h, "POST", "/v1/sessions", body, http.StatusCreated)
		do(b, h, "DELETE", "/v1/sessions/"+m["session"].(string), "", http.StatusOK)
	}
}

// BenchmarkSessionOpen_SharedDesign holds one publisher session open so
// every benchmarked open acquires the shared CompiledDesign from the
// compile cache: it pays parsing and a fresh AnalysisState + first
// analysis, but no elaboration or compile.
func BenchmarkSessionOpen_SharedDesign(b *testing.B) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4})
	h := srv.handler()
	body := openBody(b, benchDesign(b))
	do(b, h, "POST", "/v1/sessions", body, http.StatusCreated) // publisher stays open
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := do(b, h, "POST", "/v1/sessions", body, http.StatusCreated)
		if i == 0 && m["shared_design"] != true {
			b.Fatalf("open did not share the compiled design: %v", m)
		}
		do(b, h, "DELETE", "/v1/sessions/"+m["session"].(string), "", http.StatusOK)
	}
}

// desGate is a combinational DES gate outside every clock cone: edits to
// its delays are delay-only.
const desGate = "g_s7l2w11"

// desEditSession opens one DES session on a handler (no TCP, no journal)
// and returns the handler, the session's path and the two request bodies
// of an edit_delay pair: a +100 ps and a -100 ps adjust on a delay-local
// gate, so alternating them keeps the design in place.
func desEditSession(tb testing.TB) (http.Handler, string, [2]string) {
	srv, sess, bodies := openDES(tb, serverConfig{maxSessions: 4})
	return srv.handler(), sess, bodies
}

// openDES is desEditSession on a server built from cfg, returned in place
// of its handler.
func openDES(tb testing.TB, cfg serverConfig) (*server, string, [2]string) {
	srv := newServer(celllib.Default(), cfg)
	m := do(tb, srv.handler(), "POST", "/v1/sessions", mustJSON(tb, map[string]any{"design": designText(tb, workload.DES)}), http.StatusCreated)
	var bodies [2]string
	for i, delta := range []string{"100ps", "-100ps"} {
		bodies[i] = mustJSON(tb, map[string]any{"edits": []map[string]any{
			{"op": "adjust", "inst": desGate, "delta": delta}}})
	}
	return srv, "/v1/sessions/" + m["session"].(string), bodies
}

// BenchmarkSessionEdit_DES is the handler-level benchmark of the served
// edit path: each iteration posts one edit_delay through decode, the
// session lock, the engine, the slack-delta build and encoding.
func BenchmarkSessionEdit_DES(b *testing.B) {
	h, sess, bodies := desEditSession(b)
	path := sess + "/edits"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := do(b, h, "POST", path, bodies[i%2], http.StatusOK)
		if i == 0 && out["incremental"] != true {
			b.Fatalf("adjust on %s fell back to a full analysis: %v", desGate, out)
		}
	}
}

// Bounds on one served DES edit_delay, request construction and response
// decoding included: ~1.25× the 258 allocations and 29.9 KB measured (264
// allocations under -race, whose pools drop a quarter of what is put
// back: 36.2 KB, held to the race bound). They trip on anything that
// allocates per net — a per-net allocation in the slack-delta build adds
// thousands — or copies a whole result's slacks (70 KB per edit on DES).
const (
	sessionEditAllocs    = 323
	sessionEditBytes     = 38_000
	sessionEditBytesRace = 40_000
)

// TestSessionEditAllocs holds the served delay edit to its allocation and
// byte budgets.
func TestSessionEditAllocs(t *testing.T) {
	h, sess, bodies := desEditSession(t)
	path := sess + "/edits"
	i := 0
	edit := func() {
		do(t, h, "POST", path, bodies[i%2], http.StatusOK)
		i++
	}
	edit()
	edit()
	allocs := testing.AllocsPerRun(50, edit)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		edit()
	}
	runtime.ReadMemStats(&after)
	perEdit := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs and %d B per served edit_delay", allocs, perEdit)
	if allocs > sessionEditAllocs {
		t.Errorf("served edit_delay allocates %.0f times, limit %d", allocs, sessionEditAllocs)
	}
	limit := uint64(sessionEditBytes)
	if testlib.Race {
		limit = sessionEditBytesRace
	}
	if perEdit > limit {
		t.Errorf("served edit_delay allocates %d B, limit %d B", perEdit, limit)
	}
}

// discardResponse is a ResponseWriter that counts the body and drops it,
// so what a served report allocates is the server's alone.
type discardResponse struct {
	h    http.Header
	code int
	n    int
}

func (d *discardResponse) Header() http.Header { return d.h }

func (d *discardResponse) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

func (d *discardResponse) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.n += len(p)
	return len(p), nil
}

// serveReport GETs the session's report through the handler into a
// discardResponse and returns the status and body size.
func serveReport(h http.Handler, sess string) (code, n int) {
	req, err := http.NewRequest("GET", sess+"/report", nil)
	if err != nil {
		return 0, 0
	}
	rw := &discardResponse{h: http.Header{}}
	h.ServeHTTP(rw, req)
	return rw.code, rw.n
}

// BenchmarkSessionReport_DES is the handler-level benchmark of the served
// report: the session lock, the snapshot and the 173 KB report written
// through the handler's ResponseWriter.
func BenchmarkSessionReport_DES(b *testing.B) {
	h, sess, _ := desEditSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, _ := serveReport(h, sess); code != http.StatusOK {
			b.Fatalf("report: status %d", code)
		}
	}
}

// Bounds on one served DES report, request construction included: ~1.25×
// the 24 allocations and 2.2 KB measured (24 under -race). Nearly all of
// it is the request's trace and the guard; the report is written from a
// reused buffer. Encoding through reflection, or into a buffer that grows
// with the report, allocates about 1.16 MB.
const (
	sessionReportAllocs = 30
	sessionReportBytes  = 2_750
)

// TestSessionReportAllocs holds the served report to its allocation and
// byte budgets.
func TestSessionReportAllocs(t *testing.T) {
	h, sess, _ := desEditSession(t)
	_, size := serveReport(h, sess)
	report := func() {
		if code, n := serveReport(h, sess); code != http.StatusOK || n != size {
			t.Fatalf("report: status %d, %d bytes, want 200 and %d", code, n, size)
		}
	}
	report()
	allocs := testing.AllocsPerRun(50, report)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		report()
	}
	runtime.ReadMemStats(&after)
	perReport := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs and %d B per served %d-byte report", allocs, perReport, size)
	if allocs > sessionReportAllocs {
		t.Errorf("served report allocates %.0f times, limit %d", allocs, sessionReportAllocs)
	}
	// The race detector's pool drops a quarter of the report buffers put
	// back, 64 KB each.
	if perReport > sessionReportBytes && !testlib.Race {
		t.Errorf("served report allocates %d B, limit %d B", perReport, sessionReportBytes)
	}
}
