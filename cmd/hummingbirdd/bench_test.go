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
// full parse + elaboration + compile + first analysis. cacheSize 0 keeps
// closed sessions out of the LRU; closing the session also drops the last
// compile-cache reference, so the next open is cold again.
func BenchmarkSessionOpen_Cold(b *testing.B) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4, cacheSize: 0})
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
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4, cacheSize: 0})
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

// BenchmarkSessionOpen_ParkResume closes into the LRU and re-opens: the
// whole engine (compiled design + analysis state + report) is parked, so a
// resume is a cache probe plus summary serialisation.
func BenchmarkSessionOpen_ParkResume(b *testing.B) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4, cacheSize: 4})
	h := srv.handler()
	body := openBody(b, benchDesign(b))
	m := do(b, h, "POST", "/v1/sessions", body, http.StatusCreated)
	do(b, h, "DELETE", "/v1/sessions/"+m["session"].(string), "", http.StatusOK) // park
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := do(b, h, "POST", "/v1/sessions", body, http.StatusCreated)
		if i == 0 && m["cached"] != true {
			b.Fatalf("open did not resume the parked state: %v", m)
		}
		do(b, h, "DELETE", "/v1/sessions/"+m["session"].(string), "", http.StatusOK)
	}
}

// desGate is a combinational DES gate outside every clock cone: edits to
// its delays are delay-only.
const desGate = "g_s7l2w11"

// desEditSession opens one DES session on a handler (no TCP, no journal)
// and returns the handler, the session's edits path and the two request
// bodies of an edit_delay pair: a +100 ps and a -100 ps adjust on a
// delay-local gate, so alternating them keeps the design in place.
func desEditSession(tb testing.TB) (http.Handler, string, [2]string) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4, cacheSize: 0})
	h := srv.handler()
	m := do(tb, h, "POST", "/v1/sessions", mustJSON(tb, map[string]any{"design": designText(tb, workload.DES)}), http.StatusCreated)
	path := "/v1/sessions/" + m["session"].(string) + "/edits"
	var bodies [2]string
	for i, delta := range []string{"100ps", "-100ps"} {
		bodies[i] = mustJSON(tb, map[string]any{"edits": []map[string]any{
			{"op": "adjust", "inst": desGate, "delta": delta}}})
	}
	return h, path, bodies
}

// BenchmarkSessionEdit_DES is the handler-level benchmark of the served
// edit path: each iteration posts one edit_delay through decode, the
// session lock, the engine, the slack-delta build and encoding.
func BenchmarkSessionEdit_DES(b *testing.B) {
	h, path, bodies := desEditSession(b)
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
// decoding included: ~1.25× the 262 allocations and 31.4 KB measured (269
// and 37.9 KB under -race). They trip on anything that allocates per net
// — a per-net allocation in the slack-delta build adds thousands — or
// copies a whole result's slacks (70 KB per edit on DES).
const (
	sessionEditAllocs = 330
	sessionEditBytes  = 40_000
)

// TestSessionEditAllocs holds the served delay edit to its allocation and
// byte budgets.
func TestSessionEditAllocs(t *testing.T) {
	h, path, bodies := desEditSession(t)
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
	if perEdit > sessionEditBytes {
		t.Errorf("served edit_delay allocates %d B, limit %d B", perEdit, sessionEditBytes)
	}
}
