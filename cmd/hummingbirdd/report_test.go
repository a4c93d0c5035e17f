package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/workload"
)

// blockedResponse is a ResponseWriter whose Write blocks until release is
// closed: a client that asked for a report and stopped reading.
type blockedResponse struct {
	h       http.Header
	started chan struct{} // closed by the first Write
	release chan struct{}
	once    sync.Once
	body    bytes.Buffer
}

func newBlockedResponse() *blockedResponse {
	return &blockedResponse{h: http.Header{}, started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockedResponse) Header() http.Header { return b.h }
func (b *blockedResponse) WriteHeader(int)     {}

func (b *blockedResponse) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.body.Write(p)
}

// stuckReport starts a report of sess on h for a client that stops
// reading after the first bytes, and returns once the report is writing.
// release lets the client read on (idempotent, and run at cleanup);
// served is closed when ServeHTTP returns.
func stuckReport(t *testing.T, h http.Handler, sess string) (bw *blockedResponse, release func(), served <-chan struct{}) {
	t.Helper()
	bw = newBlockedResponse()
	var once sync.Once
	release = func() { once.Do(func() { close(bw.release) }) }
	t.Cleanup(release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(bw, httptest.NewRequest("GET", sess+"/report", nil))
	}()
	select {
	case <-bw.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the report never started writing")
	}
	return bw, release, done
}

// TestSlowReportReaderHoldsNoLock serves a DES report to a client that
// stops reading after the first bytes, then asks the same session for a
// summary and a delay edit: both complete while the report is stuck. The
// report, once released, is the session as it was asked for, before the
// edit.
func TestSlowReportReaderHoldsNoLock(t *testing.T) {
	h, sess, bodies := desEditSession(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", sess+"/report", nil))
	before := rec.Body.Bytes()

	bw, release, served := stuckReport(t, h, sess)
	var body map[string]any
	if err := json.Unmarshal([]byte(bodies[0]), &body); err != nil {
		t.Fatal(err)
	}
	var summary, edit int
	done := make(chan struct{})
	go func() {
		defer close(done)
		summary, _ = serve(h, "GET", sess, nil)
		edit, _ = serve(h, "POST", sess+"/edits", body)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a summary and an edit of the session waited on a client reading its report")
	}
	if summary != http.StatusOK || edit != http.StatusOK {
		t.Fatalf("summary %d, edit %d beside a stuck report, want 200 and 200", summary, edit)
	}
	release()
	<-served
	if !bytes.Equal(bw.body.Bytes(), before) {
		t.Fatalf("the stuck report (%d bytes) is not the session's report when it was asked for (%d bytes)", bw.body.Len(), len(before))
	}
}

// TestSlowReportReaderHoldsNoSlot is the stuck report on a server that
// admits one request at a time: the report frees its admission slot once
// it has taken its snapshot, so a summary beside it is admitted instead
// of answering 429 after the queue timeout.
func TestSlowReportReaderHoldsNoSlot(t *testing.T) {
	srv, sess, _ := openDES(t, serverConfig{maxSessions: 4, maxInflight: 1, queueTimeout: 200 * time.Millisecond})
	h := srv.handler()
	_, release, served := stuckReport(t, h, sess)
	if code, m := serve(h, "GET", sess, nil); code != http.StatusOK {
		t.Fatalf("summary beside a stuck report on one admission slot: %d %v, want 200", code, m)
	}
	release()
	<-served
	if code, m := serve(h, "GET", sess, nil); code != http.StatusOK {
		t.Fatalf("summary after the report: %d %v, want 200", code, m)
	}
}

// TestFinishedRequestWaitsForNoLock holds a session's lock while a report
// of it, its snapshot taken, finishes writing: the request returns and
// its trace becomes the session's last without the lock. net/http sends
// a response only once ServeHTTP returns, so a wait here would hold every
// response of a busy session behind whatever holds its lock.
func TestFinishedRequestWaitsForNoLock(t *testing.T) {
	srv, sess, _ := openDES(t, serverConfig{maxSessions: 4})
	_, release, served := stuckReport(t, srv.handler(), sess)
	ss := srv.session(strings.TrimPrefix(sess, "/v1/sessions/"))
	ss.mu.Lock()
	defer ss.mu.Unlock()
	release()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("a finished report waited for its session's lock")
	}
	if tr := ss.lastTrace.Load(); tr == nil || tr.Tree().Name != "server.report" {
		t.Fatalf("last trace %v, want the report's", tr)
	}
}

// TestReportsDuringEdits reads reports of two sessions that share one
// compiled design while each runs a script of delay edits, the first of
// which unshares the design. Every report must be the session's report
// at one of its states: before the script or after one of its edits.
// Under -race this checks that a report streamed outside the session
// lock reads nothing an edit writes.
func TestReportsDuringEdits(t *testing.T) {
	design := designText(t, workload.DES)
	scripts := [][]string{
		{"100ps", "-30ps", "7ps"},
		{"-40ps", "60ps", "100ps"},
	}
	edit := func(delta string) map[string]any {
		return map[string]any{"edits": []map[string]any{{"op": "adjust", "inst": desGate, "delta": delta}}}
	}
	// The reports each script passes through, from an unshared session.
	states := make([]map[string]bool, len(scripts))
	for i, script := range scripts {
		iso := newServer(celllib.Default(), serverConfig{maxSessions: 2}).handler()
		code, m := serve(iso, "POST", "/v1/sessions", map[string]any{"design": design})
		if code != http.StatusCreated {
			t.Fatalf("open: %d %v", code, m)
		}
		sess := "/v1/sessions/" + m["session"].(string)
		states[i] = map[string]bool{string(reportBody(t, iso, sess)): true}
		for _, d := range script {
			if code, m := serve(iso, "POST", sess+"/edits", edit(d)); code != http.StatusOK {
				t.Fatalf("edit %s: %d %v", d, code, m)
			}
			states[i][string(reportBody(t, iso, sess))] = true
		}
	}

	h := newServer(celllib.Default(), serverConfig{maxSessions: 4}).handler()
	var sessions []string
	for i := range scripts {
		code, m := serve(h, "POST", "/v1/sessions", map[string]any{"design": design})
		if shared, _ := m["shared_design"].(bool); code != http.StatusCreated || shared != (i > 0) {
			t.Fatalf("open %d: %d %v", i, code, m)
		}
		sessions = append(sessions, "/v1/sessions/"+m["session"].(string))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(sessions)) // one editor and two readers per session, each sends at most once
	for i, sess := range sessions {
		editing := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(editing)
			for _, d := range scripts[i] {
				if code, m := serve(h, "POST", sess+"/edits", edit(d)); code != http.StatusOK {
					errs <- fmt.Errorf("%s: edit %s: %d %v", sess, d, code, m)
					return
				}
			}
		}()
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-editing:
						if n >= 2 {
							return
						}
					default:
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", sess+"/report", nil))
					if rec.Code != http.StatusOK || !states[i][rec.Body.String()] {
						errs <- errors.New(sess + ": a report matches none of the session's states")
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// reportBody GETs a session's report through the handler.
func reportBody(t *testing.T, h http.Handler, sess string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", sess+"/report", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("report: %d %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// failingResponse is a ResponseWriter whose client has gone: like
// net/http's, its first Write sends the 200 status line, and then every
// write of the body fails.
type failingResponse struct {
	h       http.Header
	headers []int
	writes  int
}

func (f *failingResponse) Header() http.Header { return f.h }

func (f *failingResponse) WriteHeader(code int) { f.headers = append(f.headers, code) }

func (f *failingResponse) Write(p []byte) (int, error) {
	if len(f.headers) == 0 {
		f.WriteHeader(http.StatusOK)
	}
	f.writes++
	return 0, errors.New("connection reset")
}

// TestReportWriteErrorEndsResponse fails a report's first write: the
// handler stops there, with no second status line and no error body
// written after the report's status went out.
func TestReportWriteErrorEndsResponse(t *testing.T) {
	h, sess, _ := desEditSession(t)
	fw := &failingResponse{h: http.Header{}}
	h.ServeHTTP(fw, httptest.NewRequest("GET", sess+"/report", nil))
	if len(fw.headers) != 1 || fw.headers[0] != http.StatusOK || fw.writes != 1 {
		t.Fatalf("statuses %v and %d writes after a failed write, want [200] and 1", fw.headers, fw.writes)
	}
}

// smallBuffers sets a small send buffer on every connection it accepts,
// so a response the client does not read blocks its writer soon.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestReportWriteEndsAtDeadline asks a real listener for a DES report and
// never reads the answer. The handler's write fails at the request's
// 300 ms deadline instead of holding the handler, its buffer and the
// report's design until the connection dies: the session's last trace,
// stored when the handler returns, has a report.write span carrying the
// write error within a second.
func TestReportWriteEndsAtDeadline(t *testing.T) {
	srv, sess, _ := openDES(t, serverConfig{maxSessions: 4, requestTimeout: 300 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.handler()}
	go hs.Serve(smallBuffers{l})
	defer hs.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	ss := srv.session(strings.TrimPrefix(sess, "/v1/sessions/"))
	opened := ss.lastTrace.Load()
	start := time.Now()
	fmt.Fprintf(conn, "GET %s/report HTTP/1.1\r\nHost: hb\r\n\r\n", sess)
	for ss.lastTrace.Load() == opened {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the report handler is still writing to a client that does not read")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the report handler returned after %v, want under 1s", d)
	}
	writes := findSpans(ss.lastTrace.Load().Tree(), "report.write")
	if len(writes) != 1 || writes[0].Attrs["error"] == "" {
		t.Fatalf("report.write spans %+v, want one carrying the write error", writes)
	}
}
