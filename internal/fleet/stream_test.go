package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// conflictPeer is a fake replica whose frames endpoint always answers
// 409 with a fixed next sequence — a peer that persistently disagrees.
func conflictPeer(next int64) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusConflict)
		fmt.Fprintf(w, `{"next": %d}`, next)
	}))
	return ts, &hits
}

// TestStreamConflictBackoff: the first conflict in a flush realigns and
// retries immediately; persistent conflicts arm a doubling backoff that
// gates Commit-path flushes, and Flush (force) bypasses the gate.
func TestStreamConflictBackoff(t *testing.T) {
	ts, hits := conflictPeer(0)
	defer ts.Close()

	now := time.Unix(1000, 0)
	st := NewSessionStream(ts.Client(), ts.URL, "r2", "s1", nil)
	st.nowFn = func() time.Time { return now }

	// First Commit: realign + one retry, then conflicts=2 arms the base
	// backoff. Exactly two requests hit the peer.
	st.Commit([][]byte{[]byte("f0\n")})
	if got := hits.Load(); got != 2 {
		t.Fatalf("first flush made %d requests, want 2 (realign + retry)", got)
	}
	if st.Lag() != 1 {
		t.Fatalf("lag %d after rejected push, want 1", st.Lag())
	}

	// Inside the backoff window, Commit-path flushes are gated: frames
	// buffer, no request leaves.
	st.Commit([][]byte{[]byte("f1\n")})
	if got := hits.Load(); got != 2 {
		t.Fatalf("gated flush still sent a request (total %d)", got)
	}
	if st.Lag() != 2 {
		t.Fatalf("lag %d, want 2 buffered frames", st.Lag())
	}

	// Past the window the next Commit attempts once more; the conflict
	// re-arms with a doubled delay, so a Commit right after the first
	// base interval stays gated.
	now = now.Add(conflictBackoffBase + time.Millisecond)
	st.Commit([][]byte{[]byte("f2\n")})
	if got := hits.Load(); got != 3 {
		t.Fatalf("post-window flush made %d total requests, want 3", got)
	}
	now = now.Add(conflictBackoffBase + time.Millisecond) // 2x base still pending
	st.Commit([][]byte{[]byte("f3\n")})
	if got := hits.Load(); got != 3 {
		t.Fatalf("doubled backoff not honored: %d total requests", got)
	}

	// Flush bypasses the gate (one fresh attempt) and reports the lag.
	if err := st.Flush(); err == nil {
		t.Fatal("Flush returned nil while the peer still conflicts")
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("forced flush made %d total requests, want 4", got)
	}

	// The backoff never exceeds the cap no matter how many conflicts.
	for i := 0; i < 20; i++ {
		now = now.Add(conflictBackoffCap + time.Millisecond)
		st.Commit(nil)
	}
	st.mu.Lock()
	armed := st.retryAt.Sub(now)
	st.mu.Unlock()
	if armed > conflictBackoffCap {
		t.Fatalf("backoff %v exceeds cap %v", armed, conflictBackoffCap)
	}
}

// TestStreamConflictRecovery: a successful push resets the conflict
// counter and clears the gate.
func TestStreamConflictRecovery(t *testing.T) {
	var mode atomic.Int32 // 0: conflict, 1: ack everything
	var next atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == 0 {
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, `{"next": 0}`)
			return
		}
		n := next.Add(1)
		fmt.Fprintf(w, `{"next": %d}`, n)
	}))
	defer ts.Close()

	now := time.Unix(2000, 0)
	st := NewSessionStream(ts.Client(), ts.URL, "r2", "s1", nil)
	st.nowFn = func() time.Time { return now }

	st.Commit([][]byte{[]byte("f0\n")}) // arms backoff
	mode.Store(1)
	if err := st.Flush(); err != nil { // forced attempt succeeds
		t.Fatalf("recovered flush: %v", err)
	}
	st.mu.Lock()
	conflicts, retryAt := st.conflicts, st.retryAt
	st.mu.Unlock()
	if conflicts != 0 || !retryAt.IsZero() {
		t.Fatalf("success did not clear conflict state: conflicts=%d retryAt=%v", conflicts, retryAt)
	}
	// And the next Commit posts immediately again.
	st.Commit([][]byte{[]byte("f1\n")})
	if st.Lag() != 0 {
		t.Fatalf("post-recovery commit left lag %d", st.Lag())
	}
}

// TestPeersHeaderRoundTrip: FormatPeers/ParsePeers carry a chain through
// headers; malformed entries drop silently.
func TestPeersHeaderRoundTrip(t *testing.T) {
	chain := []Member{{ID: "r2", URL: "http://h2:1"}, {ID: "r3", URL: "http://h3:1"}}
	h := http.Header{}
	h.Set(PeersHeader, FormatPeers(chain))
	got := ParsePeers(h)
	if len(got) != 2 || got[0] != chain[0] || got[1] != chain[1] {
		t.Fatalf("round trip: %+v", got)
	}

	bad := http.Header{}
	bad.Set(PeersHeader, "nourl,r2=http://h2:1,=x,r3=")
	if got := ParsePeers(bad); len(got) != 1 || got[0].ID != "r2" {
		t.Fatalf("malformed entries not dropped: %+v", got)
	}
	if got := ParsePeers(http.Header{}); got != nil {
		t.Fatalf("empty headers produced a chain: %+v", got)
	}
}

// TestMultiStreamFanout: Commit reaches every hop independently, Lag is
// the worst hop, and HopLags keeps chain order.
func TestMultiStreamFanout(t *testing.T) {
	type peerState struct {
		mu   sync.Mutex
		got  int64
		fail bool
	}
	mkPeer := func(ps *peerState) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ps.mu.Lock()
			defer ps.mu.Unlock()
			if ps.fail {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			ps.got++
			fmt.Fprintf(w, `{"next": %d}`, ps.got)
		}))
	}
	var p1, p2 peerState
	ts1, ts2 := mkPeer(&p1), mkPeer(&p2)
	defer ts1.Close()
	defer ts2.Close()
	p2.fail = true

	ms := NewMultiStream(
		NewSessionStream(ts1.Client(), ts1.URL, "r2", "s1", nil),
		nil, // a dead hop at build time is skipped, not fatal
		NewSessionStream(ts2.Client(), ts2.URL, "r3", "s1", nil),
	)
	ms.Commit([][]byte{[]byte("f0\n")})
	if lag := ms.Lag(); lag != 1 {
		t.Fatalf("worst-hop lag %d, want 1 (r3 down)", lag)
	}
	hops := ms.HopLags()
	if len(hops) != 2 || hops[0].Peer != "r2" || hops[1].Peer != "r3" {
		t.Fatalf("hop order: %+v", hops)
	}
	if hops[0].Lag != 0 || hops[1].Lag != 1 {
		t.Fatalf("hop lags: %+v", hops)
	}
	if got := ms.Peers(); len(got) != 2 || got[0] != "r2" || got[1] != "r3" {
		t.Fatalf("peers: %v", got)
	}

	// The dead hop recovers on the next flush; both standbys converge.
	p2.mu.Lock()
	p2.fail = false
	p2.mu.Unlock()
	if err := ms.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if lag := ms.Lag(); lag != 0 {
		t.Fatalf("lag %d after recovery, want 0", lag)
	}
}
