package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("design-%d", i)
	}
	return out
}

// TestRingDeterministicPlacement: the same member set — in any order —
// and the same key always map to the same member, across ring rebuilds.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing([]string{"r1", "r2", "r3"}, 0)
	b := NewRing([]string{"r3", "r1", "r2"}, 0)
	c := NewRing([]string{"r2", "r3", "r1", "r1"}, 0) // duplicate collapses
	for _, k := range keys(1000) {
		pa, pb, pc := a.Lookup(k), b.Lookup(k), c.Lookup(k)
		if pa != pb || pa != pc {
			t.Fatalf("key %q: placements diverge: %q %q %q", k, pa, pb, pc)
		}
		if pa == "" {
			t.Fatalf("key %q: empty placement on a populated ring", k)
		}
	}
}

// TestRingCoLocation: keys equal as strings land on the same member —
// the property that makes same-design-hash sessions share a replica and
// therefore one refcounted compiled design.
func TestRingCoLocation(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3", "r4", "r5"}, 0)
	for _, k := range keys(200) {
		if r.Lookup(k) != r.Lookup(k) {
			t.Fatalf("key %q: lookup not stable", k)
		}
	}
	// Distinct session ids carrying the same design hash route by the
	// hash, not the session — simulated by looking the hash up twice from
	// two call sites.
	h := "designhash-abc123"
	if r.Lookup(h) != r.Lookup(h) {
		t.Fatal("same design hash did not co-locate")
	}
}

// TestRingBoundedMovement: adding or removing one member moves at most
// ~K/N keys (with generous slack for hash variance) and never moves a
// key between two members that are present in both rings.
func TestRingBoundedMovement(t *testing.T) {
	const K = 20000
	ks := keys(K)
	members := []string{"r1", "r2", "r3", "r4"}
	before := NewRing(members, 0)
	after := NewRing(append(append([]string{}, members...), "r5"), 0)

	moved := 0
	for _, k := range ks {
		was, now := before.Lookup(k), after.Lookup(k)
		if was == now {
			continue
		}
		moved++
		// Every moved key must have moved TO the new member; a move
		// between surviving members would be unbounded churn.
		if now != "r5" {
			t.Fatalf("key %q moved %q -> %q, not to the joining member", k, was, now)
		}
	}
	// Expectation is K/5 = 4000; allow 40% slack for vnode variance.
	if lim := K / 5 * 14 / 10; moved > lim {
		t.Fatalf("join moved %d/%d keys, want <= %d (~K/N)", moved, K, lim)
	}
	if moved == 0 {
		t.Fatal("join moved no keys; ring is ignoring the new member")
	}

	// Leave: removing r5 again restores the original placement exactly.
	shrunk := NewRing(members, 0)
	for _, k := range ks {
		if before.Lookup(k) != shrunk.Lookup(k) {
			t.Fatalf("key %q did not return to its pre-join member after leave", k)
		}
	}
}

// TestRingSpread: with vnodes on, no member owns a pathological share.
func TestRingSpread(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3"}, 0)
	counts := map[string]int{}
	const K = 30000
	for _, k := range keys(K) {
		counts[r.Lookup(k)]++
	}
	for m, n := range counts {
		frac := float64(n) / K
		if frac < 0.20 || frac > 0.47 {
			t.Fatalf("member %s owns %.1f%% of keys; spread too skewed: %v", m, frac*100, counts)
		}
	}
}

// TestRingSuccessor: a one-member chain's peer is deterministic, never
// the primary, and lives on the ring.
func TestRingSuccessor(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3"}, 0)
	onRing := map[string]bool{"r1": true, "r2": true, "r3": true}
	for _, k := range keys(500) {
		p := r.Lookup(k)
		chain := r.Successors(k, p, 1)
		if len(chain) != 1 {
			t.Fatalf("key %q: chain %v, want one peer", k, chain)
		}
		peer := chain[0]
		if peer == p {
			t.Fatalf("key %q: peer equals primary %q", k, p)
		}
		if !onRing[peer] {
			t.Fatalf("key %q: peer %q not a member", k, peer)
		}
		if again := r.Successors(k, p, 1); again[0] != peer {
			t.Fatalf("key %q: successor not deterministic", k)
		}
	}
	single := NewRing([]string{"only"}, 0)
	if got := single.Successors("k", "only", 1); got != nil {
		t.Fatalf("single-member ring returned peers %v, want none", got)
	}
	if got := NewRing(nil, 0).Lookup("k"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
}

// TestRingSuccessors: the chain is deterministic, holds distinct
// members, never contains the excluded primary, extends the chain one
// member shorter (failover order is an extension, not a different
// answer), and is exactly min(n, N-1) long — never padded.
func TestRingSuccessors(t *testing.T) {
	members := []string{"r1", "r2", "r3", "r4", "r5"}
	r := NewRing(members, 0)
	onRing := map[string]bool{}
	for _, m := range members {
		onRing[m] = true
	}
	for _, k := range keys(500) {
		p := r.Lookup(k)
		var shorter []string
		for n := 0; n <= len(members)+2; n++ {
			chain := r.Successors(k, p, n)
			want := n
			if max := len(members) - 1; want > max {
				want = max
			}
			if len(chain) != want {
				t.Fatalf("key %q n=%d: chain %v has %d members, want %d", k, n, chain, len(chain), want)
			}
			seen := map[string]bool{}
			for _, m := range chain {
				if m == p {
					t.Fatalf("key %q: chain %v contains the primary %q", k, chain, p)
				}
				if seen[m] || !onRing[m] {
					t.Fatalf("key %q: chain %v has duplicate or foreign member %q", k, chain, m)
				}
				seen[m] = true
			}
			if !slices.Equal(chain[:len(shorter)], shorter) {
				t.Fatalf("key %q: chain %v does not extend %v", k, chain, shorter)
			}
			shorter = chain
		}
	}
}

// TestRingSuccessorsEdgeCases: single member, empty ring, zero/negative
// n, and an exclude that is not on the ring at all.
func TestRingSuccessorsEdgeCases(t *testing.T) {
	if got := NewRing([]string{"only"}, 0).Successors("k", "only", 2); got != nil {
		t.Fatalf("single-member ring returned chain %v, want nil", got)
	}
	if got := NewRing(nil, 0).Successors("k", "x", 2); got != nil {
		t.Fatalf("empty ring returned chain %v, want nil", got)
	}
	two := NewRing([]string{"a", "b"}, 0)
	if got := two.Successors("k", "a", 0); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	if got := two.Successors("k", "a", -3); got != nil {
		t.Fatalf("negative n returned %v, want nil", got)
	}
	// Excluding a non-member: the chain may legitimately contain the
	// key's owner (it is not the exclude), and caps at the member count.
	chain := two.Successors("k", "not-a-member", 5)
	if len(chain) != 2 {
		t.Fatalf("foreign exclude: chain %v, want both members", chain)
	}
}

// TestRingChurnProperty: across a randomized join/leave sequence, every
// single membership change moves at most ~K/N keys (with slack for
// vnode variance), and keys never move between two members that are in
// both the before and after rings.
func TestRingChurnProperty(t *testing.T) {
	const K = 10000
	ks := keys(K)
	rng := rand.New(rand.NewSource(42))
	members := []string{"r1", "r2", "r3"}
	nextID := 4
	ring := NewRing(members, 0)

	for step := 0; step < 12; step++ {
		prev, prevN := ring, len(members)
		join := rng.Intn(2) == 0 || len(members) <= 2
		var joined string
		if join {
			joined = fmt.Sprintf("r%d", nextID)
			nextID++
			members = append(members, joined)
		} else {
			gone := rng.Intn(len(members))
			members = append(members[:gone], members[gone+1:]...)
		}
		ring = NewRing(members, 0)

		moved := 0
		for _, k := range ks {
			was, now := prev.Lookup(k), ring.Lookup(k)
			if was == now {
				continue
			}
			moved++
			if join && now != joined {
				t.Fatalf("step %d: key %q moved %q -> %q, not to the joining member %q", step, k, was, now, joined)
			}
			if !join && ring.Lookup(k) == "" {
				t.Fatalf("step %d: key %q unplaced after leave", step, k)
			}
		}
		// The displaced share is K/N of the larger ring; allow 50% slack.
		n := prevN
		if len(members) > n {
			n = len(members)
		}
		if lim := K / n * 15 / 10; moved > lim {
			t.Fatalf("step %d (%d->%d members): moved %d/%d keys, want <= %d (~K/N)",
				step, prevN, len(members), moved, K, lim)
		}
		if moved == 0 {
			t.Fatalf("step %d: membership change moved no keys", step)
		}
	}
}
