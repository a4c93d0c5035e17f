// Package fleet is the horizontal scale-out layer over hummingbirdd: a
// consistent-hash ring that pins sessions to one of N daemon replicas
// keyed by design hash (so replicas sharing a design also share its
// refcounted compile), a journal stream client that replicates each
// session's committed edit frames to a designated peer replica, and a
// router (cmd/hummingbirdfleet) that proxies the session protocol,
// aggregates member health, and performs hot failover — when a replica
// dies or drains, its sessions are re-homed to the peer, which replays
// the streamed journal and serves the session's next request under the
// same session id. See docs/FLEET.md.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count per member. 128 points per
// member keeps the placement spread within a few percent of uniform and
// bounds key movement on a join/leave to ~K/N.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring. Lookups are deterministic:
// the same member set (in any order) and the same key always map to the
// same member, across processes and restarts — the router can be
// restarted without re-homing a single session.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members []string    // sorted member ids
}

type ringPoint struct {
	hash   uint64
	member string
}

// hash64 is the ring's point/key hash: FNV-1a 64 with an avalanche
// finalizer, chosen for determinism across builds (no seeding) and
// speed. Raw FNV output is correlated for short, similar inputs
// ("r1#0", "r3#17", ...), which skews vnode placement badly; the
// finalizer (the 64-bit murmur3 mixer) restores uniform spread. The
// ring does not need cryptographic strength, only spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over the member ids with vnodes virtual points
// per member (DefaultVnodes when <= 0). Duplicate ids collapse; an empty
// member set yields a ring whose lookups return "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit points) break by member
		// id so the ring stays order-independent.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the sorted member ids on the ring.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Lookup returns the member owning key: the first ring point clockwise
// from the key's hash. Empty ring returns "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hash64(key))].member
}

// Successors returns the first n distinct members clockwise from key,
// skipping exclude — the session's replication chain: frames stream to
// each in ring order, and failover adopts from whichever holds the
// highest contiguous sequence. Fewer than n members remain after the
// exclusion, the chain is just shorter; it is never padded.
func (r *Ring) Successors(key, exclude string, n int) []string {
	if n <= 0 || len(r.members) < 2 {
		return nil
	}
	out := make([]string, 0, n)
	seen := map[string]bool{exclude: true}
	i := r.search(hash64(key))
	for step := 0; step < len(r.points) && len(out) < n; step++ {
		p := r.points[(i+step)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		out = append(out, p.member)
	}
	return out
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
