package sta

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"hummingbird/internal/clock"
)

// TestWorstSlackFollowsSegments: a result's worst slack is the minimum of
// its segment minima after SetSegment and Settle, one segment at a time or
// a batch. Two results that differ in the clusters a move of offsets
// dirtied turn into each other when those segments are swapped, worst
// slack included. And where every segment holding the minimum gives way
// to one with a larger minimum, which only a rescan finds, the worst slack
// rises.
func TestWorstSlackFollowsSegments(t *testing.T) {
	cd := socFixture(t, 4, 2, 1, 2)
	st := NewState(cd)
	base := Analyze(cd, st)
	ids := moveOffsets(t, cd, st, 12)
	moved := base.Clone()
	if err := RecomputeContext(context.Background(), cd, st, moved, ids, 1); err != nil {
		t.Fatal(err)
	}
	scan := func(r *Result) clock.Time {
		w := posInf
		for _, s := range r.segs {
			w = min(w, s[0])
		}
		return w
	}
	for _, pair := range [][2]*Result{{base, moved}, {moved, base}} {
		from, to := pair[0], pair[1]
		for _, c := range ids {
			r := from.Clone()
			r.SetSegment(c, to.Segment(c))
			r.Settle()
			if got, want := r.WorstSlack(), scan(r); got != want {
				t.Fatalf("cluster %d's segment replaced: worst slack %v, want %v", c, got, want)
			}
		}
		r := from.Clone()
		for _, c := range ids {
			r.SetSegment(c, to.Segment(c))
		}
		r.Settle()
		if !reflect.DeepEqual(r, to) {
			t.Fatalf("every dirty segment replaced: worst slack %v, want %v; the results differ", r.WorstSlack(), to.WorstSlack())
		}
	}

	r := base.Clone()
	w0 := r.WorstSlack()
	if w0 == posInf {
		t.Fatal("the fixture has no finite slack")
	}
	for c, s := range r.segs {
		if s[0] != w0 {
			continue
		}
		up := slices.Clone(s)
		up[0] = w0 + 1
		r.SetSegment(c, Segment{up})
		r.Settle()
		if got, want := r.WorstSlack(), scan(r); got != want {
			t.Fatalf("cluster %d's minimum raised from %v: worst slack %v, want %v", c, w0, got, want)
		}
	}
	if r.WorstSlack() <= w0 {
		t.Fatalf("every minimum raised from %v: worst slack %v", w0, r.WorstSlack())
	}
}
