package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/workload"
)

// openSoC opens an engine on the small SoC the rollback and ownership
// tests share.
func openSoC(t *testing.T) *Engine { return openSoCAt(t, 100) }

// openSoCAt opens an engine on that SoC with its clocks scaled to pct%.
// At 100% its runs take one sweep, so each starts in place from the
// previous run's end state; at 22% they take tens of sweeps and start
// from the initial offsets.
func openSoCAt(t *testing.T, pct int64) *Engine {
	t.Helper()
	d, err := workload.SoC(8, 8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = core.ScaleClocks(d, pct, 100); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// gatesInTwoClusters returns two delay-local gates whose arcs lie in two
// different clusters.
func gatesInTwoClusters(t *testing.T, eng *Engine) (a, b string) {
	t.Helper()
	first := -1
	for _, inst := range eng.Design().Instances {
		refs := eng.byInst.of(eng.instIdx[inst.Name])
		if !eng.delayLocal(inst.Name) || len(refs) == 0 {
			continue
		}
		switch c := int(refs[0].cluster); {
		case a == "":
			a, first = inst.Name, c
		case c != first:
			return a, inst.Name
		}
	}
	t.Fatal("no two delay-local gates in different clusters")
	return "", ""
}

// TestCancelledDelayEditRestoresBase: a delay edit recomputes its stale
// clusters inside the engine's cached base result, in place, and moves
// the offsets the engine keeps at the last fixed point, so a cancelled
// edit must put both back. On both starts — the SoC at its nominal clock,
// whose runs start in place, and at 22%, whose runs start from the
// initial offsets — the edit on a gate in cluster A is cancelled at its
// k-th cluster analysis, from 0 (inside the base recompute) until the
// edit completes (past the first sweep). The engine's offsets, base and
// report must then be as before the edit; and after an edit on a gate in
// cluster B, its report, base and offsets must equal those of a
// reference engine that applied only B's edit, so its trajectory was
// kept too. The base is compared directly because the fixed point can
// mask a stale cluster in it: a sweep that re-dirties A copies it from
// the previous fixed point.
func TestCancelledDelayEditRestoresBase(t *testing.T) {
	for _, pct := range []int64{100, 22} {
		t.Run(fmt.Sprintf("%d%%", pct), func(t *testing.T) {
			ref := openSoCAt(t, pct)
			a, b := gatesInTwoClusters(t, ref)
			editA := Edit{Op: Adjust, Inst: a, Delta: 700}
			editB := Edit{Op: Adjust, Inst: b, Delta: -300}
			if _, err := ref.Apply(editB); err != nil {
				t.Fatal(err)
			}
			want := ref.Report()
			// At 22% an edit runs hundreds of cluster analyses: every
			// cancellation point up to 8, then every fourth.
			for k := 0; ; k += 1 + 3*min(1, k/8) {
				eng := openSoCAt(t, pct)
				rep, base, odz := eng.Report(), eng.base.Clone(), slices.Clone(eng.Analyzer().St.Odz)
				if _, err := eng.ApplyContext(&countdownCtx{Context: context.Background(), k: k}, editA); err == nil {
					if k < 2 {
						t.Fatalf("edit on %s ran %d cluster analyses; want one in the base recompute and one in a sweep", a, k)
					}
					break
				}
				if eng.Report() != rep || !reflect.DeepEqual(eng.base, base) || !slices.Equal(eng.Analyzer().St.Odz, odz) {
					t.Fatalf("edit on %s cancelled at cluster analysis %d: the report, base or offsets changed", a, k)
				}
				out, err := eng.Apply(editB)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Incremental {
					t.Fatalf("k=%d: edit on %s fell back to a full analysis", k, b)
				}
				if !reflect.DeepEqual(eng.Report(), want) {
					t.Fatalf("edit on %s cancelled at cluster analysis %d, then one on %s: report differs from the reference's", a, k, b)
				}
				if !reflect.DeepEqual(eng.base, ref.base) {
					t.Fatalf("edit on %s cancelled at cluster analysis %d, then one on %s: cached base differs from the reference's", a, k, b)
				}
				if !slices.Equal(eng.Analyzer().St.Odz, ref.Analyzer().St.Odz) {
					t.Fatalf("edit on %s cancelled at cluster analysis %d, then one on %s: offsets differ from the reference's", a, k, b)
				}
			}
		})
	}
}

// resultCopy is a deep copy of every value a result's segments hold, read
// through its accessors.
type resultCopy struct {
	worst        clock.Time
	net, in, out []clock.Time
	passes       []sta.PassDetail
}

// deepCopyResult copies every segment of r, a result over elems
// elements: each slack slot, the worst slack and every pass-detail vector.
func deepCopyResult(r *sta.Result, elems int) resultCopy {
	c := resultCopy{worst: r.WorstSlack()}
	for n := range r.NumNets() {
		c.net = append(c.net, r.NetSlack(n))
	}
	for e := range elems {
		c.in = append(c.in, r.InSlack(e))
		c.out = append(c.out, r.OutSlack(e))
	}
	for _, p := range r.Passes() {
		c.passes = append(c.passes, sta.PassDetail{
			Cluster: p.Cluster, Pass: p.Pass, Beta: p.Beta,
			Nets:   slices.Clone(p.Nets),
			ReadyR: slices.Clone(p.ReadyR), ReadyF: slices.Clone(p.ReadyF),
			ReqR: slices.Clone(p.ReqR), ReqF: slices.Clone(p.ReqF),
		})
	}
	return c
}

// TestPublishedReportsStayIntact pins the ownership rule: a result the
// engine hands out is never written again, though later results, the
// cached base and constraint snapshots share its write-once segments.
// Every report's result is deep-copied when published; after
// adjusts, resizes, a cancelled batch, Algorithm 2 and a topology edit,
// each must still deep-equal its copy.
func TestPublishedReportsStayIntact(t *testing.T) {
	eng := openSoC(t)
	rng := rand.New(rand.NewSource(5))
	type published struct {
		when  string
		res   *sta.Result
		elems int
		copy  resultCopy
	}
	var pubs []published
	publish := func(when string) {
		t.Helper()
		for _, p := range pubs {
			if !reflect.DeepEqual(deepCopyResult(p.res, p.elems), p.copy) {
				t.Fatalf("after %s: the result published %s was written", when, p.when)
			}
		}
		res, elems := eng.Report().Result, len(eng.Analyzer().CD.Elems)
		pubs = append(pubs, published{when, res, elems, deepCopyResult(res, elems)})
	}
	apply := func(when string, edits ...Edit) {
		t.Helper()
		if _, err := eng.Apply(edits...); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		publish(when)
	}
	adjust := func() Edit {
		for {
			if name := randomCombInst(rng, eng); eng.delayLocal(name) {
				return Edit{Op: Adjust, Inst: name, Delta: clock.Time(50 * (1 + rng.Intn(8)) * (1 - 2*rng.Intn(2)))}
			}
		}
	}
	resize := func() Edit {
		for {
			name := randomCombInst(rng, eng)
			cur := eng.Design().Instances[eng.instIdx[name]].Ref
			if to := resizeAlternative(eng, cur); to != "" && eng.delayLocal(name) {
				return Edit{Op: Resize, Inst: name, To: to}
			}
		}
	}
	publish("open")
	for i := 0; i < 4; i++ {
		apply("an adjust", adjust())
		apply("a resize", resize())
	}
	cancelled := &countdownCtx{Context: context.Background(), k: 1}
	if _, err := eng.ApplyContext(cancelled, adjust(), resize()); err == nil {
		t.Fatal("batch cancelled at its second cluster analysis succeeded")
	}
	publish("a cancelled batch")
	if _, err := eng.Constraints(); err != nil {
		t.Fatal(err)
	}
	apply("an adjust after constraints", adjust())
	apply("a topology edit", Edit{Op: AddInst, New: &netlist.Instance{
		Name: "tap_own", Ref: "BUF_X1",
		Conns: map[string]string{"A": randomDataNet(rng, eng), "Y": "tap_own_y"}}})
	apply("an adjust after the topology edit", adjust())
	if _, err := eng.Constraints(); err != nil {
		t.Fatal(err)
	}
	publish("constraints after the topology edit")
}
