package core

import (
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/workload"
)

// refPartner is the look-up Constraints used before passes were paired by
// index: a search of Required for the pass Ready[pi] is.
func refPartner(c *Constraints, pi int) *sta.PassDetail {
	rp := &c.Ready[pi]
	for qi := range c.Required {
		if c.Required[qi].Cluster == rp.Cluster && c.Required[qi].Pass == rp.Pass {
			return &c.Required[qi]
		}
	}
	return nil
}

// refNetTimes is NetTimes as a search over every pass and every net.
func refNetTimes(c *Constraints, net int) []NetTimes {
	var out []NetTimes
	for pi := range c.Ready {
		rp, qp := &c.Ready[pi], refPartner(c, pi)
		if qp == nil {
			continue
		}
		for li, id := range rp.Nets {
			if id == net {
				out = append(out, NetTimes{
					Cluster: rp.Cluster, Pass: rp.Pass, Beta: rp.Beta,
					ReadyRise: rp.ReadyR[li], ReadyFall: rp.ReadyF[li],
					ReqRise: qp.ReqR[li], ReqFall: qp.ReqF[li],
				})
			}
		}
	}
	return out
}

// refAllowed is Allowed as a search over every pass and every net.
func refAllowed(c *Constraints, from, to int) clock.Time {
	budget := clock.Inf
	for pi := range c.Ready {
		rp, qp := &c.Ready[pi], refPartner(c, pi)
		if qp == nil {
			continue
		}
		fi, ti := -1, -1
		for li, id := range rp.Nets {
			if id == from {
				fi = li
			}
			if id == to {
				ti = li
			}
		}
		if fi < 0 || ti < 0 {
			continue
		}
		ready, req := max(rp.ReadyR[fi], rp.ReadyF[fi]), min(qp.ReqR[ti], qp.ReqF[ti])
		if ready != -clock.Inf && req != clock.Inf {
			budget = min(budget, req-ready)
		}
	}
	return budget
}

// TestConstraintLookupsMatchSearch compares NetTimes on every net, and
// Allowed on every arc and on pairs of nets in different clusters, with
// the searches they replaced: the Table-1 designs, a latch pipeline and
// SoC(8, 8, 4, 3) at 22% of its clock, where paths are slow.
func TestConstraintLookupsMatchSearch(t *testing.T) {
	must := func(d *netlist.Design, err error) *netlist.Design {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tightSoC := func() (*netlist.Design, error) {
		d, err := workload.SoC(8, 8, 4, 3)
		if err != nil {
			return nil, err
		}
		return ScaleClocks(d, 22, 100)
	}
	for _, tc := range []struct {
		name string
		d    *netlist.Design
	}{
		{"SM1F", workload.SM1F()},
		{"SM1H", workload.SM1H()},
		{"ALU", must(workload.ALU())},
		{"DES", must(workload.DES())},
		{"pipeline", must(workload.Pipeline(workload.PipeConfig{Name: "pipe", Stages: 6, Width: 4, Depth: 3, Latch: "DLATCH_X1", Seed: 7}))},
		{"SoC-22", must(tightSoC())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Load(celllib.Default(), tc.d, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.IdentifySlowPaths(); err != nil {
				t.Fatal(err)
			}
			c, err := a.GenerateConstraints()
			if err != nil {
				t.Fatal(err)
			}
			finite := 0
			for n := range a.CD.Nets {
				got, want := c.NetTimes(n), refNetTimes(c, n)
				if len(got) != len(want) {
					t.Fatalf("net %s: %d pass entries, want %d", a.CD.Nets[n], len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("net %s pass %d: %+v, want %+v", a.CD.Nets[n], i, got[i], want[i])
					}
					if got[i].Ready() != -clock.Inf {
						finite++
					}
				}
			}
			arcs := 0
			for _, cl := range a.CD.Clusters {
				for _, arc := range cl.Arcs {
					if got, want := c.Allowed(arc.From, arc.To), refAllowed(c, arc.From, arc.To); got != want {
						t.Fatalf("arc %s -> %s: budget %v, want %v", a.CD.Nets[arc.From], a.CD.Nets[arc.To], got, want)
					}
					arcs++
				}
			}
			if finite == 0 || arcs == 0 {
				t.Fatalf("%d finite ready times over %d arcs: nothing compared", finite, arcs)
			}
			// Nets of different clusters, and a net with itself.
			for i := 0; i+1 < len(a.CD.Clusters); i++ {
				from, to := a.CD.Clusters[i].Nets[0], a.CD.Clusters[i+1].Nets[0]
				for _, p := range [][2]int{{from, to}, {to, from}, {from, from}} {
					if got, want := c.Allowed(p[0], p[1]), refAllowed(c, p[0], p[1]); got != want {
						t.Fatalf("nets %d -> %d: budget %v, want %v", p[0], p[1], got, want)
					}
				}
			}
		})
	}
}
