package sta

import (
	"reflect"
	"runtime"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/cluster"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

// mustGen unwraps a workload generator; the fixture configurations are
// static and valid by construction.
func mustGen(d *netlist.Design, err error) *netlist.Design {
	if err != nil {
		panic(err)
	}
	return d
}

func buildWorkload(t *testing.T, d *netlist.Design) *cluster.Network {
	t.Helper()
	lib := celllib.Default()
	if len(d.Modules) > 0 {
		var err error
		lib, err = delaycalc.RollUpModules(lib, d, delaycalc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(lib); err != nil {
		t.Fatal(err)
	}
	cs, err := d.ClockSet()
	if err != nil {
		t.Fatal(err)
	}
	calc, err := delaycalc.New(lib, d, delaycalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nw, err := cluster.Build(lib, d, cs, calc)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// withProcs raises GOMAXPROCS to at least n for the rest of the test: the
// driver caps its workers at GOMAXPROCS, and tests that exercise stealing
// must not lose it on hosts with fewer CPUs.
func withProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestAnalyzeParallelEquivalence: the parallel analysis must agree with the
// sequential one bit for bit, including the pass-detail ordering.
func TestAnalyzeParallelEquivalence(t *testing.T) {
	withProcs(t, 8)
	nw := buildWorkload(t, mustGen(workload.ALU()))
	cd := cluster.Compile(nw)
	st := NewState(cd)
	seq := Analyze(cd, st)
	for _, workers := range []int{1, 2, 4, 8} {
		par := AnalyzeParallel(cd, st, workers)
		for i := range cd.Elems {
			if par.InSlack(i) != seq.InSlack(i) || par.OutSlack(i) != seq.OutSlack(i) {
				t.Fatalf("workers=%d: element %d slacks differ", workers, i)
			}
		}
		for n := range seq.NumNets() {
			if par.NetSlack(n) != seq.NetSlack(n) {
				t.Fatalf("workers=%d: net %d slack differs", workers, n)
			}
		}
		seqPasses, parPasses := seq.Passes(), par.Passes()
		if len(parPasses) != len(seqPasses) {
			t.Fatalf("workers=%d: pass count %d vs %d", workers, len(parPasses), len(seqPasses))
		}
		for p := range seqPasses {
			a, b := &seqPasses[p], &parPasses[p]
			if a.Cluster != b.Cluster || a.Pass != b.Pass || a.Beta != b.Beta {
				t.Fatalf("workers=%d: pass %d identity differs", workers, p)
			}
			for i := range a.ReadyR {
				if a.ReadyR[i] != b.ReadyR[i] || a.ReqF[i] != b.ReqF[i] {
					t.Fatalf("workers=%d: pass %d detail differs", workers, p)
				}
			}
		}
	}
}

// TestAnalyzeParallelAllWorkloads: every benchmark workload, at every
// worker count, must produce a Result deeply identical to the sequential
// analysis — slacks, net slacks, and the full pass-detail ordering. Run
// under -race this also exercises the worker pool for data races.
func TestAnalyzeParallelAllWorkloads(t *testing.T) {
	withProcs(t, 8)
	designs := []*netlist.Design{
		mustGen(workload.DES()), mustGen(workload.ALU()),
		workload.SM1F(), workload.SM1H(), workload.Figure1(),
	}
	for _, d := range designs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nw := buildWorkload(t, d)
			cd := cluster.Compile(nw)
			st := NewState(cd)
			seq := Analyze(cd, st)
			for _, workers := range []int{1, 2, 8} {
				par := AnalyzeParallel(cd, st, workers)
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("workers=%d: parallel result differs from sequential", workers)
				}
			}
		})
	}
}
