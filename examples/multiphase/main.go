// Multiphase: the paper's Figure 1 configuration — a logic gate whose
// inputs are updated by latches on two different clock phases and whose
// output is captured by latches on two further phases. The gate is "time
// multiplexed within each overall clock period": its output must settle to
// two different valid states per cycle, so the shared cluster needs two
// analysis passes — and the §7 pre-processing proves two is the minimum.
//
// Run with:
//
//	go run ./examples/multiphase
package main

import (
	"fmt"
	"log"
	"os"

	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/core"
	"hummingbird/internal/report"
	"hummingbird/internal/workload"
)

func main() {
	lib := celllib.Default()
	d := workload.Figure1()
	a, err := core.Load(lib, d, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		log.Fatal(err)
	}
	report.Summary(os.Stdout, a, rep)
	fmt.Println()

	// Locate the cluster owning the shared gate's output net "m".
	mid := a.CD.NetIdx["m"]
	for _, cl := range a.CD.Clusters {
		if cl.LocalIndex(mid) < 0 {
			continue
		}
		fmt.Printf("cluster %d holds the shared gate; minimum analysis passes: %d\n",
			cl.ID, cl.Plan.Passes())
		T := a.CD.Clocks.Overall()
		for pi, beta := range cl.Plan.Breaks {
			fmt.Printf("  pass %d: period broken open at %v\n", pi, beta)
			for oi, out := range cl.Outputs {
				if p, ok := cl.Plan.Assign[oi]; ok && p == pi {
					e := a.CD.Elems[out.Elem]
					fmt.Printf("    capture %-4s closure at window position %v\n",
						e.Name(), breakopen.ClosePos(e.IdealClose, beta, T))
				}
			}
		}
		// The two settling times of net m, one per pass.
		fmt.Println("  settling times of the shared net m:")
		for pi := range cl.Plan.Breaks {
			pd := rep.Result.Pass(cl.ID, pi)
			li := cl.LocalIndex(mid)
			ready := pd.ReadyR[li]
			if pd.ReadyF[li] > ready {
				ready = pd.ReadyF[li]
			}
			fmt.Printf("    pass %d (break %v): settles %v after window start\n",
				pd.Pass, pd.Beta, ready)
		}
	}

	fmt.Println("\nfull pass plan:")
	report.Plan(os.Stdout, a)
}
