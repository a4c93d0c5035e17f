package main

import (
	"fmt"

	"hummingbird/internal/baseline"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/workload"
)

// enumOracle checks the block method (internal/sta) against an independent
// reference: baseline.EnumerateSlacks walks every path of every cluster pass
// explicitly, which is exact for the block method. Both run at Algorithm 1's
// fixed-point offsets of a seeded two-phase latch pipeline with a gated bank:
// the SoC's block shape (a 32-wide latch bank feeding four random gate
// layers), without the SoC's 31-deep XOR output reductions, whose 2^31
// transition paths no enumeration can walk.
func enumOracle(b *bench) error {
	d, err := workload.Pipeline(workload.PipeConfig{
		Name: "oracle", Stages: 8, Width: 32, Depth: 4,
		Latch: "DLATCH_X1", GatedBank: true, Seed: b.seed,
	})
	if err != nil {
		return fmt.Errorf("oracle design: %w", err)
	}
	a, err := core.Load(b.lib, d, core.DefaultOptions())
	if err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		return fmt.Errorf("oracle analysis: %w", err)
	}
	enum := baseline.EnumerateSlacks(a.CD, a.St)
	if b.perturb == "enum" {
		for n, s := range enum.NetSlack {
			if s != clock.Inf {
				enum.NetSlack[n]++
				break
			}
		}
	}
	mism := baseline.CountMismatches(rep.Result, enum)
	b.check("enumeration", mism == 0 && enum.Paths > 0,
		"%d of %d net slacks differ from path enumeration over %d paths", mism, len(enum.NetSlack), enum.Paths)
	return nil
}
