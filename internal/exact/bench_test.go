package exact_test

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/exact"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

// BenchmarkExactSearch times the branch-and-bound search on every block
// the exact tier admits in the programs TestHeuristicMissRegression
// pins (progen.New seeds 14, 29, 60, 67 and 75), as the list scheduler
// leaves them at level=speculative on the RS6K. One op searches every
// block once; nodes/op is the search nodes expanded, which a change to
// the replay or the bounds must keep identical.
func BenchmarkExactSearch(b *testing.B) {
	mach := machine.RS6K()
	var blocks [][]*ir.Instr
	for _, seed := range []int64{14, 29, 60, 67, 75} {
		prog, err := minic.Compile(progen.New(seed).Source)
		if err != nil {
			b.Fatalf("seed %d: compile: %v", seed, err)
		}
		opts := core.Defaults(mach, core.LevelSpeculative)
		if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
			b.Fatalf("seed %d: schedule: %v", seed, err)
		}
		for _, f := range prog.Funcs {
			for _, blk := range f.Blocks {
				blocks = append(blocks, blk.Instrs)
			}
		}
	}
	nodes := 0
	for b.Loop() {
		for _, instrs := range blocks {
			res, _ := exact.ScheduleBlock(instrs, mach, exact.Limits{})
			nodes += res.Nodes
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
