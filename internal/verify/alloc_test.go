//go:build !race

// The race detector adds its own allocations, which would make the
// budget meaningless, so this file is excluded under -race.
package verify_test

import (
	"testing"

	"gsched/internal/ir"
	"gsched/internal/verify"
)

// maxCheckAllocsPerInstr budgets Check's allocations per instruction of
// the checked function, on the ~1000-instruction generated main of
// BenchmarkCheck/global. Measured 2026-10: 1.96 allocs/instr (1945 per
// check; the flow analysis' per-block slices and each speculative
// motion's depth search dominate). maxPostPassAllocsPerInstr budgets
// the block-local check of BenchmarkCheck/postpass, which runs no flow
// analysis: measured 0.024 (24 per check). Raise them only for a change
// that needs the allocations, after measuring with
//
//	go test -run TestCheckAllocBudget -v ./internal/verify
const (
	maxCheckAllocsPerInstr    = 2.0
	maxPostPassAllocsPerInstr = 0.05
)

func TestCheckAllocBudget(t *testing.T) {
	snap, f, rules := scheduledBigMain(t)
	checkAllocs(t, "global", snap, f, rules, maxCheckAllocsPerInstr)
	snap, f = postPassBigMain(t)
	checkAllocs(t, "postpass", snap, f, verify.Rules{}, maxPostPassAllocsPerInstr)
}

func checkAllocs(t *testing.T, name string, snap *verify.Snapshot, f *ir.Func, rules verify.Rules, budget float64) {
	got := testing.AllocsPerRun(20, func() {
		if err := verify.Check(snap, f, rules); err != nil {
			t.Fatal(err)
		}
	})
	perInstr := got / float64(f.NumInstrs())
	t.Logf("%s Check(%d instrs): %.0f allocs/run, %.3f per instruction (budget %.3f)",
		name, f.NumInstrs(), got, perInstr, budget)
	if perInstr > budget {
		t.Errorf("%s Check allocates %.3f per instruction, budget %.3f — see the budget's comment before raising",
			name, perInstr, budget)
	}
}
