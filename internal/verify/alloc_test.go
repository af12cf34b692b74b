//go:build !race

// The race detector adds its own allocations, which would make the
// budget meaningless, so this file is excluded under -race.
package verify_test

import (
	"testing"

	"gsched/internal/verify"
)

// maxCheckAllocsPerInstr budgets Check's allocations per instruction of
// the checked function. Measured 2026-10 on the ~1000-instruction
// generated main of BenchmarkCheck: 2.03 allocs/instr (2020 per check;
// the flow analysis' per-block slices and each speculative motion's
// depth search dominate). Raise it only for a change that needs the
// allocations, after measuring with
//
//	go test -run TestCheckAllocBudget -v ./internal/verify
const maxCheckAllocsPerInstr = 2.6

func TestCheckAllocBudget(t *testing.T) {
	snap, f, rules := scheduledBigMain(t)
	got := testing.AllocsPerRun(20, func() {
		if err := verify.Check(snap, f, rules); err != nil {
			t.Fatal(err)
		}
	})
	perInstr := got / float64(f.NumInstrs())
	t.Logf("Check(%d instrs): %.0f allocs/run, %.2f per instruction (budget %.2f)",
		f.NumInstrs(), got, perInstr, maxCheckAllocsPerInstr)
	if perInstr > maxCheckAllocsPerInstr {
		t.Errorf("Check allocates %.2f per instruction, budget %.2f — see the budget's comment before raising",
			perInstr, maxCheckAllocsPerInstr)
	}
}
