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
// BenchmarkCheck/global, once the Verifier's storage has grown to it.
// maxPostPassAllocsPerInstr budgets the block-local check of
// BenchmarkCheck/postpass. Both schedules are legal, so a check
// allocates nothing: measured 2026-10, 0 allocs per check for both
// (1945 and 24 when every check built its tables afresh). Raise them
// only for a change that needs the allocations, after measuring with
//
//	go test -run TestCheckAllocBudget -v ./internal/verify
const (
	maxCheckAllocsPerInstr    = 0
	maxPostPassAllocsPerInstr = 0
)

func TestCheckAllocBudget(t *testing.T) {
	ver, f, rules := scheduledBigMain(t)
	checkAllocs(t, "global", ver, f, rules, maxCheckAllocsPerInstr)
	ver, f = postPassBigMain(t)
	checkAllocs(t, "postpass", ver, f, verify.Rules{}, maxPostPassAllocsPerInstr)
}

func checkAllocs(t *testing.T, name string, ver *verify.Verifier, f *ir.Func, rules verify.Rules, budget float64) {
	got := testing.AllocsPerRun(20, func() {
		if err := ver.Check(f, rules); err != nil {
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
