//go:build !race

// Parse-path allocation budgets, mirroring the scheduler budgets in
// the repo root's alloc_regression_test.go: they pin allocations per
// input instruction on a 10×-scale generated program so front-end
// hot-path regressions (a per-line split, a per-operand string) fail
// loudly. Budgets are ~1.3× the measured steady state; measure with
//
//	go test ./internal/asm -run TestParseAllocBudget -v
//
// and update the constants (noting the measured number) only for
// changes that legitimately add per-instruction work. Excluded under
// -race because the detector adds its own allocations.
package asm_test

import (
	"io"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/progen"
)

// Measured 2026-08 on the Huge(5, 10000) corpus: ~2.5 allocs/instr
// for both entry points — Parse is now a thin loop over the streaming
// reader, so they share the per-instruction cost (the ir.Instr node
// plus amortized block/function growth; line splitting reuses
// per-parser scratch).
const (
	maxParseAllocsPerInstr  = 3.3
	maxStreamAllocsPerInstr = 3.3
)

func TestParseAllocBudget(t *testing.T) {
	hp := progen.Huge(5, 10000)

	got := testing.AllocsPerRun(3, func() {
		if _, err := asm.Parse(hp.Source); err != nil {
			t.Fatal(err)
		}
	}) / float64(hp.Instrs)
	t.Logf("Parse: %.2f allocs/instr over %d instrs (budget %.1f)", got, hp.Instrs, maxParseAllocsPerInstr)
	if got > maxParseAllocsPerInstr {
		t.Errorf("Parse allocates %.2f per instruction, budget %.1f — see file comment before raising",
			got, maxParseAllocsPerInstr)
	}

	got = testing.AllocsPerRun(3, func() {
		r, err := asm.Native.Open(hp.Source)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.ParseFunc(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(hp.Instrs)
	t.Logf("Reader: %.2f allocs/instr over %d instrs (budget %.1f)", got, hp.Instrs, maxStreamAllocsPerInstr)
	if got > maxStreamAllocsPerInstr {
		t.Errorf("streaming Reader allocates %.2f per instruction, budget %.1f — see file comment before raising",
			got, maxStreamAllocsPerInstr)
	}
}
