package asm_test

import (
	"io"
	"runtime"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/progen"
)

// BenchmarkParseAsm times asm.Parse on the Huge(5, 10000) corpus that
// TestParseAllocBudget budgets.
func BenchmarkParseAsm(b *testing.B) {
	hp := progen.Huge(5, 10000)
	perInstr(b, hp.Instrs, func() {
		if _, err := asm.Parse(hp.Source); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkPrintAsm times asm.PrintTo, which writes every instruction
// through ir.(*Instr).AppendString, on the same corpus.
func BenchmarkPrintAsm(b *testing.B) {
	hp := progen.Huge(5, 10000)
	p, err := asm.Parse(hp.Source)
	if err != nil {
		b.Fatal(err)
	}
	perInstr(b, hp.Instrs, func() {
		if err := asm.PrintTo(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	})
}

// perInstr runs op b.N times and reports its ns and allocations per
// instruction of a program of instrs instructions.
func perInstr(b *testing.B, instrs int, op func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(instrs) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/instr")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/instr")
}
