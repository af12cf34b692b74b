//go:build !race

// Front-end allocation budgets, in the style of internal/asm's
// parse_alloc_test.go: they pin allocations per token for the lexer
// and per output instruction for the whole compile, on the four SPEC
// proxies and a bigfunc-sized generated program, so a front-end
// hot-path regression (a map literal per character, a string per
// token) fails loudly. Budgets are ~1.3× the measured steady state;
// measure with
//
//	go test ./internal/minic -run TestCompileAllocBudget -v
//
// and update the constants (noting the measured number) only for
// changes that legitimately add per-token or per-instruction work.
// Each measurement runs with the collector off. Excluded under -race
// because the detector adds its own allocations.
package minic_test

import (
	"runtime/debug"
	"testing"

	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/workload"
)

// Measured 2026-10: Lex makes one allocation per source (the presized
// token slice), at most 0.003 per token on these inputs; Compile makes
// 4.6–5.1 per instruction on the proxies and 3.7 on the generated
// program.
const (
	maxLexAllocsPerToken     = 0.05
	maxCompileAllocsPerInstr = 6.7
)

func TestCompileAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type input struct{ name, src string }
	ins := []input{{"bigfunc", progen.NewSized(2, progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3}).Source}}
	for _, w := range workload.All() {
		ins = append(ins, input{w.Name, w.Source})
	}
	for _, in := range ins {
		name, src := in.name, in.src
		toks, err := minic.Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := minic.Lex(src); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(toks))
		t.Logf("%s: Lex %.3f allocs/token over %d tokens (budget %.2f)", name, got, len(toks), maxLexAllocsPerToken)
		if got > maxLexAllocsPerToken {
			t.Errorf("%s: Lex allocates %.3f per token, budget %.2f — see file comment before raising",
				name, got, maxLexAllocsPerToken)
		}

		p, err := minic.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		instrs := 0
		for _, f := range p.Funcs {
			instrs += f.NumInstrs()
		}
		got = testing.AllocsPerRun(5, func() {
			if _, err := minic.Compile(src); err != nil {
				t.Fatal(err)
			}
		}) / float64(instrs)
		t.Logf("%s: Compile %.2f allocs/instr over %d instrs (budget %.1f)", name, got, instrs, maxCompileAllocsPerInstr)
		if got > maxCompileAllocsPerInstr {
			t.Errorf("%s: Compile allocates %.2f per instruction, budget %.1f — see file comment before raising",
				name, got, maxCompileAllocsPerInstr)
		}
	}
}
