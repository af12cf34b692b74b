package asm_test

import (
	"context"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

// roundTripEqual asserts asm.Parse(asm.Print(p)) is structurally identical to p
// (modulo instruction IDs) and that the second print is stable.
func roundTripEqual(t *testing.T, label string, p *ir.Program) {
	t.Helper()
	text := asm.Print(p)
	q, err := asm.Parse(text)
	if err != nil {
		t.Fatalf("%s: reparse failed: %v\n%s", label, err, text)
	}
	if !ir.EqualPrograms(p, q) {
		t.Fatalf("%s: round trip is not structurally identical\n%s\nvs\n%s", label, text, asm.Print(q))
	}
	if asm.Print(q) != text {
		t.Fatalf("%s: second print differs", label)
	}
}

// TestRoundTripProgenCorpus: the full generator corpus — default-size
// and size-bounded programs, unscheduled and scheduled at the
// speculative level — survives print/reparse with structural equality,
// not just behavioural equivalence.
func TestRoundTripProgenCorpus(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, sized := range []bool{false, true} {
			var src string
			if sized {
				sz := progen.SmallSize()
				sz.Floats = seed%2 == 0
				sz.Helper = seed%3 == 0
				src = progen.NewSized(seed, sz).Source
			} else {
				src = progen.New(seed).Source
			}
			label := "new"
			if sized {
				label = "sized"
			}
			prog, err := minic.Compile(src)
			if err != nil {
				t.Fatalf("%s seed %d: %v", label, seed, err)
			}
			roundTripEqual(t, label+" unscheduled", prog)
			if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{}); err != nil {
				t.Fatalf("%s seed %d: schedule: %v", label, seed, err)
			}
			roundTripEqual(t, label+" scheduled", prog)
		}
	}
}

// TestRoundTripExampleInputs finds every string constant embedded in
// examples/*/main.go, interprets it as mini-C or assembly, and asserts
// the structural round trip on each. This keeps the shipped examples
// inside the tested corpus.
func TestRoundTripExampleInputs(t *testing.T) {
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	inputs := 0
	for _, path := range mains {
		fset := token.NewFileSet()
		file, err := goparser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil || len(src) < 40 {
				return true // flag strings, labels: not program sources
			}
			prog, cerr := minic.Compile(src)
			if cerr != nil {
				if prog, err = asm.Parse(src); err != nil {
					return true // a long string that is neither language
				}
			}
			inputs++
			roundTripEqual(t, path, prog)
			return true
		})
	}
	if inputs < 5 {
		t.Errorf("only %d example inputs round-tripped; expected the example programs to be found", inputs)
	}
}
