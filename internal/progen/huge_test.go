package progen

import (
	"context"
	"strings"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/xform"
)

func TestHugeValidAndSized(t *testing.T) {
	p := Huge(1, 3000)
	if p.Instrs < 3000 {
		t.Fatalf("instrs = %d, want >= 3000", p.Instrs)
	}
	prog, err := asm.Parse(p.Source)
	if err != nil {
		t.Fatalf("Huge program does not parse: %v", err)
	}
	if len(prog.Funcs) != p.Funcs {
		t.Errorf("funcs = %d, reported %d", len(prog.Funcs), p.Funcs)
	}
	n := 0
	for _, f := range prog.Funcs {
		n += f.NumInstrs()
	}
	if n != p.Instrs {
		t.Errorf("parsed instrs = %d, reported %d", n, p.Instrs)
	}
	// Dozens of ~40-instruction functions, not a few huge ones.
	if p.Funcs < p.Instrs/60 {
		t.Errorf("funcs = %d for %d instrs: functions too large", p.Funcs, p.Instrs)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Verify = true
	if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{}); err != nil {
		t.Fatalf("Huge program does not schedule: %v", err)
	}
}

func TestHugeDeterministic(t *testing.T) {
	a, b := Huge(42, 1000), Huge(42, 1000)
	if a.Source != b.Source {
		t.Fatal("same seed produced different programs")
	}
	if c := Huge(43, 1000); c.Source == a.Source {
		t.Fatal("different seeds produced identical programs")
	}
	if !strings.Contains(a.Source, "data ha 256") {
		t.Error("data directives missing")
	}
}
