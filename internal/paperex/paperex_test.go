package paperex

import (
	"strings"
	"testing"

	"gsched/internal/ir"
)

func TestMinMaxShapeMatchesFigure2(t *testing.T) {
	_, f := MinMax()
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lo, hi := LoopBlocks()
	// Figure 2's loop is the ten basic blocks BL1..BL10.
	if hi-lo != 10 {
		t.Fatalf("loop spans %d blocks, want 10", hi-lo)
	}
	// The paper's twenty loop instructions I1..I20.
	n := 0
	for _, b := range f.Blocks[lo:hi] {
		n += len(b.Instrs)
	}
	if n != 20 {
		t.Errorf("loop has %d instructions, want 20", n)
	}
	// Spot-check the printed forms against Figure 2.
	text := f.String()
	for _, want := range []string{
		"L r12=a(r31,4)",
		"LU r0,r31=a(r31,8)",
		"C cr7=r12,r0",
		"BF CL.4,cr7,gt",
		"AI r29=r29,2",
		"BT CL.0,cr4,lt",
		"LR r30=r12",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Block labels of Figure 2.
	for _, label := range []string{"CL.0", "CL.6", "CL.4", "CL.11", "CL.9"} {
		if f.BlockByLabel(label) == nil {
			t.Errorf("missing label %s", label)
		}
	}
}

func TestMinMaxBlockContents(t *testing.T) {
	_, f := MinMax()
	// BL1 = I1..I4, BL10 = I18..I20 with the paper's opcodes.
	bl1 := f.Blocks[1]
	ops := []ir.Op{ir.OpLoad, ir.OpLoadU, ir.OpCmp, ir.OpBC}
	if len(bl1.Instrs) != len(ops) {
		t.Fatalf("BL1 has %d instrs", len(bl1.Instrs))
	}
	for k, op := range ops {
		if bl1.Instrs[k].Op != op {
			t.Errorf("BL1[%d] = %s, want %s", k, bl1.Instrs[k].Op, op)
		}
	}
	bl10 := f.Blocks[10]
	ops10 := []ir.Op{ir.OpAddI, ir.OpCmp, ir.OpBC}
	for k, op := range ops10 {
		if bl10.Instrs[k].Op != op {
			t.Errorf("BL10[%d] = %s, want %s", k, bl10.Instrs[k].Op, op)
		}
	}
	if !bl10.Instrs[2].OnTrue {
		t.Error("I20 must be BT (branch on true)")
	}
}

func TestSpeculationShape(t *testing.T) {
	p, f := Speculation()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4 (B1..B4)", len(f.Blocks))
	}
	// Both diamond sides define the same register.
	li2 := f.Blocks[1].Instrs[0]
	li3 := f.Blocks[2].Instrs[0]
	if li2.Op != ir.OpLI || li3.Op != ir.OpLI || li2.Def != li3.Def {
		t.Errorf("diamond sides: %s / %s", li2, li3)
	}
	if li2.Imm != 5 || li3.Imm != 3 {
		t.Errorf("values: %d / %d, want 5 / 3", li2.Imm, li3.Imm)
	}
}
