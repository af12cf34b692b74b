package pdg

import (
	"strings"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/machine"
)

func TestDepKindStrings(t *testing.T) {
	for k, want := range map[DepKind]string{
		depFlow: "flow", depAnti: "anti", depOutput: "output", depMem: "mem",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k, want)
		}
	}
}

func TestCtrlDepString(t *testing.T) {
	if got := (CtrlDep{Node: 0, Label: 1}).String(); got != "(BL1,T)" {
		t.Errorf("taken dep = %q", got)
	}
	if got := (CtrlDep{Node: 4, Label: 0}).String(); got != "(BL5,F)" {
		t.Errorf("fallthrough dep = %q", got)
	}
}

func TestCDGStringIncludesIndependents(t *testing.T) {
	p, _ := minmaxPDG(t)
	s := p.CDG.String()
	if !strings.Contains(s, "BL2: -") {
		t.Errorf("independent block not rendered with '-':\n%s", s)
	}
}

func TestFrameAliasing(t *testing.T) {
	f := ir.NewFunc("t")
	mkFrame := func(op ir.Op, off int64) *ir.Instr {
		i := f.NewInstr(op)
		i.Def = ir.GPR(1)
		i.A = ir.GPR(2)
		i.Mem = &ir.Mem{Frame: true, Off: off, Base: ir.NoReg}
		return i
	}
	mkSym := func(op ir.Op) *ir.Instr {
		i := f.NewInstr(op)
		i.Def = ir.GPR(1)
		i.A = ir.GPR(2)
		i.Mem = &ir.Mem{Sym: "g", Base: ir.GPR(3)}
		return i
	}
	call := f.NewInstr(ir.OpCall)
	call.Target = "h"

	s0 := mkFrame(ir.OpStore, 0)
	s4 := mkFrame(ir.OpStore, 4)
	l0 := mkFrame(ir.OpLoad, 0)
	gld := mkSym(ir.OpLoad)
	gst := mkSym(ir.OpStore)

	if mayAlias(s0, s4) {
		t.Error("distinct frame slots must not alias")
	}
	if !mayAlias(s0, l0) {
		t.Error("same frame slot must alias")
	}
	if mayAlias(s0, gld) || mayAlias(s0, gst) {
		t.Error("frame slots never alias global memory")
	}
	if mayAlias(s0, call) {
		t.Error("calls cannot touch the caller's frame slots")
	}
	if !mayAlias(gst, call) {
		t.Error("calls alias global stores")
	}
}

func TestHeightsWithMultiCycleOps(t *testing.T) {
	f := ir.NewFunc("t")
	b := ir.NewBuilder(f)
	blk := b.Block("e")
	x, y, z := ir.GPR(0), ir.GPR(1), ir.GPR(2)
	b.Op2(ir.OpMul, y, x, x)
	b.Op2(ir.OpAdd, z, y, y)
	b.Ret(z)
	f.ReindexBlocks()
	mach := machine.RS6K()
	ddg := NewBuilder().BuildBlockDDG(blk, mach)
	var h HeightVals
	HeightsInto(&h, blk, ddg, mach)
	// CP(mul) >= MulTime + CP(add): the multi-cycle execution time
	// enters the critical path.
	const mul, add = 0, 1 // positions in the block
	if h.CP(mul) < mach.MulTime+h.CP(add) {
		t.Errorf("CP(mul)=%d too small (MulTime=%d, CP(add)=%d)",
			h.CP(mul), mach.MulTime, h.CP(add))
	}
}

func TestSpecDegreeUnreachable(t *testing.T) {
	p, _ := minmaxPDG(t)
	// No CSPDG path from a leaf (BL3) anywhere.
	if got := p.CDG.SpecDegree(3, 1); got != -1 {
		t.Errorf("degree BL3->BL1 = %d, want -1", got)
	}
}

func TestEquivalentReflexive(t *testing.T) {
	p, _ := minmaxPDG(t)
	for _, b := range p.Region.Blocks {
		if !p.Equivalent(b, b) {
			t.Errorf("BL%d not equivalent to itself", b)
		}
	}
}
