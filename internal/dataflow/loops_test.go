package dataflow

import (
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/ir"
)

// buildLoop constructs: entry{li s; li i} loop{s+=i; i++; cmp; bt loop}
// exit{ret s}.
func buildLoop() (*ir.Func, ir.Reg, ir.Reg, ir.Reg) {
	f := ir.NewFunc("t")
	s, i, n, cr := ir.GPR(0), ir.GPR(1), ir.GPR(2), ir.CR(0)
	f.Params = []ir.Reg{n}
	b := ir.NewBuilder(f)
	b.Block("entry")
	b.LI(s, 0)
	b.LI(i, 0)
	b.Block("loop")
	b.Op2(ir.OpAdd, s, s, i)
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	b.BT("loop", cr, ir.BitLT)
	b.Block("exit")
	b.Ret(s)
	f.ReindexBlocks()
	return f, s, i, n
}

func TestLoopCarriedLiveness(t *testing.T) {
	f, s, i, n := buildLoop()
	g := cfg.Build(f)
	lv := Compute(f, g)

	// All three of s, i, n are live around the back edge.
	for _, r := range []ir.Reg{s, i, n} {
		if !lv.LiveOnExit(1, r) {
			t.Errorf("%s should be live on exit from the loop block", r)
		}
		if !lv.In[1].Has(r) {
			t.Errorf("%s should be live into the loop block", r)
		}
	}
	// Only s survives into the exit block.
	if !lv.In[2].Has(s) {
		t.Error("s should be live into exit")
	}
	if lv.In[2].Has(i) || lv.In[2].Has(n) {
		t.Error("i and n should be dead at exit")
	}
	// cr is block-local.
	if lv.LiveOnExit(1, ir.CR(0)) {
		t.Error("cr should be consumed by the loop's own branch")
	}
	// Parameters are live at entry.
	if !lv.In[0].Has(n) {
		t.Error("parameter n should be live at entry")
	}
}

func TestLivenessOnDiamond(t *testing.T) {
	// if (a) x = 1 else x = 2; use x: x is live-in to both arms' blocks
	// but not live into the branch block's entry.
	f := ir.NewFunc("t")
	a, x, cr := ir.GPR(0), ir.GPR(1), ir.CR(0)
	f.Params = []ir.Reg{a}
	b := ir.NewBuilder(f)
	b.Block("head")
	b.CmpI(cr, a, 0)
	b.BT("else", cr, ir.BitEQ)
	b.Block("then")
	b.LI(x, 1)
	b.B("join")
	b.Block("else")
	b.LI(x, 2)
	b.Block("join")
	b.Ret(x)
	f.ReindexBlocks()
	g := cfg.Build(f)
	lv := Compute(f, g)
	if lv.In[0].Has(x) {
		t.Error("x must not be live into the head (both arms define it)")
	}
	if !lv.Out[1].Has(x) || !lv.Out[2].Has(x) {
		t.Error("x must be live out of both arms")
	}
	if !lv.In[3].Has(x) {
		t.Error("x must be live into the join")
	}
}

func TestLivenessThroughCall(t *testing.T) {
	f := ir.NewFunc("t")
	a, r := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{a}
	b := ir.NewBuilder(f)
	b.Block("entry")
	b.Call(r, "h", a)
	out := ir.GPR(2)
	b.Op2(ir.OpAdd, out, r, a) // a survives the call
	b.Ret(out)
	f.ReindexBlocks()
	g := cfg.Build(f)
	lv := Compute(f, g)
	if !lv.In[0].Has(a) {
		t.Error("a should be live at entry (used as arg and after the call)")
	}
	// r is defined by the call, not live-in.
	if lv.In[0].Has(r) {
		t.Error("call result must not be live at entry")
	}
}

func TestUnionAndClear(t *testing.T) {
	f := ir.NewFunc("t")
	f.NoteReg(ir.GPR(130))
	a, b := newRegSet(f), newRegSet(f)
	a.Add(ir.GPR(1))
	b.Add(ir.GPR(2))
	b.Add(ir.GPR(130))
	if !a.UnionInto(b) {
		t.Error("union should change a")
	}
	if a.UnionInto(b) {
		t.Error("second union should be a no-op")
	}
	if !a.Has(ir.GPR(1)) || !a.Has(ir.GPR(2)) || !a.Has(ir.GPR(130)) {
		t.Error("union lost members")
	}
	a.Clear()
	if a.Count() != 0 {
		t.Error("Clear left members")
	}
}
