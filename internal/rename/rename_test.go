package rename

import (
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/paperex"
	"gsched/internal/sim"
)

func TestMinMaxRenamingSplitsCRWebs(t *testing.T) {
	prog, f := paperex.MinMax()
	g := cfg.Build(f)
	n := new(Renamer).Run(f, g)
	if n == 0 {
		t.Fatal("expected webs to be renamed (cr6/cr7 are reused in Figure 2)")
	}
	// The three defs of cr7 (I3 in BL1, I8 in BL4, I15 in BL8) must now
	// be three distinct registers.
	defs := make(map[ir.Reg]int)
	for _, bi := range []int{1, 4, 8} {
		for _, i := range f.Blocks[bi].Instrs {
			if i.Op == ir.OpCmp {
				defs[i.Def]++
			}
		}
	}
	if len(defs) != 3 {
		t.Errorf("cr webs not split: %v\n%s", defs, f)
	}
	// Every compare still feeds the branch of its own block.
	for _, bi := range []int{1, 4, 8} {
		blk := f.Blocks[bi]
		cmp, br := blk.Instrs[len(blk.Instrs)-2], blk.Instrs[len(blk.Instrs)-1]
		if cmp.Def != br.A {
			t.Errorf("BL%d: compare defines %s but branch tests %s", bi, cmp.Def, br.A)
		}
	}
	// Loop-carried GPRs keep consistent names: the LU's base update and
	// next iteration's loads agree.
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid after renaming: %v", err)
	}
	// Semantics unchanged.
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	a := []int64{5, 9, -2, 3, 14, 7, 0, 11, 6}
	res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != -2 {
		t.Errorf("ret = %d, want -2", res.Ret)
	}
}

func TestRenamePreservesParameters(t *testing.T) {
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	new(Renamer).Run(f, g)
	if len(f.Params) != 1 || f.Params[0] != paperex.RegN {
		t.Errorf("params changed: %v", f.Params)
	}
	// n (r27) is only read; every use must still be r27.
	uses := 0
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		if i.UsesReg(paperex.RegN) {
			uses++
		}
	})
	if uses != 2 { // prologue compare and I19
		t.Errorf("r27 used %d times, want 2", uses)
	}
}

// TestRenameIdempotent: a second rename, on the same Renamer and so on
// its reused tables, changes nothing.
func TestRenameIdempotent(t *testing.T) {
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	var rn Renamer
	rn.Run(f, g)
	before := f.String()
	n := rn.Run(f, g)
	if n != 0 {
		t.Errorf("second rename changed %d webs", n)
	}
	if f.String() != before {
		t.Error("second rename changed the code")
	}
}

func TestRenameDisjointScalarWebs(t *testing.T) {
	// r1 is used for two independent values; renaming must split them.
	f := ir.NewFunc("t")
	b := ir.NewBuilder(f)
	b.Block("entry")
	r1, r2, r3 := ir.GPR(1), ir.GPR(2), ir.GPR(3)
	b.LI(r1, 10)
	b.LR(r2, r1) // first web: LI, LR
	b.LI(r1, 20)
	b.Op2(ir.OpAdd, r3, r1, r2) // second web: LI, Add use
	b.Ret(r3)
	f.ReindexBlocks()
	g := cfg.Build(f)
	if n := new(Renamer).Run(f, g); n != 1 {
		t.Fatalf("renamed %d webs, want 1", n)
	}
	first := f.Blocks[0].Instrs[0].Def
	second := f.Blocks[0].Instrs[2].Def
	if first == second {
		t.Error("independent webs share a register after renaming")
	}
	add := f.Blocks[0].Instrs[3]
	if add.A != second {
		t.Errorf("add reads %s, want the second web %s", add.A, second)
	}
}

func TestRenameLoopCarried(t *testing.T) {
	// A loop-carried counter forms a single web around the back edge
	// and must keep one name.
	f := ir.NewFunc("t")
	b := ir.NewBuilder(f)
	i, n, cr := ir.GPR(0), ir.GPR(1), ir.CR(0)
	f.Params = []ir.Reg{n}
	b.Block("entry")
	b.LI(i, 0)
	b.Block("loop")
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	b.BT("loop", cr, ir.BitLT)
	b.Block("out")
	b.Ret(i)
	f.ReindexBlocks()
	g := cfg.Build(f)
	new(Renamer).Run(f, g)
	ai := f.Blocks[1].Instrs[0]
	if ai.Def != ai.A {
		t.Errorf("loop-carried counter split: %s", ai)
	}
	prog := ir.NewProgram()
	prog.AddFunc(f)
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("t", []int64{5}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 5 {
		t.Errorf("ret = %d, want 5", res.Ret)
	}
}
