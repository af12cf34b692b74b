package difftest

import (
	"strings"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/schedmodel"
)

func instr(id int, op ir.Op, def, a, b ir.Reg) *ir.Instr {
	return &ir.Instr{ID: id, Op: op, Def: def, Def2: ir.NoReg, A: a, B: b}
}

// TestMakespanDelaySensitive: on RS6K the cmp->branch delay of 3 makes
// cmp-early strictly better than cmp-late in a 3-instruction block.
func TestMakespanDelaySensitive(t *testing.T) {
	d := machine.RS6K()
	cmp := instr(1, ir.OpCmp, ir.CR(0), ir.GPR(1), ir.GPR(2))
	add := instr(2, ir.OpAdd, ir.GPR(3), ir.GPR(4), ir.GPR(5))
	bc := &ir.Instr{ID: 3, Op: ir.OpBC, Def: ir.NoReg, Def2: ir.NoReg, A: ir.CR(0), B: ir.NoReg}
	early := schedmodel.Makespan([]*ir.Instr{cmp, add, bc}, d)
	late := schedmodel.Makespan([]*ir.Instr{add, cmp, bc}, d)
	if early >= late {
		t.Errorf("cmp-first makespan %d should beat cmp-late %d", early, late)
	}
}

func TestBruteCheckBlock(t *testing.T) {
	d := machine.RS6K()
	mk := func() []*ir.Instr {
		cmp := instr(1, ir.OpCmp, ir.CR(0), ir.GPR(1), ir.GPR(2))
		a := instr(2, ir.OpAdd, ir.GPR(3), ir.GPR(4), ir.GPR(5))
		b := instr(3, ir.OpAdd, ir.GPR(6), ir.GPR(3), ir.GPR(5))
		bc := &ir.Instr{ID: 4, Op: ir.OpBC, Def: ir.NoReg, Def2: ir.NoReg, A: ir.CR(0), B: ir.NoReg}
		return []*ir.Instr{cmp, a, b, bc}
	}
	ref := mk()

	// Identity schedule is legal; with cmp first it is also optimal.
	st, err := BruteCheckBlock(ref, ref, d)
	if err != nil {
		t.Fatal(err)
	}
	// Legal orders: cmp anywhere before bc, a before b => 3 interleavings.
	if st.Enumerated != 3 {
		t.Errorf("enumerated %d orders, want 3", st.Enumerated)
	}
	if !st.Optimal {
		t.Errorf("cmp-first order should be optimal (cost %d, best %d)", st.Cost, st.Best)
	}
	if st.Best >= st.Worst {
		t.Errorf("best %d should beat worst %d on a delay-sensitive block", st.Best, st.Worst)
	}

	// Reversing the a->b flow dependence must be rejected.
	bad := []*ir.Instr{ref[0], ref[2], ref[1], ref[3]}
	if _, err := BruteCheckBlock(ref, bad, d); err == nil || !strings.Contains(err.Error(), "reverses dependence") {
		t.Errorf("reversed flow dependence not caught: %v", err)
	}

	// A final order with a foreign instruction is rejected.
	alien := instr(99, ir.OpAdd, ir.GPR(7), ir.GPR(7), ir.GPR(7))
	if _, err := BruteCheckBlock(ref, []*ir.Instr{ref[0], ref[1], alien, ref[3]}, d); err == nil {
		t.Error("foreign instruction in scheduled block not caught")
	}

	// Empty block is trivially fine.
	if st, err := BruteCheckBlock(nil, nil, d); err != nil || !st.Optimal {
		t.Errorf("empty block: %v %+v", err, st)
	}
}
