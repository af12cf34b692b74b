package schedmodel

import (
	"reflect"
	"testing"

	"gsched/internal/ir"
)

func op3(op ir.Op, def, a, b ir.Reg) *ir.Instr {
	return &ir.Instr{Op: op, Def: def, Def2: ir.NoReg, A: a, B: b}
}

// access is a load into r8 or a store of r1 through m.
func access(op ir.Op, m ir.Mem) *ir.Instr {
	if op.IsLoad() {
		return &ir.Instr{Op: op, Def: ir.GPR(8), Def2: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Mem: &m}
	}
	return &ir.Instr{Op: op, Def: ir.NoReg, Def2: ir.NoReg, A: ir.GPR(1), B: ir.NoReg, Mem: &m}
}

func global(sym string, base ir.Reg, off int64) ir.Mem { return ir.Mem{Sym: sym, Base: base, Off: off} }
func slot(off int64) ir.Mem                            { return ir.Mem{Base: ir.NoReg, Off: off, Frame: true} }

// TestPair pins the §4.2 pair rule: one row per dependence kind, with
// the words the verifier prints for it, and the memory facts the
// verifier relies on. Every memory row is also checked with its pair
// swapped, since aliasing is symmetric.
func TestPair(t *testing.T) {
	call := &ir.Instr{Op: ir.OpCall, Def: ir.NoReg, Def2: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Target: "f"}
	add := op3(ir.OpAdd, ir.GPR(3), ir.GPR(1), ir.GPR(2))
	tests := []struct {
		name  string
		a, b  *ir.Instr
		want  []Dep
		words []string
	}{
		{"flow", add, op3(ir.OpAdd, ir.GPR(4), ir.GPR(3), ir.GPR(5)),
			[]Dep{{flow, ir.GPR(3)}}, []string{"flow dependence (r3)"}},
		{"anti", add, op3(ir.OpAdd, ir.GPR(1), ir.GPR(5), ir.GPR(5)),
			[]Dep{{anti, ir.GPR(1)}}, []string{"anti dependence (r1)"}},
		{"output", add, op3(ir.OpAdd, ir.GPR(3), ir.GPR(5), ir.GPR(6)),
			[]Dep{{output, ir.GPR(3)}}, []string{"output dependence (r3)"}},
		{"memory", access(ir.OpLoad, global("x", ir.NoReg, 0)), access(ir.OpStore, global("x", ir.NoReg, 0)),
			[]Dep{{memory, ir.NoReg}}, []string{"memory dependence"}},
		{"independent", add, op3(ir.OpAdd, ir.GPR(6), ir.GPR(7), ir.GPR(7)), nil, nil},

		{"call vs global", call, access(ir.OpLoad, global("x", ir.NoReg, 0)),
			[]Dep{{memory, ir.NoReg}}, []string{"memory dependence"}},
		{"call vs frame slot", call, access(ir.OpStore, slot(8)), nil, nil},
		{"call vs call", call, call, []Dep{{memory, ir.NoReg}}, []string{"memory dependence"}},
		{"frame slots, equal offsets", access(ir.OpStore, slot(8)), access(ir.OpLoad, slot(8)),
			[]Dep{{memory, ir.NoReg}}, []string{"memory dependence"}},
		{"frame slots, different offsets", access(ir.OpStore, slot(8)), access(ir.OpLoad, slot(16)), nil, nil},
		{"frame slot vs global", access(ir.OpStore, slot(8)), access(ir.OpLoad, global("x", ir.NoReg, 8)), nil, nil},
		{"one symbol, no base, different offsets",
			access(ir.OpStore, global("x", ir.NoReg, 0)), access(ir.OpLoad, global("x", ir.NoReg, 8)), nil, nil},
		{"one symbol, a base, different offsets",
			access(ir.OpStore, global("x", ir.GPR(5), 0)), access(ir.OpLoad, global("x", ir.NoReg, 8)),
			[]Dep{{memory, ir.NoReg}}, []string{"memory dependence"}},
		{"distinct symbols", access(ir.OpLoad, global("x", ir.NoReg, 0)), access(ir.OpStore, global("y", ir.NoReg, 0)), nil, nil},
		{"distinct symbols, bases", access(ir.OpStore, global("x", ir.GPR(5), 0)), access(ir.OpLoad, global("y", ir.GPR(6), 0)), nil, nil},
		{"unknown symbol", access(ir.OpStore, global("", ir.GPR(5), 0)), access(ir.OpLoad, global("y", ir.NoReg, 0)),
			[]Dep{{memory, ir.NoReg}}, []string{"memory dependence"}},
		{"load/load, one location", access(ir.OpLoad, global("x", ir.NoReg, 0)),
			&ir.Instr{Op: ir.OpLoad, Def: ir.GPR(9), Def2: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Mem: &ir.Mem{Sym: "x", Base: ir.NoReg}}, nil, nil},
	}
	for _, tc := range tests {
		var abuf, bbuf [8]ir.Reg
		a, b := operandsOf(tc.a, abuf[:0]), operandsOf(tc.b, bbuf[:0])
		got := Pair(&a, &b, nil)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Pair = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for k, d := range got {
			if d.String() != tc.words[k] {
				t.Errorf("%s: printed %q, want %q", tc.name, d.String(), tc.words[k])
			}
		}
		if Depends(tc.a, tc.b) != (len(tc.want) > 0) {
			t.Errorf("%s: Depends = %v, want %v", tc.name, !(len(tc.want) > 0), len(tc.want) > 0)
		}
		if tc.a.Op.TouchesMemory() && tc.b.Op.TouchesMemory() && MayAlias(tc.a, tc.b) != MayAlias(tc.b, tc.a) {
			t.Errorf("%s: MayAlias is not symmetric", tc.name)
		}
	}
	for k, word := range []string{"flow", "anti", "output", "memory"} {
		if got := Kind(k).String(); got != word {
			t.Errorf("Kind(%d) prints %q, want %q", k, got, word)
		}
	}
}
