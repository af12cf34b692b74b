package asm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/sim"
)

// TestFormsRoundTripProperty is generated from ir.Forms. For every
// form, instructions with random operands drawn from each slot's
// domain, built through ir.Builder, validate, print, parse back and
// compare equal under ir.EqualPrograms. A condition bit outside lt, gt
// and eq must fail Validate; a label or data name holding a character
// no operand can carry (',', '=' or '(') must fail to parse, on a line
// naming it, at the latest where it is declared. For every form with
// an immediate counterpart, the simulator computes "op d=a,b" and the
// counterpart with b as its immediate alike.
func TestFormsRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, fm := range ir.Forms() {
		for n := 0; n < 200; n++ {
			checkRoundTrip(t, &draw{r: r}, fm)
		}
		if fm.ImmOp == ir.OpNop {
			continue
		}
		d := &draw{r: r}
		for n := 0; n < 200; n++ {
			a, b := d.imm(), d.imm()
			want := simulate(t, fm.Op, a, b, func(bl *ir.Builder, def ir.Reg) {
				bl.Op2(fm.Op, def, ir.GPR(1), ir.GPR(2))
			})
			iop, imm, _ := fm.ImmForm(b)
			got := simulate(t, fm.Op, a, b, func(bl *ir.Builder, def ir.Reg) {
				bl.OpI(iop, def, ir.GPR(1), imm)
			})
			if got != want {
				t.Errorf("%s of %d and %d is %d, but %s with immediate %d gives %d", fm.Mnemonic, a, b, want, iop, imm, got)
			}
		}
	}
}

// checkRoundTrip builds one instruction of form fm from d's draws and
// checks the property on it.
func checkRoundTrip(t *testing.T, d *draw, fm ir.Form) {
	t.Helper()
	prog := d.program(fm)
	err := prog.Validate()
	if d.badBit {
		if err == nil {
			t.Errorf("%s: condition bit outside lt/gt/eq validated:\n%s", fm.Mnemonic, Print(prog))
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %v", fm.Mnemonic, err)
		return
	}
	text := Print(prog)
	back, err := Parse(text)
	if len(d.bad) > 0 {
		// The error is on a line that names a bad name, at or before
		// the first line that declares one.
		decl, named := 0, false
		var pe *parseError
		if errors.As(err, &pe) {
			for k, l := range strings.Split(text, "\n") {
				for _, name := range d.bad {
					if decl == 0 && (l == name+":" || strings.HasPrefix(l, "data "+name+" ")) {
						decl = k + 1
					}
					named = named || (k+1 == pe.Line && strings.Contains(l, name))
				}
			}
		}
		if pe == nil || !named || pe.Line > decl {
			t.Errorf("%s: names %q: error %v, want one naming them at or before their declaration:\n%s", fm.Mnemonic, d.bad, err, text)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: printed text does not parse: %v\n%s", fm.Mnemonic, err, text)
		return
	}
	if !ir.EqualPrograms(prog, back) {
		t.Errorf("%s: parsed program differs:\n%s\nvs\n%s", fm.Mnemonic, text, Print(back))
	}
}

// draw draws operands from the domain of each slot, and, one time in
// eight, a condition bit or a name outside it.
type draw struct {
	r      *rand.Rand
	prog   *ir.Program
	f      *ir.Func
	bad    []string // the names drawn outside the domain
	badBit bool
}

// program returns a program whose function "f" holds one instruction
// of form fm, then a RET unless fm is a terminator, and the block a
// branch targets.
func (d *draw) program(fm ir.Form) *ir.Program {
	d.prog, d.f = ir.NewProgram(), ir.NewFunc("f")
	helper := ir.NewFunc("helper")
	hb := ir.NewBuilder(helper)
	hb.Block("")
	hb.Ret(ir.NoReg)
	bl := ir.NewBuilder(d.f)
	bl.Block("")
	i := bl.Emit(fm.Op, func(i *ir.Instr) {
		i.OnTrue = fm.OnTrue
		for _, o := range slices.Concat(fm.Left, fm.Right) {
			d.operand(i, fm, o)
		}
		if fm.DefIsA {
			i.Def = i.A
		}
	})
	if !fm.Op.IsTerminator() {
		bl.Ret(ir.NoReg)
	}
	if fm.Op.IsBranch() {
		bl.Block(i.Target)
		bl.Ret(ir.NoReg)
	}
	d.prog.AddFunc(helper)
	d.prog.AddFunc(d.f)
	return d.prog
}

// operand fills i's slot of operand o.
func (d *draw) operand(i *ir.Instr, fm ir.Form, o ir.Operand) {
	switch o.Slot {
	case ir.SlotImm:
		i.Imm = d.imm()
	case ir.SlotMem:
		i.Mem = d.mem(fm.NeedsBase)
	case ir.SlotTarget:
		if fm.Op == ir.OpCall {
			i.Target = [...]string{"helper", "print", "putchar", "abort"}[d.r.Intn(4)]
		} else {
			i.Target = d.name("L")
		}
	case ir.SlotBit:
		i.CRBit = ir.CRBit(d.r.Intn(3))
		if d.r.Intn(8) == 0 {
			i.CRBit, d.badBit = ir.CRBit(3+d.r.Intn(253)), true
		}
	case ir.SlotArgs:
		for n := d.r.Intn(4); n > 0; n-- {
			i.CallArgs = append(i.CallArgs, d.reg(o.Class))
		}
	default:
		if !o.Optional || d.r.Intn(3) > 0 {
			*i.RegField(o.Slot) = d.reg(o.Class)
		}
	}
}

// reg draws a register of class c, now and then the highest one.
func (d *draw) reg(c ir.RegClass) ir.Reg {
	n := int32(d.r.Intn(16))
	if d.r.Intn(16) == 0 {
		n = ir.MaxRegs - 1 - n
	}
	return ir.Reg{Class: c, Num: n}
}

// imm draws an immediate, now and then one at an edge of int64.
func (d *draw) imm() int64 {
	if d.r.Intn(8) == 0 {
		return [...]int64{0, 1, -1, 63, 64, math.MinInt64, math.MaxInt64}[d.r.Intn(7)]
	}
	return d.r.Int63n(1<<20) - 1<<19
}

// mem draws a memory operand: a frame slot, or an address off a base
// register, a data symbol of f's program, or both.
func (d *draw) mem(needsBase bool) *ir.Mem {
	if !needsBase && d.r.Intn(4) == 0 {
		d.f.FrameWords = 1 + d.r.Int63n(4)
		return &ir.Mem{Frame: true, Base: ir.NoReg, Off: ir.WordSize * d.r.Int63n(d.f.FrameWords)}
	}
	m := &ir.Mem{Base: ir.NoReg, Off: d.imm()}
	if needsBase || d.r.Intn(2) == 0 {
		m.Base = d.reg(ir.ClassGPR)
	}
	if d.r.Intn(4) > 0 {
		m.Sym = d.name("d")
		s := d.prog.AddSym(m.Sym, 1+d.r.Int63n(4))
		for n := d.r.Int63n(s.Words + 1); n > 0; n-- {
			s.Init = append(s.Init, d.imm())
		}
	}
	return m
}

// name draws a label or data name starting with prefix; one time in
// eight it holds a character no operand can carry.
func (d *draw) name(prefix string) string {
	const chars = "abcxyzABC0189._$"
	b := []byte(prefix)
	for n := d.r.Intn(6); n >= 0; n-- {
		b = append(b, chars[d.r.Intn(len(chars))])
	}
	if d.r.Intn(8) > 0 {
		return string(b)
	}
	k := 1 + d.r.Intn(len(b))
	b = slices.Insert(b, k, ",=("[d.r.Intn(3)])
	d.bad = append(d.bad, string(b))
	return string(b)
}

// simulate runs a function of two parameters, r1 = a and r2 = b, that
// computes one instruction, emitted by emit into a register of op's
// destination class, and returns that register's value; a condition
// register's is its bits.
func simulate(t *testing.T, op ir.Op, a, b int64, emit func(bl *ir.Builder, def ir.Reg)) int64 {
	t.Helper()
	f := ir.NewFunc("f")
	f.Params = []ir.Reg{ir.GPR(1), ir.GPR(2)}
	f.NoteReg(ir.GPR(2))
	bl := ir.NewBuilder(f)
	bl.Block("")
	def := ir.Reg{Class: op.Form().Left[0].Class, Num: 3}
	emit(bl, def)
	ret := def
	if def.Class == ir.ClassCR {
		ret = ir.GPR(4)
		bl.LI(ret, 0)
		for bit := ir.BitLT; bit <= ir.BitEQ; bit++ {
			bl.BF("not"+bit.String(), def, bit)
			bl.Block("")
			bl.AI(ret, ret, 1<<bit)
			bl.Block("not" + bit.String())
		}
	}
	bl.Ret(ret)
	prog := ir.NewProgram()
	prog.AddFunc(f)
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("f", []int64{a, b}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ret
}
