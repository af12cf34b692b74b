package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegBasics(t *testing.T) {
	if NoReg.Valid() {
		t.Error("NoReg must be invalid")
	}
	if !GPR(0).Valid() || !CR(0).Valid() {
		t.Error("r0/cr0 must be valid")
	}
	if GPR(5) == CR(5) {
		t.Error("classes must distinguish registers")
	}
	if GPR(12).String() != "r12" || CR(7).String() != "cr7" {
		t.Errorf("String: %s %s", GPR(12), CR(7))
	}
	if NoReg.String() != "<none>" {
		t.Errorf("NoReg.String() = %q", NoReg)
	}
}

func TestCRBitStrings(t *testing.T) {
	for bit, want := range map[CRBit]string{BitLT: "lt", BitGT: "gt", BitEQ: "eq"} {
		if bit.String() != want {
			t.Errorf("%d.String() = %q, want %q", bit, bit, want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                                  Op
		branch, term, load, store, mem, cmp bool
		neverMoves, neverSpec               bool
	}{
		{op: OpNop},
		{op: OpAdd},
		{op: OpCmp, cmp: true},
		{op: OpCmpI, cmp: true},
		{op: OpLoad, load: true, mem: true},
		{op: OpLoadU, load: true, mem: true},
		{op: OpStore, store: true, mem: true, neverSpec: true},
		{op: OpStoreU, store: true, mem: true, neverSpec: true},
		{op: OpB, branch: true, term: true, neverMoves: true},
		{op: OpBC, branch: true, term: true, neverMoves: true},
		{op: OpRet, term: true, neverMoves: true},
		{op: OpCall, mem: true, neverMoves: true, neverSpec: true},
		{op: OpDiv, neverSpec: true},
		{op: OpRem, neverSpec: true},
	}
	for _, c := range cases {
		if c.op.IsBranch() != c.branch {
			t.Errorf("%s.IsBranch() = %v", c.op, !c.branch)
		}
		if c.op.IsTerminator() != c.term {
			t.Errorf("%s.IsTerminator() = %v", c.op, !c.term)
		}
		if c.op.IsLoad() != c.load {
			t.Errorf("%s.IsLoad() = %v", c.op, !c.load)
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%s.IsStore() = %v", c.op, !c.store)
		}
		if c.op.TouchesMemory() != c.mem {
			t.Errorf("%s.TouchesMemory() = %v", c.op, !c.mem)
		}
		if c.op.IsCompare() != c.cmp {
			t.Errorf("%s.IsCompare() = %v", c.op, !c.cmp)
		}
		if c.op.NeverMoves() != c.neverMoves {
			t.Errorf("%s.NeverMoves() = %v", c.op, !c.neverMoves)
		}
		if c.op.NeverSpeculates() != c.neverSpec {
			t.Errorf("%s.NeverSpeculates() = %v", c.op, !c.neverSpec)
		}
	}
}

func TestOpNamesUnique(t *testing.T) {
	seen := make(map[string]Op)
	for op := OpNop; op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestInstrUsesDefs(t *testing.T) {
	f := NewFunc("t")
	b := NewBuilder(f)
	b.Block("entry")
	lu := b.LoadU(GPR(1), GPR(2), "a", GPR(2), 8)
	st := b.Store("a", GPR(3), 0, GPR(4))
	call := b.Call(GPR(5), "f", GPR(6), GPR(7))
	b.Ret(GPR(5))

	var regs []Reg
	regs = lu.Uses(regs[:0])
	if len(regs) != 1 || regs[0] != GPR(2) {
		t.Errorf("LU uses = %v", regs)
	}
	regs = lu.Defs(regs[:0])
	if len(regs) != 2 || regs[0] != GPR(1) || regs[1] != GPR(2) {
		t.Errorf("LU defs = %v", regs)
	}
	regs = st.Uses(regs[:0])
	if len(regs) != 2 { // value and base
		t.Errorf("ST uses = %v", regs)
	}
	regs = call.Uses(regs[:0])
	if len(regs) != 2 || regs[0] != GPR(6) {
		t.Errorf("CALL uses = %v", regs)
	}
	if !call.UsesReg(GPR(7)) || call.UsesReg(GPR(8)) {
		t.Error("UsesReg wrong for call args")
	}
	if !lu.DefsReg(GPR(2)) || lu.DefsReg(GPR(9)) {
		t.Error("DefsReg wrong")
	}
}

func TestInstrCloneIsDeep(t *testing.T) {
	f := NewFunc("t")
	i := f.NewInstr(OpLoad)
	i.Def = GPR(1)
	i.Mem = &Mem{Sym: "a", Base: GPR(2), Off: 4}
	c := f.CloneInstr(i)
	if c.ID == i.ID {
		t.Error("clone shares ID")
	}
	c.Mem.Off = 8
	if i.Mem.Off != 4 {
		t.Error("clone shares Mem")
	}
	call := f.NewInstr(OpCall)
	call.Target = "f"
	call.CallArgs = []Reg{GPR(1)}
	c2 := f.CloneInstr(call)
	c2.CallArgs[0] = GPR(9)
	if call.CallArgs[0] != GPR(1) {
		t.Error("clone shares CallArgs")
	}
}

func TestInstrStringForms(t *testing.T) {
	f := NewFunc("t")
	b := NewBuilder(f)
	b.Block("e")
	cases := []struct {
		i    *Instr
		want string
	}{
		{b.LI(GPR(1), -5), "LI r1=-5"},
		{b.LR(GPR(2), GPR(1)), "LR r2=r1"},
		{b.Op2(OpAdd, GPR(3), GPR(1), GPR(2)), "A r3=r1,r2"},
		{b.AI(GPR(4), GPR(3), 2), "AI r4=r3,2"},
		{b.Cmp(CR(0), GPR(1), GPR(2)), "C cr0=r1,r2"},
		{b.Load(GPR(5), "a", GPR(4), 4), "L r5=a(r4,4)"},
		{b.LoadU(GPR(6), GPR(4), "a", GPR(4), 8), "LU r6,r4=a(r4,8)"},
		{b.Store("a", GPR(4), 0, GPR(6)), "ST a(r4,0)=r6"},
		{b.BT("e", CR(0), BitLT), "BT e,cr0,lt"},
		{b.BF("e", CR(0), BitGT), "BF e,cr0,gt"},
		{b.Call(GPR(7), "f", GPR(6)), "CALL r7=f,r6"},
		{b.Ret(GPR(7)), "RET r7"},
	}
	for _, c := range cases {
		if got := c.i.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBlockHelpers(t *testing.T) {
	f := NewFunc("t")
	b := NewBuilder(f)
	blk := b.Block("x")
	i1 := b.LI(GPR(0), 1)
	i2 := b.Ret(GPR(0))
	if blk.Terminator() != i2 {
		t.Error("Terminator wrong")
	}
	if len(blk.Body()) != 1 || blk.Body()[0] != i1 {
		t.Error("Body wrong")
	}
	if !blk.Remove(i1) || blk.Remove(i1) {
		t.Error("Remove semantics wrong")
	}
	if len(blk.Instrs) != 1 {
		t.Error("Remove did not remove")
	}
}

func TestFuncRegisterBookkeeping(t *testing.T) {
	f := NewFunc("t")
	r1 := f.NewReg(ClassGPR)
	r2 := f.NewReg(ClassGPR)
	if r1 == r2 {
		t.Error("NewReg repeated a register")
	}
	f.NoteReg(GPR(100))
	r3 := f.NewReg(ClassGPR)
	if r3.Num <= 100 {
		t.Errorf("NewReg after NoteReg(100) = %s", r3)
	}
	if f.NumRegs(ClassGPR) != int(r3.Num)+1 {
		t.Errorf("NumRegs = %d", f.NumRegs(ClassGPR))
	}
	if f.NumRegs(ClassCR) != 0 {
		t.Errorf("CR NumRegs = %d", f.NumRegs(ClassCR))
	}
}

func TestValidateCatchesBrokenFunctions(t *testing.T) {
	mk := func(build func(*Builder)) error {
		f := NewFunc("t")
		b := NewBuilder(f)
		build(b)
		f.ReindexBlocks()
		return f.Validate()
	}
	cases := []struct {
		name string
		want string
		fn   func(*Builder)
	}{
		{"no blocks", "no blocks", func(b *Builder) {}},
		{"fallthrough end", "falls through", func(b *Builder) {
			b.Block("e")
			b.LI(GPR(0), 1)
		}},
		{"bc at end", "falls through", func(b *Builder) {
			b.Block("e")
			b.Cmp(CR(0), GPR(0), GPR(1))
			b.BF("e", CR(0), BitLT)
		}},
		{"terminator not last", "not last", func(b *Builder) {
			b.Block("e")
			b.Ret(NoReg)
			b.Cur.Instrs = append(b.Cur.Instrs, b.F.NewInstr(OpNop))
			// Make the block end with a terminator so only the inner
			// violation fires.
			b.Cur.Instrs = append(b.Cur.Instrs, mkRet(b.F))
		}},
		{"dup label", "duplicate label", func(b *Builder) {
			b.Block("x")
			b.Ret(NoReg)
			b.Block("x")
			b.Ret(NoReg)
		}},
		{"bad target", "unresolved branch target", func(b *Builder) {
			b.Block("e")
			b.B("missing")
		}},
		{"cmp def class", "condition destination", func(b *Builder) {
			b.Block("e")
			b.Emit(OpCmp, func(i *Instr) { i.Def = GPR(0); i.A = GPR(1); i.B = GPR(2) })
			b.Ret(NoReg)
		}},
		{"bc source class", "condition source", func(b *Builder) {
			b.Block("e")
			b.Emit(OpBC, func(i *Instr) { i.Target = "e"; i.A = GPR(0) })
			b.Block("f")
			b.Ret(NoReg)
		}},
		{"condition bit out of range", "condition bit bit(5), want lt, gt or eq", func(b *Builder) {
			b.Block("e")
			b.Cmp(CR(0), GPR(0), GPR(1))
			b.Emit(OpBC, func(i *Instr) { i.Target = "e"; i.A = CR(0); i.CRBit = 5 })
			b.Block("f")
			b.Ret(NoReg)
		}},
		{"load without mem", "without memory operand", func(b *Builder) {
			b.Block("e")
			b.Emit(OpLoad, func(i *Instr) { i.Def = GPR(0) })
			b.Ret(NoReg)
		}},
		{"register over the limit", "over the limit", func(b *Builder) {
			b.Block("e")
			b.LI(GPR(MaxRegs), 1)
			b.Ret(NoReg)
		}},
		{"call argument over the limit", "over the limit", func(b *Builder) {
			b.Block("e")
			b.Call(NoReg, "print", GPR(1999999999))
			b.Ret(NoReg)
		}},
		{"register not noted", "at or over NumRegs", func(b *Builder) {
			b.Block("e")
			b.LI(GPR(1), 1)
			li := b.F.NewInstr(OpLI)
			li.Def = GPR(7)
			b.Cur.Instrs = append(b.Cur.Instrs, li)
			b.Ret(GPR(1))
		}},
		{"parameter not noted", "parameter", func(b *Builder) {
			b.F.Params = []Reg{GPR(3)}
			b.Block("e")
			b.Ret(NoReg)
		}},
	}
	// For each register operand of each form, a register of the wrong
	// class is rejected, naming the operand's role.
	for _, fm := range forms {
		for k, o := range slices.Concat(fm.Left, fm.Right) {
			if o.Slot != SlotArgs && new(Instr).RegField(o.Slot) == nil {
				continue
			}
			cases = append(cases, struct {
				name string
				want string
				fn   func(*Builder)
			}{fmt.Sprintf("%s operand %d class", fm.Mnemonic, k), o.Role, func(b *Builder) {
				b.Block("e")
				b.Emit(fm.Op, func(i *Instr) {
					fillForm(i, &fm)
					wrong := (o.Class + 1) % NumClasses
					if o.Slot == SlotArgs {
						i.CallArgs[0].Class = wrong
					} else {
						i.RegField(o.Slot).Class = wrong
					}
					if fm.DefIsA {
						i.Def = i.A
					}
				})
				b.Block("x")
				b.Ret(NoReg)
			}})
		}
	}
	for _, c := range cases {
		err := mk(c.fn)
		if err == nil {
			t.Errorf("%s: validated unexpectedly", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// fillForm gives i a valid operand for every slot of fm: registers of
// the operand's class, a memory operand with a base, the target "x"
// and one call argument.
func fillForm(i *Instr, fm *Form) {
	i.OnTrue = fm.OnTrue
	for k, o := range slices.Concat(fm.Left, fm.Right) {
		r := Reg{Class: o.Class, Num: int32(k)}
		switch o.Slot {
		case SlotImm:
			i.Imm = 1
		case SlotMem:
			i.Mem = &Mem{Sym: "a", Base: GPR(9)}
		case SlotTarget:
			i.Target = "x"
		case SlotBit:
			i.CRBit = BitEQ
		case SlotArgs:
			i.CallArgs = []Reg{r}
		default:
			*i.RegField(o.Slot) = r
		}
	}
	if fm.DefIsA {
		i.Def = i.A
	}
}

// TestFormsCoverEveryOpcode: every opcode below numOps is written
// through exactly one form (OpBC through two, BF and BT by OnTrue),
// every mnemonic is distinct, and each form's valid instruction
// passes CheckInstr.
func TestFormsCoverEveryOpcode(t *testing.T) {
	n := make(map[Op]int)
	mnemonics := make(map[string]bool)
	for k := range forms {
		fm := &forms[k]
		n[fm.Op]++
		if mnemonics[fm.Mnemonic] {
			t.Errorf("mnemonic %s used twice", fm.Mnemonic)
		}
		mnemonics[fm.Mnemonic] = true
		i := &Instr{Op: fm.Op, Def: NoReg, Def2: NoReg, A: NoReg, B: NoReg}
		fillForm(i, fm)
		if i.form() != fm {
			t.Errorf("%s: an instruction of this form prints with %s", fm.Mnemonic, i.form().Mnemonic)
		}
		f := NewFunc("t")
		if err := f.CheckInstr(i); err != nil {
			t.Errorf("%s: %v", i, err)
		}
	}
	for op := Op(0); op < numOps; op++ {
		want := 1
		if op == OpBC {
			want = 2
		}
		if n[op] != want {
			t.Errorf("%s has %d forms, want %d", op, n[op], want)
		}
	}
	if (&Instr{Op: numOps}).form() != nil {
		t.Error("an opcode past numOps has a form")
	}
}

func mkRet(f *Func) *Instr {
	i := f.NewInstr(OpRet)
	return i
}

func TestProgramHelpers(t *testing.T) {
	p := NewProgram()
	s := p.AddSym("a", 10)
	if p.Sym("a") != s || p.Sym("b") != nil {
		t.Error("Sym lookup wrong")
	}
	f := NewFunc("f")
	b := NewBuilder(f)
	b.Block("e")
	b.Ret(NoReg)
	f.ReindexBlocks()
	p.AddFunc(f)
	if p.Func("f") != f || p.Func("g") != nil {
		t.Error("Func lookup wrong")
	}
	// AddFunc replaces by name.
	f2 := NewFunc("f")
	b2 := NewBuilder(f2)
	b2.Block("e")
	b2.Ret(NoReg)
	f2.ReindexBlocks()
	p.AddFunc(f2)
	if len(p.Funcs) != 1 || p.Func("f") != f2 {
		t.Error("AddFunc replacement wrong")
	}
}

func TestSuccsSemantics(t *testing.T) {
	f := NewFunc("t")
	b := NewBuilder(f)
	b.Block("a")
	b.Cmp(CR(0), GPR(0), GPR(1))
	b.BF("c", CR(0), BitLT)
	b.Block("b")
	b.B("a")
	b.Block("c")
	b.Ret(NoReg)
	f.ReindexBlocks()

	if s := Succs(f, f.Blocks[0]); len(s) != 2 || s[0].Label != "b" || s[1].Label != "c" {
		t.Errorf("BC succs = %v", s)
	}
	if s := Succs(f, f.Blocks[1]); len(s) != 1 || s[0].Label != "a" {
		t.Errorf("B succs = %v", s)
	}
	if s := Succs(f, f.Blocks[2]); s != nil {
		t.Errorf("RET succs = %v", s)
	}
}

// Property: Uses/Defs never return NoReg, for arbitrary register fields.
func TestUsesDefsNeverInvalid(t *testing.T) {
	f := NewFunc("q")
	prop := func(op uint8, defValid, aValid, bValid bool) bool {
		i := f.NewInstr(Op(op % uint8(numOps)))
		if defValid {
			i.Def = GPR(1)
		}
		if aValid {
			i.A = GPR(2)
		}
		if bValid {
			i.B = GPR(3)
		}
		var regs []Reg
		for _, r := range i.Uses(regs) {
			if !r.Valid() {
				return false
			}
		}
		for _, r := range i.Defs(regs) {
			if !r.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
