package ir

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// Slot names the Instr field an operand fills.
type Slot uint8

const (
	SlotDef    Slot = iota // Def, a register
	SlotDef2               // Def2, a register
	SlotA                  // A, a register
	SlotB                  // B, a register
	SlotImm                // Imm, a decimal integer
	SlotMem                // Mem, written sym(base,off) or frame(,off)
	SlotTarget             // Target, a label or a callee's name
	SlotBit                // CRBit, written lt, gt or eq
	SlotArgs               // CallArgs, zero or more registers; last in its list
)

// Operand is one operand position of a form.
type Operand struct {
	Slot Slot
	// Class is the register class a register slot (Def, Def2, A, B or
	// Args) must hold.
	Class RegClass
	// Role names the operand in error messages.
	Role string
	// Optional marks a register that may be absent, and is then not
	// written: CALL's result and RET's value.
	Optional bool
}

// Form is the assembly syntax of an opcode and the operands it
// requires. An instruction is written as the mnemonic, then the Left
// operands, '=' and the Right operands, each list separated by commas;
// when no Left operand is written, the '=' is dropped as well:
// "LU r0,r31=a(r31,8)", "ST a(r31,4)=r12", "BF CL.4,cr7,gt", "RET".
//
// The forms table is the single statement of each opcode's syntax and
// meaning: Instr.AppendString prints by it, the asm parser reads by it,
// and Func.CheckInstr checks each operand's presence and class by it.
type Form struct {
	Op       Op
	OnTrue   bool // the BT form of OpBC, rather than BF
	Mnemonic string
	Left     []Operand
	Right    []Operand
	// DefIsA marks BCT, which decrements its counter in place: Def
	// must equal A, and only A is written.
	DefIsA bool
	// NeedsBase marks LU and STU: their memory operand must have the
	// base register they update.
	NeedsBase bool

	// The rest states what the opcode does, once for every form of it
	// (Op.Form): the simulator, the constant folder, mini-C's code
	// generator and the machine model read it here.

	// Unit is the functional unit type that executes the opcode, and
	// Exec its execution time class.
	Unit Unit
	Exec ExecClass
	// Eval computes a pure integer operation, Def = Eval(A, B): b is
	// register B's value in a form with one (RegB), otherwise Imm; a
	// unary operation ignores b. Nil for every other opcode. Traps
	// marks DIV and REM, which fault on a zero b: Eval must not be
	// called with one.
	Eval  func(a, b int64) int64
	Traps bool
	// RegB marks a form with a register B operand; it is set from
	// Right when the table is built.
	RegB bool
	// ImmOp is the register-immediate counterpart of an operation on
	// registers A and B, or OpNop when it has none; NegImm marks S,
	// whose counterpart AI adds the negated immediate. See ImmForm.
	ImmOp  Op
	NegImm bool
	// FloatOp is the floating point counterpart of an integer
	// operation, or OpNop when it has none.
	FloatOp Op
	// Commutes marks an integer operation whose operands may swap.
	Commutes bool
}

// ImmForm returns the register-immediate instruction that computes
// fm's operation with the constant b as its second operand: its opcode
// and immediate, and whether fm has one.
func (fm *Form) ImmForm(b int64) (Op, int64, bool) {
	if fm.NegImm {
		b = -b
	}
	return fm.ImmOp, b, fm.ImmOp != OpNop
}

// The integer evaluations. A register-register form and its immediate
// counterpart share one, so they cannot disagree.
func add(a, b int64) int64 { return a + b }
func sub(a, b int64) int64 { return a - b }
func mul(a, b int64) int64 { return a * b }
func div(a, b int64) int64 { return a / b }
func rem(a, b int64) int64 { return a % b }
func and(a, b int64) int64 { return a & b }
func or(a, b int64) int64  { return a | b }
func xor(a, b int64) int64 { return a ^ b }
func shl(a, b int64) int64 { return a << uint(b&63) }
func shr(a, b int64) int64 { return a >> uint(b&63) }
func neg(a, _ int64) int64 { return -a }
func not(a, _ int64) int64 { return ^a }

// compare sets the one condition register bit that relates a to b.
func compare(a, b int64) int64 {
	switch {
	case a < b:
		return 1 << BitLT
	case a > b:
		return 1 << BitGT
	}
	return 1 << BitEQ
}

// Operands and operand lists several forms share.
var (
	dstGPR   = Operand{Slot: SlotDef, Class: ClassGPR, Role: "destination"}
	srcGPR   = Operand{Slot: SlotA, Class: ClassGPR, Role: "source"}
	immOp    = Operand{Slot: SlotImm, Role: "immediate"}
	memOp    = Operand{Slot: SlotMem, Role: "memory operand"}
	updBase  = Operand{Slot: SlotDef2, Class: ClassGPR, Role: "updated base"}
	targetOp = Operand{Slot: SlotTarget, Role: "target"}

	gprD     = []Operand{dstGPR}
	fprD     = []Operand{{Slot: SlotDef, Class: ClassFPR, Role: "destination"}}
	crD      = []Operand{{Slot: SlotDef, Class: ClassCR, Role: "condition destination"}}
	gprA     = []Operand{srcGPR}
	fprA     = []Operand{{Slot: SlotA, Class: ClassFPR, Role: "source"}}
	gprAImm  = []Operand{srcGPR, immOp}
	gprAB    = []Operand{{Slot: SlotA, Class: ClassGPR, Role: "first source"}, {Slot: SlotB, Class: ClassGPR, Role: "second source"}}
	fprAB    = []Operand{{Slot: SlotA, Class: ClassFPR, Role: "first source"}, {Slot: SlotB, Class: ClassFPR, Role: "second source"}}
	memOnly  = []Operand{memOp}
	gprValue = []Operand{{Slot: SlotA, Class: ClassGPR, Role: "stored value"}}
	condBC   = []Operand{targetOp, {Slot: SlotA, Class: ClassCR, Role: "condition source"}, {Slot: SlotBit, Role: "condition bit"}}
)

// forms lists every instruction form in opcode order. OpBC has two,
// BF then BT; every other opcode has one.
var forms = [...]Form{
	{Op: OpNop, Mnemonic: "NOP"},
	{Op: OpLI, Mnemonic: "LI", Left: gprD, Right: []Operand{immOp}},
	{Op: OpLR, Mnemonic: "LR", Left: gprD, Right: gprA},
	{Op: OpAdd, Mnemonic: "A", Left: gprD, Right: gprAB, Eval: add, ImmOp: OpAddI, FloatOp: OpFAdd, Commutes: true},
	{Op: OpSub, Mnemonic: "S", Left: gprD, Right: gprAB, Eval: sub, ImmOp: OpAddI, NegImm: true, FloatOp: OpFSub},
	{Op: OpMul, Mnemonic: "MUL", Left: gprD, Right: gprAB, Exec: ExecMul, Eval: mul, ImmOp: OpMulI, FloatOp: OpFMul, Commutes: true},
	{Op: OpDiv, Mnemonic: "DIV", Left: gprD, Right: gprAB, Exec: ExecDiv, Eval: div, Traps: true, FloatOp: OpFDiv},
	{Op: OpRem, Mnemonic: "REM", Left: gprD, Right: gprAB, Exec: ExecDiv, Eval: rem, Traps: true},
	{Op: OpAnd, Mnemonic: "AND", Left: gprD, Right: gprAB, Eval: and, ImmOp: OpAndI, Commutes: true},
	{Op: OpOr, Mnemonic: "OR", Left: gprD, Right: gprAB, Eval: or, ImmOp: OpOrI, Commutes: true},
	{Op: OpXor, Mnemonic: "XOR", Left: gprD, Right: gprAB, Eval: xor, ImmOp: OpXorI, Commutes: true},
	{Op: OpShl, Mnemonic: "SL", Left: gprD, Right: gprAB, Eval: shl, ImmOp: OpShlI},
	{Op: OpShr, Mnemonic: "SR", Left: gprD, Right: gprAB, Eval: shr, ImmOp: OpShrI},
	{Op: OpAddI, Mnemonic: "AI", Left: gprD, Right: gprAImm, Eval: add},
	{Op: OpMulI, Mnemonic: "MULI", Left: gprD, Right: gprAImm, Exec: ExecMul, Eval: mul},
	{Op: OpAndI, Mnemonic: "ANDI", Left: gprD, Right: gprAImm, Eval: and},
	{Op: OpOrI, Mnemonic: "ORI", Left: gprD, Right: gprAImm, Eval: or},
	{Op: OpXorI, Mnemonic: "XORI", Left: gprD, Right: gprAImm, Eval: xor},
	{Op: OpShlI, Mnemonic: "SLI", Left: gprD, Right: gprAImm, Eval: shl},
	{Op: OpShrI, Mnemonic: "SRI", Left: gprD, Right: gprAImm, Eval: shr},
	{Op: OpNeg, Mnemonic: "NEG", Left: gprD, Right: gprA, Eval: neg},
	{Op: OpNot, Mnemonic: "NOT", Left: gprD, Right: gprA, Eval: not},
	{Op: OpCmp, Mnemonic: "C", Left: crD, Right: gprAB, Eval: compare, ImmOp: OpCmpI},
	{Op: OpCmpI, Mnemonic: "CI", Left: crD, Right: gprAImm, Eval: compare},
	{Op: OpLoad, Mnemonic: "L", Left: gprD, Right: memOnly},
	{Op: OpLoadU, Mnemonic: "LU", Left: []Operand{dstGPR, updBase}, Right: memOnly, NeedsBase: true},
	{Op: OpStore, Mnemonic: "ST", Left: memOnly, Right: gprValue},
	{Op: OpStoreU, Mnemonic: "STU", Left: []Operand{memOp, updBase}, Right: gprValue, NeedsBase: true},
	{Op: OpB, Mnemonic: "B", Right: []Operand{targetOp}, Unit: UnitBranch},
	{Op: OpBC, Mnemonic: "BF", Right: condBC, Unit: UnitBranch},
	{Op: OpBC, OnTrue: true, Mnemonic: "BT", Right: condBC, Unit: UnitBranch},
	{Op: OpFAdd, Mnemonic: "FA", Left: fprD, Right: fprAB, Unit: UnitFloat},
	{Op: OpFSub, Mnemonic: "FS", Left: fprD, Right: fprAB, Unit: UnitFloat},
	{Op: OpFMul, Mnemonic: "FM", Left: fprD, Right: fprAB, Unit: UnitFloat},
	{Op: OpFDiv, Mnemonic: "FD", Left: fprD, Right: fprAB, Unit: UnitFloat, Exec: ExecDiv},
	{Op: OpFNeg, Mnemonic: "FNEG", Left: fprD, Right: fprA, Unit: UnitFloat},
	{Op: OpFMove, Mnemonic: "FMR", Left: fprD, Right: fprA, Unit: UnitFloat},
	{Op: OpFCmp, Mnemonic: "FC", Left: crD, Right: fprAB, Unit: UnitFloat},
	{Op: OpFLoad, Mnemonic: "LF", Left: fprD, Right: memOnly, Unit: UnitFloat},
	{Op: OpFStore, Mnemonic: "STF", Left: memOnly, Right: []Operand{{Slot: SlotA, Class: ClassFPR, Role: "stored value"}}, Unit: UnitFloat},
	{Op: OpFCvt, Mnemonic: "FCVT", Left: fprD, Right: gprA, Unit: UnitFloat},
	{Op: OpFTrunc, Mnemonic: "FTRUNC", Left: gprD, Right: fprA, Unit: UnitFloat},
	{Op: OpBCT, Mnemonic: "BCT", Right: []Operand{targetOp, {Slot: SlotA, Class: ClassGPR, Role: "counter"}}, DefIsA: true, Unit: UnitBranch},
	{Op: OpCall, Mnemonic: "CALL",
		Left:  []Operand{{Slot: SlotDef, Class: ClassGPR, Role: "call result", Optional: true}},
		Right: []Operand{{Slot: SlotTarget, Role: "callee"}, {Slot: SlotArgs, Class: ClassGPR, Role: "argument"}}},
	{Op: OpRet, Mnemonic: "RET", Right: []Operand{{Slot: SlotA, Class: ClassGPR, Role: "return value", Optional: true}}, Unit: UnitBranch},
}

// formOf maps an opcode and an OnTrue value (0 or 1) to the form an
// instruction with them is written in: OpBC's differ, BF and BT; every
// other opcode's form serves both.
var formOf [numOps][2]*Form

// unitOf and execOf copy each opcode's Unit and Exec out of its entry,
// indexed by any Op value, an unknown one reading the zero values, so
// that the simulator and the schedulers, which read them for every
// instruction, pay one load each.
var (
	unitOf [256]Unit
	execOf [256]ExecClass
)

func init() {
	for k := range forms {
		fm := &forms[k]
		fm.RegB = slices.ContainsFunc(fm.Right, func(o Operand) bool { return o.Slot == SlotB })
		unitOf[fm.Op], execOf[fm.Op] = fm.Unit, fm.Exec
		if fm.OnTrue {
			formOf[fm.Op][1] = fm
		} else {
			formOf[fm.Op] = [2]*Form{fm, fm}
		}
	}
}

// Forms returns every instruction form, in opcode order; OpBC's BF
// form comes before its BT form. Callers must not modify it.
func Forms() []Form { return forms[:] }

// form returns the form i is written in, or nil for an unknown opcode.
func (i *Instr) form() *Form {
	if i.Op >= numOps {
		return nil
	}
	var t uint8
	if i.OnTrue {
		t = 1
	}
	return formOf[i.Op][t]
}

// RegField returns the address of i's register field for slot s, one
// of SlotDef, SlotDef2, SlotA and SlotB, or nil for any other slot.
func (i *Instr) RegField(s Slot) *Reg {
	if s > SlotB {
		return nil
	}
	return [...]*Reg{SlotDef: &i.Def, SlotDef2: &i.Def2, SlotA: &i.A, SlotB: &i.B}[s]
}

// AppendString appends String's rendering to b and returns it, so
// printers and hashers on the hot serving path can reuse one buffer
// across instructions instead of allocating per instruction.
func (i *Instr) AppendString(b []byte) []byte {
	fm := i.form()
	if fm == nil {
		b = append(b, i.Op.String()...)
		return append(b, " ?"...)
	}
	b = append(b, fm.Mnemonic...)
	b, sep := i.appendOperands(b, ' ', fm.Left)
	if sep == ',' {
		sep = '='
	}
	b, _ = i.appendOperands(b, sep, fm.Right)
	return b
}

// appendOperands appends i's operands of list to b, sep before the
// first and ',' between them, leaving out an absent optional register,
// and returns b and the separator that comes next.
func (i *Instr) appendOperands(b []byte, sep byte, list []Operand) ([]byte, byte) {
	for k := range list {
		o := &list[k]
		if r := i.RegField(o.Slot); r != nil {
			if !o.Optional || r.Valid() {
				b, sep = appendReg(append(b, sep), *r), ','
			}
			continue
		}
		switch o.Slot {
		case SlotImm:
			b = strconv.AppendInt(append(b, sep), i.Imm, 10)
		case SlotMem:
			b = i.Mem.appendTo(append(b, sep))
		case SlotTarget:
			b = append(append(b, sep), i.Target...)
		case SlotBit:
			b = append(append(b, sep), i.CRBit.String()...)
		case SlotArgs:
			for _, a := range i.CallArgs {
				b, sep = appendReg(append(b, sep), a), ','
			}
			continue
		}
		sep = ','
	}
	return b, sep
}

// CheckInstr checks i's operands against its form: every register the
// form names is present, unless optional, and of the form's class; a
// load or store has a memory operand, a frame slot inside f's frame,
// with a base register for LU and STU; a branch or call names its
// target; a conditional branch tests lt, gt or eq; BCT decrements its
// own counter. The error names the operand by its role. The asm parser
// calls it on each instruction it reads, with a line number; Validate
// calls it on each instruction of f.
func (f *Func) CheckInstr(i *Instr) error {
	fm := i.form()
	if fm == nil {
		return errors.New("unknown opcode")
	}
	if err := f.checkOperands(i, fm, fm.Left); err != nil {
		return err
	}
	if err := f.checkOperands(i, fm, fm.Right); err != nil {
		return err
	}
	if fm.DefIsA && i.Def != i.A {
		return errors.New("counter branch must decrement its own counter (Def == A)")
	}
	return nil
}

// checkOperands checks i's operands of list, one side of its form fm.
func (f *Func) checkOperands(i *Instr, fm *Form, list []Operand) error {
	for k := range list {
		o := &list[k]
		if r := i.RegField(o.Slot); r != nil {
			if (r.Valid() && r.Class == o.Class) || (o.Optional && !r.Valid()) {
				continue
			}
			return checkReg(*r, o.Class, o.Role)
		}
		switch o.Slot {
		case SlotTarget:
			if i.Target == "" {
				return fmt.Errorf("missing %s", o.Role)
			}
		case SlotMem:
			if err := f.checkMem(i, fm.NeedsBase); err != nil {
				return err
			}
		case SlotBit:
			if i.CRBit > BitEQ {
				return fmt.Errorf("%s %s, want lt, gt or eq", o.Role, i.CRBit)
			}
		case SlotArgs:
			for n, a := range i.CallArgs {
				if !a.Valid() || a.Class != o.Class {
					return checkReg(a, o.Class, fmt.Sprintf("%s %d", o.Role, n))
				}
			}
		}
	}
	return nil
}

// checkReg reports r missing or not of class cl, naming it role.
func checkReg(r Reg, cl RegClass, role string) error {
	if !r.Valid() {
		return fmt.Errorf("missing %s", role)
	}
	if r.Class != cl {
		return fmt.Errorf("%s %s has class %s, want %s", role, r, r.Class, cl)
	}
	return nil
}

func (f *Func) checkMem(i *Instr, needsBase bool) error {
	kind := "store"
	if i.Op.IsLoad() {
		kind = "load"
	}
	m := i.Mem
	switch {
	case m == nil:
		return fmt.Errorf("%s without memory operand", kind)
	case m.Frame && (m.Sym != "" || m.Base.Valid()):
		return errors.New("frame reference must use a constant offset only")
	case m.Frame && (m.Off < 0 || m.Off+WordSize > f.FrameWords*WordSize):
		return fmt.Errorf("frame offset %d outside frame of %d words", m.Off, f.FrameWords)
	case needsBase && !m.Base.Valid():
		return fmt.Errorf("%s-with-update needs a base register", kind)
	}
	return nil
}
