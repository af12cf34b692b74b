package ir

import (
	"errors"
	"fmt"
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
// The forms table is the single statement of the syntax:
// Instr.AppendString prints by it, the asm parser reads by it, and
// Func.CheckInstr checks each operand's presence and class by it.
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
	{Op: OpAdd, Mnemonic: "A", Left: gprD, Right: gprAB},
	{Op: OpSub, Mnemonic: "S", Left: gprD, Right: gprAB},
	{Op: OpMul, Mnemonic: "MUL", Left: gprD, Right: gprAB},
	{Op: OpDiv, Mnemonic: "DIV", Left: gprD, Right: gprAB},
	{Op: OpRem, Mnemonic: "REM", Left: gprD, Right: gprAB},
	{Op: OpAnd, Mnemonic: "AND", Left: gprD, Right: gprAB},
	{Op: OpOr, Mnemonic: "OR", Left: gprD, Right: gprAB},
	{Op: OpXor, Mnemonic: "XOR", Left: gprD, Right: gprAB},
	{Op: OpShl, Mnemonic: "SL", Left: gprD, Right: gprAB},
	{Op: OpShr, Mnemonic: "SR", Left: gprD, Right: gprAB},
	{Op: OpAddI, Mnemonic: "AI", Left: gprD, Right: gprAImm},
	{Op: OpMulI, Mnemonic: "MULI", Left: gprD, Right: gprAImm},
	{Op: OpAndI, Mnemonic: "ANDI", Left: gprD, Right: gprAImm},
	{Op: OpOrI, Mnemonic: "ORI", Left: gprD, Right: gprAImm},
	{Op: OpXorI, Mnemonic: "XORI", Left: gprD, Right: gprAImm},
	{Op: OpShlI, Mnemonic: "SLI", Left: gprD, Right: gprAImm},
	{Op: OpShrI, Mnemonic: "SRI", Left: gprD, Right: gprAImm},
	{Op: OpNeg, Mnemonic: "NEG", Left: gprD, Right: gprA},
	{Op: OpNot, Mnemonic: "NOT", Left: gprD, Right: gprA},
	{Op: OpCmp, Mnemonic: "C", Left: crD, Right: gprAB},
	{Op: OpCmpI, Mnemonic: "CI", Left: crD, Right: gprAImm},
	{Op: OpLoad, Mnemonic: "L", Left: gprD, Right: memOnly},
	{Op: OpLoadU, Mnemonic: "LU", Left: []Operand{dstGPR, updBase}, Right: memOnly, NeedsBase: true},
	{Op: OpStore, Mnemonic: "ST", Left: memOnly, Right: gprValue},
	{Op: OpStoreU, Mnemonic: "STU", Left: []Operand{memOp, updBase}, Right: gprValue, NeedsBase: true},
	{Op: OpB, Mnemonic: "B", Right: []Operand{targetOp}},
	{Op: OpBC, Mnemonic: "BF", Right: condBC},
	{Op: OpBC, OnTrue: true, Mnemonic: "BT", Right: condBC},
	{Op: OpFAdd, Mnemonic: "FA", Left: fprD, Right: fprAB},
	{Op: OpFSub, Mnemonic: "FS", Left: fprD, Right: fprAB},
	{Op: OpFMul, Mnemonic: "FM", Left: fprD, Right: fprAB},
	{Op: OpFDiv, Mnemonic: "FD", Left: fprD, Right: fprAB},
	{Op: OpFNeg, Mnemonic: "FNEG", Left: fprD, Right: fprA},
	{Op: OpFMove, Mnemonic: "FMR", Left: fprD, Right: fprA},
	{Op: OpFCmp, Mnemonic: "FC", Left: crD, Right: fprAB},
	{Op: OpFLoad, Mnemonic: "LF", Left: fprD, Right: memOnly},
	{Op: OpFStore, Mnemonic: "STF", Left: memOnly, Right: []Operand{{Slot: SlotA, Class: ClassFPR, Role: "stored value"}}},
	{Op: OpFCvt, Mnemonic: "FCVT", Left: fprD, Right: gprA},
	{Op: OpFTrunc, Mnemonic: "FTRUNC", Left: gprD, Right: fprA},
	{Op: OpBCT, Mnemonic: "BCT", Right: []Operand{targetOp, {Slot: SlotA, Class: ClassGPR, Role: "counter"}}, DefIsA: true},
	{Op: OpCall, Mnemonic: "CALL",
		Left:  []Operand{{Slot: SlotDef, Class: ClassGPR, Role: "call result", Optional: true}},
		Right: []Operand{{Slot: SlotTarget, Role: "callee"}, {Slot: SlotArgs, Class: ClassGPR, Role: "argument"}}},
	{Op: OpRet, Mnemonic: "RET", Right: []Operand{{Slot: SlotA, Class: ClassGPR, Role: "return value", Optional: true}}},
}

// formOf maps an opcode and an OnTrue value (0 or 1) to the form an
// instruction with them is written in: OpBC's differ, BF and BT; every
// other opcode's form serves both.
var formOf = func() (of [numOps][2]*Form) {
	for k := range forms {
		fm := &forms[k]
		if fm.OnTrue {
			of[fm.Op][1] = fm
		} else {
			of[fm.Op] = [2]*Form{fm, fm}
		}
	}
	return of
}()

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
// target; BCT decrements its own counter. The error names the operand
// by its role. The asm parser calls it on each instruction it reads,
// with a line number; Validate calls it on each instruction of f.
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
