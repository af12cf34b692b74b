package ir

import "strconv"

// Mem describes a memory reference: the effective address is the value of
// Base plus Off, optionally annotated with the symbol the front end knows
// the access falls within (used for memory disambiguation). Frame
// references address the function's private frame instead (spill slots
// introduced by the register allocator); they use a constant offset and
// no base register, so they disambiguate exactly.
type Mem struct {
	Sym   string // "" when the symbol is unknown (pointer dereference)
	Base  Reg    // NoReg for absolute addressing
	Off   int64  // byte displacement; also the post-increment of LU/STU
	Frame bool   // frame-local slot; Sym must be "" and Base NoReg
}

func (m *Mem) String() string {
	var a [32]byte
	return string(m.appendTo(a[:0]))
}

// appendTo appends m's rendering to b and returns it; a nil m, an
// absent operand, renders like an absent register.
func (m *Mem) appendTo(b []byte) []byte {
	if m == nil {
		return append(b, "<none>"...)
	}
	if m.Frame {
		b = append(b, "frame("...)
	} else {
		b = append(b, m.Sym...)
		b = append(b, '(')
	}
	if m.Base.Valid() {
		b = appendReg(b, m.Base)
	}
	b = append(b, ',')
	b = strconv.AppendInt(b, m.Off, 10)
	return append(b, ')')
}

// Instr is a single machine instruction. Instructions are identified by
// ID, unique within their function and stable across scheduling, so that
// dependence information survives code motion.
type Instr struct {
	ID int
	Op Op

	Def  Reg // primary destination; NoReg if none
	Def2 Reg // secondary destination (updated base of LU/STU); NoReg if none
	A, B Reg // register sources; NoReg if unused

	Imm    int64  // immediate operand, where the form has one
	Mem    *Mem   // memory operand of loads and stores
	Target string // branch target label, or callee name for OpCall

	CRBit  CRBit // condition bit tested by OpBC
	OnTrue bool  // OpBC: branch when the bit is set ("BT") vs clear ("BF")

	// CallArgs lists the registers a call passes to the callee, in
	// parameter order. They are uses of the call instruction, so code
	// computing arguments cannot be reordered past it.
	CallArgs []Reg

	Comment string // free-form annotation carried through scheduling
}

// Uses appends the registers read by i to dst and returns it.
func (i *Instr) Uses(dst []Reg) []Reg {
	if i.A.Valid() {
		dst = append(dst, i.A)
	}
	if i.B.Valid() {
		dst = append(dst, i.B)
	}
	if i.Mem != nil && i.Mem.Base.Valid() {
		dst = append(dst, i.Mem.Base)
	}
	dst = append(dst, i.CallArgs...)
	return dst
}

// Defs appends the registers written by i to dst and returns it.
func (i *Instr) Defs(dst []Reg) []Reg {
	if i.Def.Valid() {
		dst = append(dst, i.Def)
	}
	if i.Def2.Valid() {
		dst = append(dst, i.Def2)
	}
	return dst
}

// UsesReg reports whether i reads r.
func (i *Instr) UsesReg(r Reg) bool {
	if (i.A.Valid() && i.A == r) ||
		(i.B.Valid() && i.B == r) ||
		(i.Mem != nil && i.Mem.Base.Valid() && i.Mem.Base == r) {
		return true
	}
	for _, a := range i.CallArgs {
		if a == r {
			return true
		}
	}
	return false
}

// DefsReg reports whether i writes r.
func (i *Instr) DefsReg(r Reg) bool {
	return (i.Def.Valid() && i.Def == r) || (i.Def2.Valid() && i.Def2 == r)
}

// Clone returns a deep copy of i with the given fresh ID.
func (i *Instr) Clone(id int) *Instr {
	c := *i
	c.ID = id
	if i.Mem != nil {
		m := *i.Mem
		c.Mem = &m
	}
	if i.CallArgs != nil {
		c.CallArgs = append([]Reg(nil), i.CallArgs...)
	}
	return &c
}

// String renders i in the paper's assembly syntax, e.g.
// "LU r0,r31=a(r31,8)" or "BF CL.4,cr7,gt".
func (i *Instr) String() string {
	var a [64]byte
	return string(i.AppendString(a[:0]))
}
