// Package ir defines the intermediate representation scheduled by this
// library: a pseudo RISC System/6000 instruction set organised into basic
// blocks and functions, in the style of Figure 2 of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines" (PLDI 1991).
//
// Registers are symbolic (the paper schedules before register
// allocation) and bounded only by MaxRegs per class; three register
// classes exist, general purpose registers (r0, r1, ...), condition
// register fields (cr0, cr1, ...) written by compares and read by
// conditional branches, and floating point registers (f0, f1, ...).
package ir

import (
	"fmt"
	"strconv"
)

// RegClass distinguishes the machine's register files.
type RegClass uint8

const (
	// ClassGPR is the general purpose (fixed point) register file.
	ClassGPR RegClass = iota
	// ClassCR is the condition register file written by compares.
	ClassCR
	// ClassFPR is the floating point register file. The paper's
	// evaluation is fixed-point only, but its §2.1 machine model
	// carries the floating point delays, so the register file and
	// instructions exist here too.
	ClassFPR

	// NumClasses is the number of register classes.
	NumClasses = 3
)

func (c RegClass) String() string {
	switch c {
	case ClassGPR:
		return "gpr"
	case ClassCR:
		return "cr"
	case ClassFPR:
		return "fpr"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// MaxRegs bounds the register numbers of each class: a function may
// use r0 to r1048575, and likewise cr and f registers. Passes size
// dense tables by register number, so Validate rejects a register at
// or over the bound, and the asm parser rejects its number.
const MaxRegs = 1 << 20

// Reg names a symbolic register, numbered below MaxRegs in its class;
// the zero value is r0, which is an ordinary register. Use NoReg for
// "no register".
type Reg struct {
	Class RegClass
	Num   int32
}

// NoReg is the absent register.
var NoReg = Reg{Class: ClassGPR, Num: -1}

// Valid reports whether r names an actual register.
func (r Reg) Valid() bool { return r.Num >= 0 }

// GPR returns the n-th general purpose register.
func GPR(n int) Reg { return Reg{Class: ClassGPR, Num: int32(n)} }

// CR returns the n-th condition register field.
func CR(n int) Reg { return Reg{Class: ClassCR, Num: int32(n)} }

// FPR returns the n-th floating point register.
func FPR(n int) Reg { return Reg{Class: ClassFPR, Num: int32(n)} }

func (r Reg) String() string {
	var a [16]byte
	return string(appendReg(a[:0], r))
}

// appendReg appends r's assembly name to b and returns it.
func appendReg(b []byte, r Reg) []byte {
	if !r.Valid() {
		return append(b, "<none>"...)
	}
	switch r.Class {
	case ClassGPR:
		b = append(b, 'r')
	case ClassCR:
		b = append(b, "cr"...)
	case ClassFPR:
		b = append(b, 'f')
	default:
		b = append(b, r.Class.String()...)
	}
	return strconv.AppendInt(b, int64(r.Num), 10)
}

// CRBit selects the condition register bit tested by a conditional branch.
type CRBit uint8

const (
	// BitLT is set when the compare's first operand was smaller.
	BitLT CRBit = iota
	// BitGT is set when the compare's first operand was greater.
	BitGT
	// BitEQ is set when the operands compared equal.
	BitEQ
)

func (b CRBit) String() string {
	switch b {
	case BitLT:
		return "lt"
	case BitGT:
		return "gt"
	case BitEQ:
		return "eq"
	}
	return fmt.Sprintf("bit(%d)", uint8(b))
}
