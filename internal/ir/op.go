package ir

import "fmt"

// Op is an instruction opcode. The set mirrors the fixed point subset of
// the RS/6000 pseudo-code used throughout the paper, with enough
// arithmetic to compile realistic workloads.
type Op uint8

const (
	// OpNop does nothing for one cycle in the fixed point unit.
	OpNop Op = iota

	// OpLI loads an immediate: Def = Imm.
	OpLI
	// OpLR copies a register: Def = A (the paper's "LR").
	OpLR

	// Arithmetic and logic, register-register: Def = A op B.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Arithmetic and logic, register-immediate: Def = A op Imm.
	OpAddI // the paper's "AI"
	OpMulI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// Unary: Def = op A.
	OpNeg
	OpNot

	// OpCmp compares registers: Def(cr) = compare(A, B).
	OpCmp
	// OpCmpI compares a register with an immediate: Def(cr) = compare(A, Imm).
	OpCmpI

	// OpLoad reads memory: Def = mem[Mem].
	OpLoad
	// OpLoadU reads memory and post-increments the base register by
	// Mem.Off: Def = mem[Mem], Def2 = base' (the paper's "LU" in I2).
	OpLoadU
	// OpStore writes memory: mem[Mem] = A.
	OpStore
	// OpStoreU writes memory and post-increments the base register.
	OpStoreU

	// OpB branches unconditionally to Target.
	OpB
	// OpBC branches conditionally to Target: it tests bit CRBit of
	// condition register A and branches when the bit equals OnTrue
	// (OnTrue=true is the paper's "BT", false its "BF").
	OpBC
	// Floating point operations (§2.1's second unit type). Values are
	// IEEE doubles carried as raw bits in the FPR file and in memory
	// cells. The paper evaluates fixed point code only; these exist to
	// complete the parametric machine model.
	OpFAdd   // Def(f) = A + B
	OpFSub   // Def(f) = A - B
	OpFMul   // Def(f) = A * B
	OpFDiv   // Def(f) = A / B
	OpFNeg   // Def(f) = -A
	OpFMove  // Def(f) = A
	OpFCmp   // Def(cr) = compare(A, B), 5-cycle delay to a branch
	OpFLoad  // Def(f) = mem[Mem] (raw bits)
	OpFStore // mem[Mem] = A (raw bits)
	OpFCvt   // Def(f) = float64(A), A a GPR
	OpFTrunc // Def(r) = int64(A), A an FPR

	// OpBCT decrements the counter register A and branches to Target
	// while it is non-zero — the RS/6000 counter-register loop close
	// the paper's footnote 3 describes ("decremented and tested for
	// zero in a single instruction"). It executes in the branch unit
	// with no compare-to-branch delay.
	OpBCT
	// OpCall calls function Target; arguments and results use the
	// calling convention registers (see Func.Params / RetReg).
	OpCall
	// OpRet returns from the function; A optionally carries the result.
	OpRet

	// numOps is the number of opcodes.
	numOps
)

func (op Op) String() string {
	switch {
	case op == OpBC:
		return "BC" // written BT or BF, by its OnTrue
	case op < numOps:
		return formOf[op][0].Mnemonic
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsBranch reports whether op transfers control to a label.
func (op Op) IsBranch() bool { return op == OpB || op == OpBC || op == OpBCT }

// IsTerminator reports whether op may only appear as the last instruction
// of a basic block.
func (op Op) IsTerminator() bool {
	return op == OpB || op == OpBC || op == OpBCT || op == OpRet
}

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op == OpLoad || op == OpLoadU || op == OpFLoad }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op == OpStore || op == OpStoreU || op == OpFStore }

// IsFloat reports whether op executes in the floating point unit.
func (op Op) IsFloat() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpFMove, OpFCmp, OpFLoad, OpFStore, OpFCvt, OpFTrunc:
		return true
	}
	return false
}

// TouchesMemory reports whether op reads or writes memory or may do so
// through a callee (the paper's memory-disambiguation class: loads,
// stores, calls to subroutines).
func (op Op) TouchesMemory() bool { return op.IsLoad() || op.IsStore() || op == OpCall }

// IsCompare reports whether op writes a condition register.
func (op Op) IsCompare() bool { return op == OpCmp || op == OpCmpI || op == OpFCmp }

// NeverMoves reports whether the global scheduler must keep instructions
// with this opcode inside their home basic block. Per §5.1 of the paper,
// calls never move beyond basic block boundaries, and terminators anchor
// their block (the original order of branches is preserved).
func (op Op) NeverMoves() bool { return op == OpCall || op.IsTerminator() }

// NeverSpeculates reports whether instructions with this opcode may never
// be scheduled speculatively. Per §5.1, stores to memory (and calls)
// never move speculatively; division and remainder join them because
// they can trap when hoisted above the guard that excludes a zero
// divisor (the compile-time analysis of §1 must reject such motions).
func (op Op) NeverSpeculates() bool {
	return op.IsStore() || op == OpCall || op == OpDiv || op == OpRem
}
