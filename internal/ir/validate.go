package ir

import (
	"fmt"
	"slices"
)

// Validate checks structural invariants of the function:
//
//   - block indices match their position,
//   - labels are unique and every branch target resolves,
//   - terminators appear only as the last instruction of a block,
//   - the last block does not fall through past the end of the function,
//   - instruction IDs are unique,
//   - operand register classes match the opcode (compares define CRs,
//     conditional branches test CRs, everything else works on GPRs).
//
// It returns the first violation found, or nil.
func (f *Func) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	labels := make([]string, 0, len(f.Blocks))
	for idx, b := range f.Blocks {
		if b.Index != idx {
			if err := duplicateLabel(f.Name, f.Blocks[:idx]); err != nil {
				return err // an earlier block's violation comes first
			}
			return fmt.Errorf("%s: block %q has index %d, want %d (call ReindexBlocks)", f.Name, b, b.Index, idx)
		}
		if b.Label != "" {
			labels = append(labels, b.Label)
		}
	}
	slices.Sort(labels)
	for k := 1; k < len(labels); k++ {
		if labels[k] == labels[k-1] {
			return duplicateLabel(f.Name, f.Blocks)
		}
	}
	// IDs are dense below NumInstrIDs; any other ID (one set by hand)
	// is tracked in a map made only when one appears.
	seen := make([]uint64, (f.NumInstrIDs()+63)/64)
	var seenOther map[int]bool
	for _, b := range f.Blocks {
		for k, i := range b.Instrs {
			dup := false
			if w := i.ID / 64; i.ID >= 0 && w < len(seen) {
				bit := uint64(1) << (i.ID % 64)
				dup = seen[w]&bit != 0
				seen[w] |= bit
			} else {
				if seenOther == nil {
					seenOther = make(map[int]bool)
				}
				dup = seenOther[i.ID]
				seenOther[i.ID] = true
			}
			if dup {
				return fmt.Errorf("%s: duplicate instruction ID %d (%s)", f.Name, i.ID, i)
			}
			if i.Op.IsTerminator() && k != len(b.Instrs)-1 {
				return fmt.Errorf("%s: block %s: terminator %s not last", f.Name, b, i)
			}
			if err := (checker{f, b, i}).instr(labels); err != nil {
				return err
			}
		}
	}
	last := f.Blocks[len(f.Blocks)-1]
	if t := last.Terminator(); t == nil || t.Op == OpBC {
		return fmt.Errorf("%s: last block %s falls through past the end of the function", f.Name, last)
	}
	return nil
}

// duplicateLabel reports the first label, in block order, that an
// earlier one of blocks already carries, or nil.
func duplicateLabel(fn string, blocks []*Block) error {
	seen := make(map[string]bool)
	for _, b := range blocks {
		if b.Label == "" {
			continue
		}
		if seen[b.Label] {
			return fmt.Errorf("%s: duplicate label %q", fn, b.Label)
		}
		seen[b.Label] = true
	}
	return nil
}

// checker validates one instruction i of block b of f.
type checker struct {
	f *Func
	b *Block
	i *Instr
}

func (c checker) bad(format string, args ...any) error {
	return fmt.Errorf("%s: block %s: %s: %s", c.f.Name, c.b, c.i, fmt.Sprintf(format, args...))
}

func (c checker) want(r Reg, cl RegClass, what string) error {
	if !r.Valid() {
		return c.bad("missing %s", what)
	}
	if r.Class != cl {
		return c.bad("%s %s has class %s, want %s", what, r, r.Class, cl)
	}
	return nil
}

// want2 checks a destination and one source.
func (c checker) want2(def RegClass, src RegClass, srcWhat string) error {
	if err := c.want(c.i.Def, def, "destination"); err != nil {
		return err
	}
	return c.want(c.i.A, src, srcWhat)
}

func (c checker) mem() error {
	m := c.i.Mem
	if !m.Frame {
		return nil
	}
	if m.Sym != "" || m.Base.Valid() {
		return c.bad("frame reference must use a constant offset only")
	}
	if m.Off < 0 || m.Off+WordSize > c.f.FrameWords*WordSize {
		return c.bad("frame offset %d outside frame of %d words", m.Off, c.f.FrameWords)
	}
	return nil
}

// target checks that the branch target is one of the sorted labels.
func (c checker) target(labels []string) error {
	if _, ok := slices.BinarySearch(labels, c.i.Target); !ok {
		return c.bad("unresolved branch target %q", c.i.Target)
	}
	return nil
}

func (c checker) instr(labels []string) error {
	f, b, i := c.f, c.b, c.i
	switch i.Op {
	case OpNop:
	case OpLI:
		return c.want(i.Def, ClassGPR, "destination")
	case OpLR, OpNeg, OpNot:
		return c.want2(ClassGPR, ClassGPR, "source")
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		if err := c.want2(ClassGPR, ClassGPR, "first source"); err != nil {
			return err
		}
		return c.want(i.B, ClassGPR, "second source")
	case OpAddI, OpMulI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI:
		return c.want2(ClassGPR, ClassGPR, "source")
	case OpCmp:
		if err := c.want(i.Def, ClassCR, "condition destination"); err != nil {
			return err
		}
		if err := c.want(i.A, ClassGPR, "first source"); err != nil {
			return err
		}
		return c.want(i.B, ClassGPR, "second source")
	case OpCmpI:
		if err := c.want(i.Def, ClassCR, "condition destination"); err != nil {
			return err
		}
		return c.want(i.A, ClassGPR, "source")
	case OpLoad, OpLoadU:
		if i.Mem == nil {
			return c.bad("load without memory operand")
		}
		if err := c.mem(); err != nil {
			return err
		}
		if err := c.want(i.Def, ClassGPR, "destination"); err != nil {
			return err
		}
		if i.Op == OpLoadU {
			if err := c.want(i.Def2, ClassGPR, "updated base"); err != nil {
				return err
			}
			if !i.Mem.Base.Valid() {
				return c.bad("load-with-update needs a base register")
			}
		}
		return nil
	case OpStore, OpStoreU:
		if i.Mem == nil {
			return c.bad("store without memory operand")
		}
		if err := c.mem(); err != nil {
			return err
		}
		if err := c.want(i.A, ClassGPR, "stored value"); err != nil {
			return err
		}
		if i.Op == OpStoreU {
			if err := c.want(i.Def2, ClassGPR, "updated base"); err != nil {
				return err
			}
			if !i.Mem.Base.Valid() {
				return c.bad("store-with-update needs a base register")
			}
		}
		return nil
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := c.want2(ClassFPR, ClassFPR, "first source"); err != nil {
			return err
		}
		return c.want(i.B, ClassFPR, "second source")
	case OpFNeg, OpFMove:
		return c.want2(ClassFPR, ClassFPR, "source")
	case OpFCmp:
		if err := c.want(i.Def, ClassCR, "condition destination"); err != nil {
			return err
		}
		if err := c.want(i.A, ClassFPR, "first source"); err != nil {
			return err
		}
		return c.want(i.B, ClassFPR, "second source")
	case OpFCvt:
		return c.want2(ClassFPR, ClassGPR, "source")
	case OpFTrunc:
		return c.want2(ClassGPR, ClassFPR, "source")
	case OpFLoad:
		if i.Mem == nil {
			return c.bad("load without memory operand")
		}
		if err := c.mem(); err != nil {
			return err
		}
		return c.want(i.Def, ClassFPR, "destination")
	case OpFStore:
		if i.Mem == nil {
			return c.bad("store without memory operand")
		}
		if err := c.mem(); err != nil {
			return err
		}
		return c.want(i.A, ClassFPR, "stored value")
	case OpB:
		return c.target(labels)
	case OpBC:
		if err := c.target(labels); err != nil {
			return err
		}
		if err := c.want(i.A, ClassCR, "condition source"); err != nil {
			return err
		}
		if b.Index == len(f.Blocks)-1 {
			return c.bad("conditional branch in the last block falls through past the end")
		}
	case OpBCT:
		if err := c.target(labels); err != nil {
			return err
		}
		if err := c.want(i.A, ClassGPR, "counter"); err != nil {
			return err
		}
		if i.Def != i.A {
			return c.bad("counter branch must decrement its own counter (Def == A)")
		}
		if b.Index == len(f.Blocks)-1 {
			return c.bad("counter branch in the last block falls through past the end")
		}
	case OpCall:
		if i.Target == "" {
			return c.bad("call without target")
		}
		for k, a := range i.CallArgs {
			if !a.Valid() || a.Class != ClassGPR {
				return c.want(a, ClassGPR, fmt.Sprintf("argument %d", k))
			}
		}
		if i.Def.Valid() && i.Def.Class != ClassGPR {
			return c.bad("call result %s is not a GPR", i.Def)
		}
	case OpRet:
		if i.A.Valid() && i.A.Class != ClassGPR {
			return c.bad("return value %s is not a GPR", i.A)
		}
	default:
		return c.bad("unknown opcode")
	}
	return nil
}

// Validate checks every function in the program and that call targets
// resolve to defined functions or recognised builtins.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if err := f.Validate(); err != nil {
			return err
		}
		var err error
		f.Instrs(func(b *Block, i *Instr) {
			if err != nil || i.Op != OpCall {
				return
			}
			if p.Func(i.Target) == nil && !IsBuiltin(i.Target) {
				err = fmt.Errorf("%s: call to undefined function %q", f.Name, i.Target)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// IsBuiltin reports whether name is a runtime-provided callee that the
// simulator implements directly (no IR body required).
func IsBuiltin(name string) bool {
	switch name {
	case "print", "putchar", "abort":
		return true
	}
	return false
}
