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
//   - each instruction's operands match its form (CheckInstr),
//   - every register is numbered below MaxRegs and below NumRegs of
//     its class (registers placed without Builder or NoteReg are not).
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
	for _, r := range f.Params {
		if msg := f.outOfRange(r); msg != "" {
			return fmt.Errorf("%s: parameter %s", f.Name, msg)
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
			if err := f.CheckInstr(i); err != nil {
				return badInstr(f, b, i, "%v", err)
			}
			if i.Op.IsBranch() {
				if _, ok := slices.BinarySearch(labels, i.Target); !ok {
					return badInstr(f, b, i, "unresolved branch target %q", i.Target)
				}
				if i.Op != OpB && b.Index == len(f.Blocks)-1 {
					return badInstr(f, b, i, "conditional branch in the last block falls through past the end")
				}
			}
			if msg := f.regsOutOfRange(i); msg != "" {
				return badInstr(f, b, i, "%s", msg)
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

// badInstr reports a violation of instruction i of block b of f.
func badInstr(f *Func, b *Block, i *Instr, format string, args ...any) error {
	return fmt.Errorf("%s: block %s: %s: %s", f.Name, b, i, fmt.Sprintf(format, args...))
}

// regsOutOfRange describes the first register of i that is out of
// range (see outOfRange), or returns "".
func (f *Func) regsOutOfRange(i *Instr) string {
	for _, r := range [...]Reg{i.Def, i.Def2, i.A, i.B} {
		if msg := f.outOfRange(r); msg != "" {
			return msg
		}
	}
	if i.Mem != nil {
		if msg := f.outOfRange(i.Mem.Base); msg != "" {
			return msg
		}
	}
	for _, r := range i.CallArgs {
		if msg := f.outOfRange(r); msg != "" {
			return msg
		}
	}
	return ""
}

// outOfRange describes why r, when present, is not numbered below
// MaxRegs and below f's NumRegs of its class, or returns "".
func (f *Func) outOfRange(r Reg) string {
	switch {
	case !r.Valid():
		return ""
	case int(r.Class) >= NumClasses:
		return fmt.Sprintf("register %s has no register class", r)
	case r.Num >= MaxRegs:
		return fmt.Sprintf("register %s over the limit of %d per class", r, MaxRegs)
	case int(r.Num) >= f.NumRegs(r.Class):
		return fmt.Sprintf("register %s at or over NumRegs(%s) = %d (place registers with Builder or NoteReg)",
			r, r.Class, f.NumRegs(r.Class))
	}
	return ""
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
