package ir

// Structural equality over IR, used by round-trip and clone tests.
// Instruction IDs and comments are ignored: IDs are renumbered by the
// assembly parser and comments are free-form annotations, so neither
// carries program meaning.

// EqualPrograms reports whether two programs are structurally equal:
// same functions and global symbols, in the same order.
func EqualPrograms(a, b *Program) bool {
	if len(a.Funcs) != len(b.Funcs) || len(a.Syms) != len(b.Syms) {
		return false
	}
	for i := range a.Funcs {
		if !equalFuncs(a.Funcs[i], b.Funcs[i]) {
			return false
		}
	}
	for i := range a.Syms {
		x, y := a.Syms[i], b.Syms[i]
		if x.Name != y.Name || x.Words != y.Words || len(x.Init) != len(y.Init) {
			return false
		}
		for k := range x.Init {
			if x.Init[k] != y.Init[k] {
				return false
			}
		}
	}
	return true
}

// equalFuncs reports structural equality of two functions: name,
// parameters, frame size, and block-for-block equal bodies (labels and
// instruction sequences). Unlabeled empty blocks are skipped: no branch
// can target them and they emit no code, so they are pure fallthrough
// artifacts (scheduling can leave them behind; the assembly printer
// drops them).
func equalFuncs(a, b *Func) bool {
	if a.Name != b.Name || a.FrameWords != b.FrameWords ||
		len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	ab, bb := realBlocks(a), realBlocks(b)
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		x, y := ab[i], bb[i]
		if x.Label != y.Label || len(x.Instrs) != len(y.Instrs) {
			return false
		}
		for k := range x.Instrs {
			if !equalInstrs(x.Instrs[k], y.Instrs[k]) {
				return false
			}
		}
	}
	return true
}

// realBlocks filters out unlabeled empty blocks, which carry no code
// and cannot be branched to.
func realBlocks(f *Func) []*Block {
	out := make([]*Block, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		if b.Label == "" && len(b.Instrs) == 0 {
			continue
		}
		out = append(out, b)
	}
	return out
}

// equalInstrs reports whether two instructions are the same operation on
// the same operands, ignoring ID and Comment.
func equalInstrs(a, b *Instr) bool {
	if a.Op != b.Op || a.Def != b.Def || a.Def2 != b.Def2 ||
		a.A != b.A || a.B != b.B || a.Imm != b.Imm ||
		a.Target != b.Target || a.CRBit != b.CRBit || a.OnTrue != b.OnTrue {
		return false
	}
	if (a.Mem == nil) != (b.Mem == nil) {
		return false
	}
	if a.Mem != nil && *a.Mem != *b.Mem {
		return false
	}
	if len(a.CallArgs) != len(b.CallArgs) {
		return false
	}
	for i := range a.CallArgs {
		if a.CallArgs[i] != b.CallArgs[i] {
			return false
		}
	}
	return true
}
