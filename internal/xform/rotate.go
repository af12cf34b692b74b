package xform

import (
	"gsched/internal/ir"
)

// rotate performs the paper's loop rotation (§6): the first basic block
// of a small inner loop is copied after the end of the loop, turning a
// top-test loop into a bottom-test one whose body begins with the old
// body. Applying global scheduling a second time to the rotated loop
// achieves a partial software pipelining effect — instructions of the
// next iteration (the copied test block typically contains the loads and
// the exit compare) are executed within the body of the previous one.
//
// Eligibility: the loop has at least two blocks, its header ends in a
// conditional branch with exactly one successor inside the loop and one
// outside, the loop is contiguous in layout, and all back edges branch
// explicitly to the header. It reports false without modifying f
// otherwise. Every new block goes right after the loop's last block.
//
// The rotated loop's header is the old body's first block. When that
// block is itself a loop test (the second test of `while (a && b)`),
// the rotated loop may be rotatable in turn; exposed reports that the
// new header ends in a conditional branch with one successor outside
// the rotated loop, which rotation requires.
func rotate(f *ir.Func, l loop) (changed, exposed bool) {
	if len(l.blocks) < 2 {
		return false, false
	}
	lo, hi, ok := l.contiguous()
	if !ok {
		return false, false
	}
	inLoop := func(b *ir.Block) bool { return b.Index >= lo && b.Index <= hi }
	header := f.Blocks[l.header]
	term := header.Terminator()
	if term == nil || term.Op != ir.OpBC {
		return false, false
	}
	succs := ir.Succs(f, header)
	if len(succs) != 2 {
		return false, false
	}
	var bodyFirst, exit *ir.Block
	for _, s := range succs {
		if inLoop(s) {
			if bodyFirst != nil {
				return false, false // both successors inside: bottom-test loop
			}
			bodyFirst = s
		} else {
			exit = s
		}
	}
	if bodyFirst == nil || exit == nil {
		return false, false
	}
	// The in-loop successor must be the fallthrough (header branches out
	// on exit); the common while-loop shape. The other orientation
	// (header branches into the loop) would need an inverted copy.
	if f.BlockByLabel(term.Target) != exit {
		return false, false
	}
	// All back edges must branch explicitly to the header.
	for _, u := range l.backs {
		t := f.Blocks[u].Terminator()
		if t == nil || !t.Op.IsBranch() || t.Target != header.Label {
			return false, false
		}
	}
	// The last loop block's fallthrough (if any) must have somewhere to
	// land once H' is spliced in after it; check before mutating
	// anything so a refusal leaves f untouched.
	last := f.Blocks[hi]
	lastFalls := false
	if t := last.Terminator(); t == nil || t.Op == ir.OpBC {
		if hi+1 >= len(f.Blocks) {
			return false, false
		}
		lastFalls = true
	}
	lc := &labelCounter{f: f}
	bodyLabel := lc.ensureLabel(bodyFirst)
	exitLabel := lc.ensureLabel(exit)

	// Build the rotated copy H': the header's instructions with the
	// branch sense inverted — branch back to the body while the loop
	// continues, fall through to the exit.
	rot := &ir.Block{Label: lc.fresh(header.Label + ".rot")}
	for _, i := range header.Instrs {
		rot.Instrs = append(rot.Instrs, f.CloneInstr(i))
	}
	rt := rot.Instrs[len(rot.Instrs)-1]
	rt.OnTrue = !rt.OnTrue
	rt.Target = bodyLabel

	// Back edges now reach the rotated copy.
	for _, u := range l.backs {
		f.Blocks[u].Terminator().Target = rot.Label
	}

	// Place H' after the last loop block. If that block can fall
	// through, its fallthrough semantics must be preserved with an
	// explicit jump around H'.
	at := hi + 1
	if lastFalls {
		after := f.Blocks[hi+1]
		jb := &ir.Block{}
		j := f.NewInstr(ir.OpB)
		j.Target = lc.ensureLabel(after)
		jb.Instrs = []*ir.Instr{j}
		insertBlocks(f, at, []*ir.Block{jb})
		at++
	}
	// H' falls through past the end when placed last: give it an
	// explicit jump to the exit unless the exit directly follows.
	insertBlocks(f, at, []*ir.Block{rot})
	if at+1 >= len(f.Blocks) || f.Blocks[at+1] != exit {
		j := f.NewInstr(ir.OpB)
		j.Target = exitLabel
		jb := &ir.Block{Instrs: []*ir.Instr{j}}
		insertBlocks(f, at+1, []*ir.Block{jb})
	}

	// The rotated loop is the old one without the header, plus H'.
	if t := bodyFirst.Terminator(); t != nil && t.Op == ir.OpBC {
		out := 0
		for _, s := range ir.Succs(f, bodyFirst) {
			if s != rot && (s == header || !inLoop(s)) {
				out++
			}
		}
		exposed = out == 1
	}
	return true, exposed
}
