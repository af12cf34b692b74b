// Package xform implements the loop transformations of the paper's §6
// configuration: unrolling inner loops once before global scheduling,
// rotating small inner loops afterwards (copying the loop-test block to
// the bottom so that a second scheduling pass achieves a partial software
// pipelining effect), and the driver that sequences unroll → schedule →
// rotate → schedule → local pass.
package xform

import (
	"slices"
	"strconv"

	"gsched/internal/cfg"
	"gsched/internal/ir"
)

// labelCounter generates fresh labels per function.
type labelCounter struct {
	f *ir.Func
	n int
}

func (lc *labelCounter) fresh(prefix string) string {
	for {
		lc.n++
		// Not fmt: its per-P printer pool would make a compile's
		// allocation count depend on collections and scheduling.
		l := prefix + "." + strconv.Itoa(lc.n)
		if lc.f.BlockByLabel(l) == nil {
			return l
		}
	}
}

// ensureLabel gives b a label if it has none.
func (lc *labelCounter) ensureLabel(b *ir.Block) string {
	if b.Label == "" {
		b.Label = lc.fresh("XL")
	}
	return b.Label
}

// loop is an inner loop as the transforms need it, read off the region
// tree once per sweep (see transformInnerLoops).
type loop struct {
	header int
	blocks []int // ascending; includes header
	backs  []int // the sources of back edges to header, ascending
}

// readLoop reads the loop region r off li. The loop's rows are appended
// to backing, whose extension is returned: one sweep carves every
// candidate from one array.
func readLoop(backing []int, li *cfg.LoopInfo, r *cfg.Region) (loop, []int) {
	start := len(backing)
	backing = append(backing, r.Blocks...)
	for _, u := range r.Blocks {
		if li.IsBackEdge(u, r.Header) {
			backing = append(backing, u)
		}
	}
	mid, end := start+len(r.Blocks), len(backing)
	return loop{header: r.Header, blocks: backing[start:mid:mid], backs: backing[mid:end:end]}, backing
}

// isBack reports whether u->l.header is a back edge.
func (l *loop) isBack(u int) bool { return slices.Contains(l.backs, u) }

// contiguous reports whether the loop's blocks are adjacent in layout,
// and returns the first and last.
func (l *loop) contiguous() (lo, hi int, ok bool) {
	lo, hi = l.blocks[0], l.blocks[len(l.blocks)-1]
	return lo, hi, hi-lo+1 == len(l.blocks)
}

// unrollOnce duplicates the body of loop l so the loop covers two
// original iterations per trip (the paper unrolls inner loops of up to
// 4 basic blocks once, §6). All exit tests are kept, so the
// transformation is valid for any trip count. It reports false without
// changing f when the loop shape is unsupported (non-contiguous layout
// or a fallthrough back edge). Unrolling keeps the header, so it never
// exposes another loop (the second result is always false); the new
// blocks all go right after the loop's last block.
func unrollOnce(f *ir.Func, l loop) (changed, exposed bool) {
	// The loop blocks must be contiguous in layout so the clone can be
	// placed right after them with fallthroughs preserved.
	_, hi, ok := l.contiguous()
	if !ok {
		return false, false
	}
	// Every back edge must be an explicit branch to the header.
	header := f.Blocks[l.header]
	for _, u := range l.backs {
		t := f.Blocks[u].Terminator()
		if t == nil || !t.Op.IsBranch() || t.Target != header.Label {
			return false, false
		}
	}
	if header.Label == "" {
		return false, false
	}
	lc := &labelCounter{f: f}

	// The clone of the last block sits right before the after-loop
	// block, so its fallthrough lands correctly; it is the original last
	// block whose fallthrough would now hit the clone of the first
	// block. So if the last loop block can fall through (no terminator
	// or a conditional branch: a conditional back edge falls through to
	// the exit, like Figure 2's BL10), its fallthrough must skip the
	// clones: insert an explicit branch to the current fallthrough
	// target.
	last := f.Blocks[hi]
	if t := last.Terminator(); t == nil || t.Op == ir.OpBC {
		if hi+1 >= len(f.Blocks) {
			return false, false
		}
		after := f.Blocks[hi+1]
		b := f.NewInstr(ir.OpB)
		b.Target = lc.ensureLabel(after)
		// The branch lives in a tiny new block appended between the
		// loop and the clones, so the conditional terminator of the
		// last block stays a terminator.
		jb := &ir.Block{Label: "", Instrs: []*ir.Instr{b}}
		insertBlocks(f, hi+1, []*ir.Block{jb})
		hi++
	}

	// Clone the loop blocks.
	cloneLabel := make(map[string]string)
	for _, bi := range l.blocks {
		b := f.Blocks[bi]
		if b.Label != "" {
			cloneLabel[b.Label] = lc.fresh(b.Label + ".u")
		}
	}
	clones := make([]*ir.Block, 0, len(l.blocks))
	for _, bi := range l.blocks {
		b := f.Blocks[bi]
		nb := &ir.Block{Label: cloneLabel[b.Label]}
		for _, i := range b.Instrs {
			ci := f.CloneInstr(i)
			if ci.Op.IsBranch() {
				// Intra-loop target: to the cloned copy — except the
				// back edge, which returns to the original header
				// (completing the two-iteration cycle).
				if nl, ok := cloneLabel[ci.Target]; ok && !(ci.Target == header.Label && l.isBack(bi)) {
					ci.Target = nl
				}
			}
			nb.Instrs = append(nb.Instrs, ci)
		}
		clones = append(clones, nb)
	}
	// Original back edges now continue into the clone of the header.
	for _, u := range l.backs {
		f.Blocks[u].Terminator().Target = cloneLabel[header.Label]
	}
	insertBlocks(f, hi+1, clones)
	return true, false
}

// insertBlocks splices blocks into f.Blocks at index at and reindexes.
func insertBlocks(f *ir.Func, at int, blocks []*ir.Block) {
	f.Blocks = append(f.Blocks[:at], append(blocks, f.Blocks[at:]...)...)
	f.ReindexBlocks()
}
