package xform

import (
	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/profile"
)

// Superblock formation tail-duplicates hot join blocks so the frequent
// trace loses its side entrances and the scheduler's useful (0-branch)
// motion applies along it. This is the classic trace-straightening
// companion to the paper's Definition-6 duplication: Def-6 moves one
// instruction into all predecessors of a join; tail duplication instead
// copies the join itself onto the hot path, which turns the hot
// predecessor and the copy into equivalent blocks (Definition 4) and
// leaves the cold paths untouched. The gates:
const (
	// superblockMinProb is the edge probability below which an arm is
	// not considered hot (a biased branch must send at least this
	// fraction of executions down the arm).
	superblockMinProb = 0.8
	// superblockMinCount is the minimum number of recorded executions
	// of the branch; colder branches carry too little signal to gamble
	// code growth on.
	superblockMinCount = 8
	// superblockMaxBlock is the largest join block (instruction count)
	// that may be duplicated.
	superblockMaxBlock = 16
)

// formSuperblocks tail-duplicates hot join blocks of f according to the
// edge profile and returns the number of blocks duplicated, growing f
// by at most max(16, NumInstrs/4) instructions. Legality is
// structural: each duplicated block keeps its instructions and its
// successor edges, so every execution path still runs the join exactly
// once (through the original or the copy). Formation is skipped for
// back edges and loop headers — duplicating those would destroy the
// reducible region structure §6 schedules — and stops at the growth
// cap. The transformation is deterministic: blocks are scanned in
// layout order and the analyses are rebuilt after every duplication.
func formSuperblocks(f *ir.Func, prof *profile.Profile) int {
	if prof == nil || prof.Len() == 0 || len(f.Blocks) < 2 {
		return 0
	}
	budget := max(16, f.NumInstrs()/4)
	formed := 0
	var fl cfg.Flow
	for budget > 0 {
		fl.Refill(f)
		if !tailDuplicateOne(f, &fl, prof, &budget) {
			break
		}
		formed++
	}
	return formed
}

// tailDuplicateOne finds the first hot conditional edge into a join
// block that passes every gate, duplicates the join onto that edge, and
// reports whether anything changed. One duplication per call keeps the
// flow analyses honest: the caller re-enters with fl refilled.
func tailDuplicateOne(f *ir.Func, fl *cfg.Flow, prof *profile.Profile, budget *int) bool {
	g, li := &fl.G, &fl.Loops
	if li.Irreducible {
		return false
	}
	byLabel := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		if b.Label != "" {
			byLabel[b.Label] = i
		}
	}
	isLoopHeader := func(b int) bool {
		for _, p := range g.Preds[b] {
			if li.IsBackEdge(p, b) {
				return true
			}
		}
		return false
	}
	for u, ub := range f.Blocks {
		t := ub.Terminator()
		if t == nil || t.Op != ir.OpBC {
			continue
		}
		c := prof.Branch(f.Name, t.ID)
		if c.Total() < superblockMinCount {
			continue
		}
		p := c.TakenProb()
		// The hot arm: the explicit target when taken dominates, the
		// fallthrough when not-taken dominates.
		var b int
		var viaTarget bool
		switch {
		case p >= superblockMinProb:
			tgt, ok := byLabel[t.Target]
			if !ok {
				continue
			}
			b, viaTarget = tgt, true
		case 1-p >= superblockMinProb:
			if u+1 >= len(f.Blocks) {
				continue
			}
			b, viaTarget = u+1, false
		default:
			continue
		}
		if b == u || b == 0 || len(g.Preds[b]) < 2 {
			continue // not a join, or a self-loop, or the entry
		}
		if li.IsBackEdge(u, b) || isLoopHeader(b) {
			continue // keep the region structure reducible
		}
		jb := f.Blocks[b]
		if len(jb.Instrs) > superblockMaxBlock || len(jb.Instrs) > *budget {
			continue
		}
		duplicateJoin(f, u, b, viaTarget)
		*budget -= len(jb.Instrs)
		return true
	}
	return false
}

// duplicateJoin clones block b onto the edge u->b. When the edge is u's
// explicit branch target the clone (plus a fallthrough-fixing jump
// block when b can fall through) is appended at the end of the function
// — safe because validated functions never fall off the end — and u is
// retargeted to the clone's fresh label. When the edge is u's
// fallthrough the clone is spliced in directly after u, intercepting
// exactly that edge; the shifted original keeps its label for every
// other predecessor.
func duplicateJoin(f *ir.Func, u, b int, viaTarget bool) {
	lc := &labelCounter{f: f}
	jb := f.Blocks[b]

	// Resolve b's own fallthrough before any splicing shifts indexes.
	fallLabel := ""
	if t := jb.Terminator(); t == nil || t.Op == ir.OpBC || t.Op == ir.OpBCT {
		fallLabel = lc.ensureLabel(f.Blocks[b+1])
	}

	clone := &ir.Block{}
	if viaTarget {
		clone.Label = lc.fresh(lc.ensureLabel(jb) + ".sb")
	}
	for _, i := range jb.Instrs {
		clone.Instrs = append(clone.Instrs, f.CloneInstr(i))
	}
	blocks := []*ir.Block{clone}
	if fallLabel != "" {
		if clone.Terminator() == nil {
			// Pure fallthrough: give the clone an explicit jump.
			j := f.NewInstr(ir.OpB)
			j.Target = fallLabel
			clone.Instrs = append(clone.Instrs, j)
		} else {
			// Conditional terminator: the clone falls through into a
			// fresh jump block that lands on b's fallthrough successor.
			j := f.NewInstr(ir.OpB)
			j.Target = fallLabel
			blocks = append(blocks, &ir.Block{Instrs: []*ir.Instr{j}})
		}
	}
	if viaTarget {
		f.Blocks[u].Terminator().Target = clone.Label
		insertBlocks(f, len(f.Blocks), blocks)
	} else {
		insertBlocks(f, u+1, blocks)
	}
}
