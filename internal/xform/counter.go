package xform

import (
	"gsched/internal/cfg"
	"gsched/internal/ir"
)

// CounterLoops converts eligible counted loops to use the machine's
// counter register: the RS/6000 closes such loops with a single
// decrement-and-branch (BCT), removing the add/compare pair and the
// three-cycle compare-to-branch delay. The paper's footnote 3 describes
// the feature and notes it was disabled for the Figure 2 example; this
// pass (and the -fig counter experiment) measures what it gives back.
//
// A loop qualifies when, conservatively:
//
//   - it has a single back edge from a latch ending
//     "AI i=i,step; C cr=i,n; BT header,cr,lt" with positive power-of-two
//     step, cr used only by that branch;
//   - the induction register i is pure loop control: inside the loop it
//     is touched only by that AI/C pair;
//   - n is not redefined inside the loop;
//   - the loop header's only other predecessor is a guard block ending
//     "C cr2=i,n; BF exit,cr2,lt", proving i < n on entry, so the trip
//     count ceil((n-i)/step) is at least one (BCT loops always execute
//     once).
//
// Returns the number of loops converted.
func CounterLoops(f *ir.Func) int {
	converted := 0
	var fl cfg.Flow
	for {
		fl.Refill(f)
		g, li := &fl.G, &fl.Loops
		if li.Irreducible {
			return converted
		}
		done := false
		li.Root.Walk(func(r *cfg.Region) {
			if done || !r.IsLoop || !r.IsInner() {
				return
			}
			if convertCounterLoop(f, g, li, r) {
				done = true
				converted++
			}
		})
		if !done {
			return converted
		}
	}
}

func convertCounterLoop(f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region) bool {
	header := f.Blocks[r.Header]
	if header.Label == "" {
		return false
	}
	inLoop := make(map[int]bool)
	for _, b := range r.Blocks {
		inLoop[b] = true
	}

	// Single back edge from a latch with the AI/C/BT tail.
	latch := -1
	var guardBlock *ir.Block
	for _, p := range g.Preds[r.Header] {
		if li.IsBackEdge(p, r.Header) {
			if latch >= 0 {
				return false
			}
			latch = p
		} else {
			if guardBlock != nil {
				return false
			}
			guardBlock = f.Blocks[p]
		}
	}
	if latch < 0 || guardBlock == nil {
		return false
	}
	lb := f.Blocks[latch]
	n := len(lb.Instrs)
	if n < 3 {
		return false
	}
	ai, cmp, bt := lb.Instrs[n-3], lb.Instrs[n-2], lb.Instrs[n-1]
	if ai.Op != ir.OpAddI || ai.Def != ai.A || ai.Imm <= 0 {
		return false
	}
	step := ai.Imm
	if step&(step-1) != 0 {
		return false // need a power of two for the shift below
	}
	if cmp.Op != ir.OpCmp || cmp.A != ai.Def {
		return false
	}
	iReg, nReg, cr := ai.Def, cmp.B, cmp.Def
	if bt.Op != ir.OpBC || !bt.OnTrue || bt.CRBit != ir.BitLT || bt.A != cr || bt.Target != header.Label {
		return false
	}

	// The guard proves i < n on entry: "C cr2=i,n; ...; BF exit,cr2,lt"
	// with the BF leaving the loop.
	gt := guardBlock.Terminator()
	if gt == nil || gt.Op != ir.OpBC || gt.OnTrue || gt.CRBit != ir.BitLT {
		return false
	}
	if tgt := f.BlockByLabel(gt.Target); tgt == nil || inLoop[tgt.Index] {
		return false
	}
	guardOK := false
	for _, i := range guardBlock.Instrs {
		if i.Op == ir.OpCmp && i.Def == gt.A && i.A == iReg && i.B == nReg {
			guardOK = true
		}
		if i != gt && i.DefsReg(gt.A) && i.Op != ir.OpCmp {
			guardOK = false
		}
	}
	if !guardOK {
		return false
	}

	// i is pure loop control inside the loop; cr feeds only the branch;
	// n is loop-invariant.
	ok := true
	for _, bi := range r.Blocks {
		for _, i := range f.Blocks[bi].Instrs {
			if i == ai || i == cmp || i == bt {
				continue
			}
			if i.UsesReg(iReg) || i.DefsReg(iReg) || i.DefsReg(nReg) || i.UsesReg(cr) || i.DefsReg(cr) {
				ok = false
			}
		}
	}
	if !ok {
		return false
	}
	// Neither cr nor the induction register may be consumed after the
	// loop (i stops being updated once the counter takes over).
	// Conservative: no use anywhere outside the loop and guard.
	f.Instrs(func(b *ir.Block, i *ir.Instr) {
		if inLoop[b.Index] || b == guardBlock {
			return
		}
		if i.UsesReg(cr) || i.UsesReg(iReg) {
			ok = false
		}
	})
	if !ok {
		return false
	}

	// Build the preheader computing ctr = (n - i + step - 1) >> log2(step).
	lc := &labelCounter{f: f}
	shift := int64(0)
	for s := step; s > 1; s >>= 1 {
		shift++
	}
	t := f.NewReg(ir.ClassGPR)
	ctr := f.NewReg(ir.ClassGPR)
	pre := &ir.Block{Label: lc.fresh(header.Label + ".ctr")}
	sub := f.NewInstr(ir.OpSub)
	sub.Def, sub.A, sub.B = t, nReg, iReg
	pre.Instrs = append(pre.Instrs, sub)
	if step > 1 {
		adj := f.NewInstr(ir.OpAddI)
		adj.Def, adj.A, adj.Imm = t, t, step-1
		sh := f.NewInstr(ir.OpShrI)
		sh.Def, sh.A, sh.Imm = ctr, t, shift
		pre.Instrs = append(pre.Instrs, adj, sh)
	} else {
		mv := f.NewInstr(ir.OpLR)
		mv.Def, mv.A = ctr, t
		pre.Instrs = append(pre.Instrs, mv)
	}
	// The guard falls through to the header (it cannot branch to it:
	// its taken edge leaves the loop), so inserting the preheader
	// between them preserves control flow.
	insertBlocks(f, header.Index, []*ir.Block{pre})

	// Rewrite the latch: drop AI and C, replace BT with BCT.
	lb.Remove(ai)
	lb.Remove(cmp)
	bct := f.NewInstr(ir.OpBCT)
	bct.Target = header.Label
	bct.A, bct.Def = ctr, ctr
	lb.Instrs[len(lb.Instrs)-1] = bct
	return true
}
