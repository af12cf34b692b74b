package core

import (
	"fmt"
	"slices"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/pdg"
	"gsched/internal/policy"
)

// localScratch holds the local scheduler's per-block buffers, owned by a
// pipeline so a function-sized post-pass reuses the same memory for
// every block.
type localScratch struct {
	nodes    []localNode
	done     []bool
	cycleOf  []int
	newOrder []*ir.Instr
	ready    []localNode
	hv       pdg.HeightVals
}

// release drops the instructions the scratch holds, keeping its
// capacity.
func (ls *localScratch) release() {
	for _, s := range [...][]localNode{ls.nodes, ls.ready} {
		s = s[:cap(s)]
		for k := range s {
			s[k].instr = nil
		}
	}
	clear(ls.newOrder[:cap(ls.newOrder)])
}

type localNode struct {
	instr *ir.Instr
	pos   int
	// feat is filled only when a policy with a priority expression is
	// installed; see fillLocalFeatures.
	feat policy.Features
}

// ScheduleBlockLocalPolicy reorders one basic block with a
// cycle-driven list scheduler against the machine description. This is
// the §5.1 post-pass ("the basic block scheduler is applied to every
// single basic block of a program after the global scheduling is
// completed") and also the whole of the BASE configuration's
// scheduling, standing in for the XL compiler's local scheduler of
// [W90]. A non-nil policy's priority expression replaces the (D, CP,
// position) ready-list order; a nil policy keeps it. The gate does not
// apply — the post-pass never moves instructions between blocks, so
// there is nothing to veto.
//
// A well-formed block issues something at least once every stallLimit
// cycles. If the loop waits longer (malformed IR, such as one
// instruction ID used twice in the block, leaves an instruction that
// can never become ready), it returns an error and leaves blk as it
// was.
func ScheduleBlockLocalPolicy(blk *ir.Block, mach *machine.Desc, pol *policy.Policy) error {
	if len(blk.Instrs) < 2 {
		return nil
	}
	pl := getPipeline()
	defer putPipeline(pl)
	ddg := pl.ddgb.BuildBlockDDG(blk, mach)
	pdg.HeightsInto(&pl.local.hv, blk, ddg, mach)
	h := &pl.local.hv
	term := blk.Terminator()

	nodes := grown(pl.local.nodes, len(blk.Instrs))
	// Per-instruction state is offset by the block's smallest ID so a
	// short block late in a function does not pay for the whole
	// function's ID space.
	lo, hi := blk.Instrs[0].ID, blk.Instrs[0].ID
	for k, i := range blk.Instrs {
		nodes[k] = localNode{instr: i, pos: k}
		if i.ID < lo {
			lo = i.ID
		}
		if i.ID > hi {
			hi = i.ID
		}
	}
	done := grown(pl.local.done, hi-lo+1)
	cycleOf := grown(pl.local.cycleOf, hi-lo+1)
	newOrder := pl.local.newOrder[:0]

	usePol := pol != nil && pol.HasPriority()
	if usePol {
		maxCP := 0
		for _, i := range blk.Instrs {
			if cp := h.CP(i.ID); cp > maxCP {
				maxCP = cp
			}
		}
		for k := range nodes {
			n := &nodes[k]
			i := n.instr
			f := &n.feat // zeroed by grown above
			f[policy.FeatD] = float64(h.D(i.ID))
			f[policy.FeatCP] = float64(h.CP(i.ID))
			f[policy.FeatSlack] = float64(maxCP - h.CP(i.ID))
			f[policy.FeatPos] = float64(n.pos)
			f[policy.FeatProb] = 1 // a block always reaches its own code
			f[policy.FeatExec] = float64(mach.Exec(i.Op))
			f[policy.FeatFanin] = float64(len(ddg.PredsOf(i.ID)))
			f[policy.FeatFanout] = float64(len(ddg.SuccsOf(i.ID)))
			if i.Op.IsLoad() {
				f[policy.FeatIsLoad] = 1
			}
			if i.Op.IsStore() {
				f[policy.FeatIsStore] = 1
			}
			if i.Op.IsBranch() {
				f[policy.FeatIsBranch] = 1
			}
			if i.Op.IsFloat() {
				f[policy.FeatIsFloat] = 1
			}
			// spec, dup, class and specdeg stay 0: local scheduling
			// never moves anything, so every node is a useful candidate
			// of its own block.
		}
	}

	earliest := func(i *ir.Instr) int {
		at := 0
		for _, e := range ddg.PredsOf(i.ID) {
			if !done[e.From.ID-lo] {
				// Predecessors outside the block were filtered out by
				// BuildBlockDDG, so this one is simply unscheduled.
				return -1
			}
			if t := cycleOf[e.From.ID-lo] + mach.Exec(e.From.Op) + e.Delay; t > at {
				at = t
			}
		}
		return at
	}

	cycle, idle, limit := 0, 0, stallLimit(mach)
	ready := pl.local.ready[:0]
	for len(newOrder) < len(nodes) {
		if idle > limit {
			return fmt.Errorf("core: block %s: the local scheduler issued nothing for %d cycles", blk, idle)
		}
		ready = ready[:0]
		for _, n := range nodes {
			if done[n.instr.ID-lo] {
				continue
			}
			if n.instr == term && len(newOrder) < len(nodes)-1 {
				continue
			}
			if at := earliest(n.instr); at >= 0 && at <= cycle {
				ready = append(ready, n)
			}
		}
		if usePol {
			slices.SortFunc(ready, func(x, y localNode) int {
				return pol.Compare(&x.feat, &y.feat, x.pos, y.pos)
			})
		} else {
			slices.SortFunc(ready, func(x, y localNode) int {
				if dx, dy := h.D(x.instr.ID), h.D(y.instr.ID); dx != dy {
					return dy - dx
				}
				if cx, cy := h.CP(x.instr.ID), h.CP(y.instr.ID); cx != cy {
					return cy - cx
				}
				return x.pos - y.pos
			})
		}
		var unitsUsed [8]int
		idle++
		for _, n := range ready {
			t := n.instr.Op.Unit()
			if unitsUsed[t] >= mach.NumUnits[t] {
				continue
			}
			unitsUsed[t]++
			done[n.instr.ID-lo] = true
			cycleOf[n.instr.ID-lo] = cycle
			newOrder = append(newOrder, n.instr)
			idle = 0
		}
		cycle++
	}
	// newOrder is pooled scratch; copy back into the block's backing
	// (same length, so no allocation).
	blk.Instrs = append(blk.Instrs[:0], newOrder...)
	pl.local.nodes, pl.local.done, pl.local.cycleOf = nodes, done, cycleOf
	pl.local.newOrder, pl.local.ready = newOrder, ready
	return nil
}

// stallLimit bounds the cycles a list scheduler on mach can wait with
// nothing to issue while its input is well formed: the longest an
// issued instruction can hold back a dependent, its execution time
// plus the largest delay on the machine.
func stallLimit(mach *machine.Desc) int {
	return max(mach.MulTime, mach.DivTime, 1) + mach.MaxDelay()
}
