// Package schedmodel is the shared block-scheduling model used by every
// oracle that reasons about single-block instruction orders: the §4.2
// dependence facts (register flow/anti/output dependences plus
// conservative memory disambiguation) and the simulator's issue-model
// replay that assigns a makespan to a concrete order.
//
// It exists to pin two independently dangerous pieces of logic in one
// place. internal/difftest's exhaustive enumerator and internal/exact's
// branch-and-bound scheduler must agree on (a) which orders are legal
// and (b) what each order costs — any drift between them would make the
// exact tier disagree with the enumeration oracle for reasons that have
// nothing to do with search bugs. Both import this package; a test here
// additionally pins the dependence derivation against internal/pdg's
// block DDG on the fuzz corpus, so the oracles cannot drift from the
// scheduler's own dependence analysis either.
package schedmodel

import (
	"gsched/internal/ir"
	"gsched/internal/machine"
)

// Depends reports whether, with a textually before b, b must stay
// ordered after a: a register flow/anti/output dependence, or a memory
// conflict. The aliasing facts mirror §4.2 of the paper (distinct named
// symbols are disjoint, frame slots are disjoint from globals and from
// differently-offset frame slots, calls may touch any global memory but
// no frame slot) and intentionally match the scheduler's own
// disambiguation power: a weaker rule here would flag legal schedules.
func Depends(a, b *ir.Instr) bool {
	var abuf, bbuf [2]ir.Reg
	ad := a.Defs(abuf[:0])
	bd := b.Defs(bbuf[:0])
	for _, r := range ad {
		if b.UsesReg(r) || b.DefsReg(r) {
			return true // flow or output
		}
	}
	for _, r := range bd {
		if a.UsesReg(r) {
			return true // anti
		}
	}
	if a.Op.TouchesMemory() && b.Op.TouchesMemory() &&
		!(a.Op.IsLoad() && b.Op.IsLoad()) && mayAlias(a, b) {
		return true
	}
	return false
}

// mayAlias conservatively decides whether two memory-touching
// instructions can access a common location.
func mayAlias(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		other := a
		if a.Op == ir.OpCall {
			other = b
		}
		if other.Op == ir.OpCall {
			return true
		}
		return other.Mem == nil || !other.Mem.Frame
	}
	ma, mb := a.Mem, b.Mem
	if ma == nil || mb == nil {
		return false
	}
	if ma.Frame != mb.Frame {
		return false
	}
	if ma.Frame {
		return ma.Off == mb.Off
	}
	if ma.Sym != "" && mb.Sym != "" && ma.Sym != mb.Sym {
		return false
	}
	if ma.Sym == mb.Sym && ma.Sym != "" && ma.Base == ir.NoReg && mb.Base == ir.NoReg {
		return ma.Off == mb.Off
	}
	return true
}

// DepMatrix derives the pairwise dependence relation over ref: dep[i][j]
// (only for i < j) means ref[j] must stay ordered after ref[i] in every
// legal order of the block. When the block ends in a terminator, every
// other instruction is additionally ordered before it. ref must be a
// legal order itself (any pre- or post-schedule block layout is); the
// relation derived from one legal order is identical for all of them,
// because legal orders preserve the relative position of every
// dependent pair.
func DepMatrix(ref []*ir.Instr) [][]bool {
	n := len(ref)
	dep := make([][]bool, n)
	for i := range dep {
		dep[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Depends(ref[i], ref[j]) {
				dep[i][j] = true
			}
		}
	}
	if n > 0 && ref[n-1].Op.IsTerminator() {
		for i := 0; i < n-1; i++ {
			dep[i][n-1] = true
		}
	}
	return dep
}

// Makespan replays order through the simulator's issue model for a block
// started from a cold pipeline: in-order issue, at most n_t starts per
// unit type per cycle, and every consumer held to producer start + t + d
// (the k + t + d rule of §2). Values defined before the block are ready
// at cycle zero.
func Makespan(order []*ir.Instr, d *machine.Desc) int {
	avail := make(map[ir.Reg]int)
	prod := make(map[ir.Reg]*ir.Instr)
	var lastCycle, lastCount [machine.NumUnitTypes]int
	prev, finish := 0, 0
	for _, i := range order {
		ready := 0
		use := func(r ir.Reg) {
			if !r.Valid() {
				return
			}
			p, ok := prod[r]
			if !ok {
				return
			}
			if c := avail[r] + d.Delay(p, i, r); c > ready {
				ready = c
			}
		}
		use(i.A)
		use(i.B)
		if i.Mem != nil {
			use(i.Mem.Base)
		}
		for _, a := range i.CallArgs {
			use(a)
		}
		c := prev
		if ready > c {
			c = ready
		}
		t := d.Unit(i.Op)
		n := d.NumUnits[t]
		if n < 1 {
			n = 1
		}
		if c == lastCycle[t] && lastCount[t] >= n {
			c++
		}
		if c > lastCycle[t] {
			lastCycle[t] = c
			lastCount[t] = 1
		} else {
			lastCount[t]++
		}
		prev = c
		if done := c + d.Exec(i.Op); done > finish {
			finish = done
		}
		var defs [2]ir.Reg
		for _, r := range i.Defs(defs[:0]) {
			avail[r] = c + d.Exec(i.Op)
			prod[r] = i
		}
	}
	return finish
}
