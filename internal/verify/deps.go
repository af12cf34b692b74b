package verify

import (
	"cmp"

	"gsched/internal/ir"
)

// Dependence derivation, written from the paper's §3 definitions rather
// than shared with internal/pdg. A dependence x → y means y must not
// execute before x on any path where both execute.

// depKind labels a dependence for diagnostics.
type depKind uint8

const (
	depFlow depKind = iota
	depAnti
	depOutput
	depMem
)

func (k depKind) String() string {
	switch k {
	case depFlow:
		return "flow"
	case depAnti:
		return "anti"
	case depOutput:
		return "output"
	case depMem:
		return "memory"
	}
	return "dep"
}

// dep records that instruction From must stay ordered before To.
type dep struct {
	From, To int // instruction IDs
	Kind     depKind
	Reg      ir.Reg // register carrying the dependence (register kinds)
}

// memConflict conservatively decides whether two memory-touching
// instructions may access the same location. The facts mirror §4.2 of
// the paper: distinct named symbols are disjoint, stack frame slots are
// disjoint from global memory and from differently-offset frame slots,
// and a call may touch any global memory but never a private frame slot.
func memConflict(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		other := a
		if a.Op == ir.OpCall {
			other = b
		}
		if other.Op == ir.OpCall {
			return true
		}
		// Calls cannot see the caller's frame slots.
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
		// Direct accesses to the same symbol at constant offsets.
		return ma.Off == mb.Off
	}
	return true
}

// summary is what dependence derivation reads of one snapshot
// instruction, computed once per check.
type summary struct {
	ins        *ir.Instr
	defs, uses []ir.Reg // as ir.Instr.Defs and Uses return them
	mem, load  bool     // touches memory; is a load
}

func hasReg(set []ir.Reg, r ir.Reg) bool {
	for _, x := range set {
		if x == r {
			return true
		}
	}
	return false
}

// pairDeps appends every dependence forcing a to stay before b (a is
// textually earlier on some path).
func pairDeps(a, b *summary, out []dep) []dep {
	for _, r := range a.defs {
		if hasReg(b.uses, r) {
			out = append(out, dep{From: a.ins.ID, To: b.ins.ID, Kind: depFlow, Reg: r})
		}
		if hasReg(b.defs, r) {
			out = append(out, dep{From: a.ins.ID, To: b.ins.ID, Kind: depOutput, Reg: r})
		}
	}
	for _, r := range a.uses {
		if hasReg(b.defs, r) {
			out = append(out, dep{From: a.ins.ID, To: b.ins.ID, Kind: depAnti, Reg: r})
		}
	}
	if a.mem && b.mem && !(a.load && b.load) && memConflict(a.ins, b.ins) {
		out = append(out, dep{From: a.ins.ID, To: b.ins.ID, Kind: depMem})
	}
	// Nothing may migrate across a terminator within its block; the
	// terminator-stays-last structural check covers that instead of
	// explicit control edges here.
	return out
}

// occurrence is one snapshot slot mentioning a register.
type occurrence struct {
	slot      int32
	def, used bool
}

// depIndex locates the snapshot instructions that can depend on each
// other. Slots number the snapshot's instruction positions block by
// block; every register maps to the slots that mention it, in slot
// order (so grouped by block), and mem lists the memory-touching slots.
type depIndex struct {
	slotID    []int32 // slot -> instruction ID
	slotBlock []int32 // slot -> block
	// regNum maps each class's register numbers to dense register
	// numbers plus one; 0 marks a register the snapshot never mentions.
	regNum   [ir.NumClasses][]int32
	occStart []int32 // dense register number -> first entry in occ; one sentinel past the end
	occ      []occurrence
	mem      []occurrence // memory-touching slots (def and used unset)

	regSlab []int32 // backing of regNum
}

// mention is one slot's occurrence of a dense register number, before
// buildIndex sorts the occurrences by register.
type mention struct {
	reg int32
	occurrence
}

// occurrences returns the slots mentioning r, a register of the
// snapshot, in slot order.
func (x *depIndex) occurrences(r ir.Reg) []occurrence {
	n := x.regNum[r.Class][r.Num] - 1
	if n < 0 {
		return nil
	}
	return x.occ[x.occStart[n]:x.occStart[n+1]]
}

// buildIndex summarizes every snapshot instruction and indexes the
// snapshot's slots by register and memory access. It reports false,
// after recording a violation, when a register has no class or a
// number outside [0, ir.MaxRegs), which ir.(*Func).Validate rules out:
// the tables are indexed by register number.
func (c *checker) buildIndex() bool {
	c.sum = zeroed(c.sum, len(c.snap.instrs))
	n := len(c.snap.ids)
	if cap(c.regs) < 3*n { // at most three per instruction but for calls
		c.regs = make([]ir.Reg, 0, 3*n)
	}
	regs := c.regs[:0]
	defer func() { c.regs = regs }()
	var size [ir.NumClasses]int
	for _, id := range c.snap.ids {
		ins := c.snap.instrs[id]
		s := &c.sum[id]
		s.ins = ins
		start := len(regs)
		regs = ins.Defs(regs)
		s.defs = regs[start:len(regs):len(regs)]
		mid := len(regs)
		regs = ins.Uses(regs)
		s.uses = regs[mid:len(regs):len(regs)]
		s.mem, s.load = ins.Op.TouchesMemory(), ins.Op.IsLoad()
		for _, r := range regs[start:] {
			if int(r.Class) >= ir.NumClasses || r.Num < 0 || r.Num >= ir.MaxRegs {
				c.violate("structure", ins, "register %s outside the register file (%d per class)", r, ir.MaxRegs)
				return false
			}
			size[r.Class] = max(size[r.Class], int(r.Num)+1)
		}
	}

	x := &c.idx
	x.regSlab = zeroed(x.regSlab, size[0]+size[1]+size[2])
	slab := x.regSlab
	for cl := range x.regNum {
		x.regNum[cl], slab = slab[:size[cl]:size[cl]], slab[size[cl]:]
	}
	x.slotID, x.slotBlock, x.mem = x.slotID[:0], x.slotBlock[:0], x.mem[:0]
	if cap(c.ms) < len(regs) {
		c.ms = make([]mention, 0, len(regs))
	}
	ms := c.ms[:0]
	nregs := int32(0)
	for b, ids := range c.snap.order {
		for _, id := range ids {
			slot := int32(len(x.slotID))
			x.slotID = append(x.slotID, int32(id))
			x.slotBlock = append(x.slotBlock, int32(b))
			s := &c.sum[id]
			if s.mem {
				x.mem = append(x.mem, occurrence{slot: slot})
			}
			first := len(ms)
			note := func(r ir.Reg, def bool) {
				num := &x.regNum[r.Class][r.Num]
				if *num == 0 {
					nregs++
					*num = nregs
				}
				n := *num - 1
				for k := first; k < len(ms); k++ {
					if ms[k].reg == n {
						ms[k].def = ms[k].def || def
						ms[k].used = ms[k].used || !def
						return
					}
				}
				ms = append(ms, mention{n, occurrence{slot: slot, def: def, used: !def}})
			}
			for _, r := range s.defs {
				note(r, true)
			}
			for _, r := range s.uses {
				note(r, false)
			}
		}
	}
	c.ms = ms
	// Counting sort by register keeps each register's slots in order.
	x.occStart = zeroed(x.occStart, int(nregs)+1)
	for _, m := range ms {
		x.occStart[m.reg+1]++
	}
	for n := 1; n < len(x.occStart); n++ {
		x.occStart[n] += x.occStart[n-1]
	}
	x.occ = zeroed(x.occ, len(ms))
	next := append(c.next[:0], x.occStart[:nregs]...)
	c.next = next
	for _, m := range ms {
		x.occ[next[m.reg]] = m.occurrence
		next[m.reg]++
	}
	return true
}

// candidate is a slot pair (a before b) that may carry a dependence,
// keyed for the order of the all-pairs sweep: same-block pairs first by
// block and positions, then cross-block pairs by block pair and
// positions.
type candidate struct{ blocks, slots uint64 }

func (p candidate) a() int32 { return int32(p.slots >> 32) }
func (p candidate) b() int32 { return int32(uint32(p.slots)) }

func cmpCandidate(p, q candidate) int {
	return cmp.Or(cmp.Compare(p.blocks, q.blocks), cmp.Compare(p.slots, q.slots))
}

// candidates appends to out every ordered slot pair that shares a
// register defined on at least one side or is a possibly aliasing
// memory pair other than two loads, in enumeration order and possibly
// more than once; sorting by cmpCandidate and compacting gives the
// sweep order. A pair is ordered when its first slot precedes the
// second in one block, or when the second's block is forward-reachable
// from the first's. In an irreducible forward graph both orders of a
// cross-block pair may hold. In a block-local check only same-block
// pairs are listed: every instruction sits in its home block, where a
// forward-reachable cross-block pair is in order by construction.
func (c *checker) candidates(out []candidate) []candidate {
	x := &c.idx
	add := func(s, t int32) {
		bs, bt := x.slotBlock[s], x.slotBlock[t]
		if bs == bt {
			if s > t {
				s, t = t, s
			}
			out = append(out, candidate{uint64(bs)<<31 | uint64(bs), uint64(s)<<32 | uint64(t)})
			return
		}
		const cross = 1 << 62
		if c.an.forwardReach(int(bs), int(bt)) {
			out = append(out, candidate{cross | uint64(bs)<<31 | uint64(bt), uint64(s)<<32 | uint64(t)})
		}
		if c.an.forwardReach(int(bt), int(bs)) {
			out = append(out, candidate{cross | uint64(bt)<<31 | uint64(bs), uint64(t)<<32 | uint64(s)})
		}
	}
	for n := 0; n+1 < len(x.occStart); n++ {
		c.pairRuns(x.occ[x.occStart[n]:x.occStart[n+1]], func(run []occurrence) {
			for i, d := range run {
				if !d.def {
					continue
				}
				for j, o := range run {
					if j == i || (o.def && j < i) {
						continue // each def-def pair once
					}
					add(d.slot, o.slot)
				}
			}
		})
	}
	c.pairRuns(x.mem, func(run []occurrence) {
		for i, s := range run {
			ss := &c.sum[x.slotID[s.slot]]
			if ss.load {
				continue
			}
			for j, t := range run {
				st := &c.sum[x.slotID[t.slot]]
				if j == i || (!st.load && j < i) {
					continue // each pair of non-loads (stores, calls) once
				}
				if memConflict(ss.ins, st.ins) {
					add(s.slot, t.slot)
				}
			}
		}
	})
	return out
}

// pairRuns calls visit on the runs of a slot-ordered list whose
// members may pair: one run per block in a block-local check, else the
// whole list.
func (c *checker) pairRuns(list []occurrence, visit func(run []occurrence)) {
	if !c.blockLocal {
		visit(list)
		return
	}
	for lo := 0; lo < len(list); {
		b := c.idx.slotBlock[list[lo].slot]
		hi := lo + 1
		for hi < len(list) && c.idx.slotBlock[list[hi].slot] == b {
			hi++
		}
		visit(list[lo:hi])
		lo = hi
	}
}
