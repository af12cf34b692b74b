package verify

import (
	"fmt"

	"gsched/internal/ir"
)

// This file keeps the verifier's original, index-free derivations as a
// test-only reference: dependences from a sweep over every instruction
// pair, and §5.3 off-path liveness from a whole-program dataflow pass
// per query. The indexed versions must find exactly what these find.

// CheckReference is Check with the indexed dependence enumeration
// replaced by the all-pairs sweep and without the block-local path: it
// always runs the flow analysis and the motion checks.
func CheckReference(v *Verifier, f *ir.Func, rules Rules) error {
	c := new(checker)
	c.reset(&v.snap, f, rules)
	if !c.structure() {
		return c.result()
	}
	c.needAnalysis()
	c.accounting()
	if !c.buildIndex() {
		return c.result()
	}
	c.motions()
	c.allPairsDepOrder()
	return c.result()
}

// BlockLocal reports whether Check takes its block-local path for f
// against v's snapshot: no extra instruction appeared and every
// surviving one sits in its home block.
func BlockLocal(v *Verifier, f *ir.Func) bool {
	c := &checker{snap: &v.snap, f: f}
	if !c.structure() {
		return false
	}
	c.accounting()
	return c.blockLocal
}

// allPairsDepOrder visits every instruction pair of every block, then
// every pair of every forward-reachable block pair.
func (c *checker) allPairsDepOrder() {
	var buf []dep
	emit := func(a, b *ir.Instr) {
		buf = allPairsDeps(a, b, buf[:0])
		for _, d := range buf {
			c.checkDep(d)
		}
	}
	for _, ids := range c.snap.order {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				emit(c.snap.instrs[ids[x]], c.snap.instrs[ids[y]])
			}
		}
	}
	n := len(c.snap.order)
	for ai := 0; ai < n; ai++ {
		if !c.an.reach.has(ai) {
			continue
		}
		for bi := 0; bi < n; bi++ {
			if ai == bi || !c.an.forwardReach(ai, bi) {
				continue
			}
			for _, x := range c.snap.order[ai] {
				for _, y := range c.snap.order[bi] {
					emit(c.snap.instrs[x], c.snap.instrs[y])
				}
			}
		}
	}
}

// allPairsDeps derives the dependences of one pair straight from the
// instructions' Defs and Uses.
func allPairsDeps(a, b *ir.Instr, out []dep) []dep {
	var adefs, auses, bdefs, buses [4]ir.Reg
	ad := a.Defs(adefs[:0])
	au := a.Uses(auses[:0])
	bd := b.Defs(bdefs[:0])
	bu := b.Uses(buses[:0])
	for _, r := range ad {
		if hasReg(bu, r) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depFlow, Reg: r})
		}
		if hasReg(bd, r) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depOutput, Reg: r})
		}
	}
	for _, r := range au {
		if hasReg(bd, r) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depAnti, Reg: r})
		}
	}
	if a.Op.TouchesMemory() && b.Op.TouchesMemory() {
		if !(a.Op.IsLoad() && b.Op.IsLoad()) && memConflict(a, b) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depMem})
		}
	}
	return out
}

// wholeProgramOffPathLive is offPathLive computed with gen/kill facts
// for every block and liveness iterated over the whole flow graph.
func (c *checker) wholeProgramOffPathLive(r ir.Reg, pl place, H int, id int) bool {
	n := len(c.snap.order)
	gen := make([]bool, n)
	kill := make([]bool, n)
	for b := 0; b < n; b++ {
		seenDef := false
		for _, id2 := range c.snap.order[b] {
			ins2 := c.snap.instrs[id2]
			if !seenDef && ins2.UsesReg(r) && c.observesDownstream(id2, pl) {
				gen[b] = true
			}
			if ins2.DefsReg(r) {
				seenDef = true
			}
		}
		kill[b] = seenDef
	}
	liveIn := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			if b == H || liveIn[b] {
				continue
			}
			out := false
			for _, s := range c.an.succs[b] {
				if liveIn[s] {
					out = true
					break
				}
			}
			if gen[b] || (out && !kill[b]) {
				liveIn[b] = true
				changed = true
			}
		}
	}
	live := false
	for _, s := range c.an.succs[pl.block] {
		if liveIn[s] {
			live = true
			break
		}
	}
	instrs := c.f.Blocks[pl.block].Instrs
	for k := len(instrs) - 1; k > pl.pos; k-- {
		j := instrs[k]
		if j.DefsReg(r) {
			live = false
			continue
		}
		if j.UsesReg(r) && !c.snapConsumer(id, j.ID) {
			live = true
		}
	}
	return live
}

// OffPathMismatches asks both liveness derivations, for every placement
// of every snapshot instruction and each register it defines, whether
// the definition is live on paths bypassing its home block. It returns
// the number of queries and a description of each disagreement.
func OffPathMismatches(v *Verifier, f *ir.Func, rules Rules) (queries int, diffs []string) {
	snap := &v.snap
	c := new(checker)
	c.reset(snap, f, rules)
	if !c.structure() {
		return 0, nil
	}
	c.needAnalysis()
	c.accounting()
	if !c.buildIndex() {
		return 0, nil
	}
	for _, id := range snap.ids {
		H := snap.home[id].block
		for _, pl := range c.placements[id] {
			for _, r := range c.sum[id].defs {
				queries++
				got, want := c.offPathLive(r, pl, H, id), c.wholeProgramOffPathLive(r, pl, H, id)
				if got != want {
					diffs = append(diffs, fmt.Sprintf("id %d %s at %v (home %d): indexed %v, reference %v",
						id, r, pl, H, got, want))
				}
			}
		}
	}
	return queries, diffs
}
