// Package rename implements register renaming: it partitions the
// definitions and uses of each symbolic register into independent webs
// (connected def-use chains) and gives every web its own register. This
// removes the anti and output dependences the paper says "may
// unnecessarily constrain the scheduling process" (§4.2 — "the XL
// compiler does certain renaming of registers, which is similar to the
// effect of the static single assignment form").
//
// The minmax example of the paper needs exactly this: Figure 2 reuses
// cr6 and cr7 across blocks, and Figure 6's speculative motion of I12
// into BL1 is only legal after its destination is renamed (the paper
// prints it as cr5).
//
// All per-instruction and per-register facts live in dense slices:
// instructions are keyed by Instr.ID (bounded by Func.NumInstrIDs) and
// registers by a packed index laid out class after class.
package rename

import (
	"gsched/internal/cfg"
	"gsched/internal/ir"
)

// defSite identifies one register definition: slot 0 is Instr.Def,
// slot 1 is Instr.Def2. A nil Instr is the virtual entry definition used
// for parameters and registers possibly read before being written.
type defSite struct {
	instr *ir.Instr
	slot  int
	reg   ir.Reg
}

// Renamer renames registers, keeping its tables from one function to
// the next, so a worker renaming a stream of functions reuses storage
// sized by the largest one. It keeps no reference to a renamed function
// after Run returns. A Renamer serves one goroutine at a time; the zero
// value is ready to use.
type Renamer struct {
	defs       []defSite
	defIdx     [][2]int32 // instr ID -> def ids; -1 when absent
	entryDef   []int32    // packed register -> entry def id; -1 absent
	regDefs    [][]int32  // packed register -> its def ids, ascending
	count      []int32
	defBacking []int32
	sets       [][]uint64 // gen, kill, in and out of block i at 4i..4i+3
	backing    []uint64
	entryIn    []uint64
	cur        []uint64
	parent     []int32 // union-find forest over def ids
	useOff     []int32
	useDef     []int32
	webReg     []ir.Reg
	keepFirst  []bool
}

// filled returns s resized to n elements, each set to v, reusing its
// backing array when it is large enough.
func filled[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// find returns the representative of def id x's web.
func (rn *Renamer) find(x int32) int32 {
	parent := rn.parent
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// Run renames registers in f and returns the number of webs that
// received a fresh name. The flow graph g must match f.
func (rn *Renamer) Run(f *ir.Func, g *cfg.Graph) int {
	numIDs := f.NumInstrIDs()
	// Packed register index: the registers of all classes share one
	// dense id space, class after class.
	var regBase [ir.NumClasses]int
	numRegs := 0
	for c := 0; c < ir.NumClasses; c++ {
		regBase[c] = numRegs
		numRegs += f.NumRegs(ir.RegClass(c))
	}
	regIdx := func(r ir.Reg) int { return regBase[r.Class] + int(r.Num) }

	// 1. Enumerate definition sites.
	defs := rn.defs[:0]
	defer func() {
		clear(defs) // drop the instructions
		rn.defs = defs
	}()
	defIdx := filled(rn.defIdx, numIDs, [2]int32{-1, -1})
	rn.defIdx = defIdx
	addDef := func(i *ir.Instr, slot int, r ir.Reg) int32 {
		id := int32(len(defs))
		defs = append(defs, defSite{instr: i, slot: slot, reg: r})
		return id
	}

	// Virtual entry definitions: parameters, plus any register that may
	// be read before written (conservatively: any register used in the
	// function gets an entry def; webs that never see it are unaffected
	// because it only reaches uses not covered by a real def).
	entryDef := filled(rn.entryDef, numRegs, -1)
	rn.entryDef = entryDef
	noteEntry := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		if entryDef[regIdx(r)] < 0 {
			entryDef[regIdx(r)] = addDef(nil, -1, r)
		}
	}
	for _, p := range f.Params {
		noteEntry(p)
	}
	var scratchBuf [8]ir.Reg
	scratch := scratchBuf[:0]
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		scratch = i.Uses(scratch[:0])
		for _, r := range scratch {
			noteEntry(r)
		}
	})
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		ids := [2]int32{-1, -1}
		if i.Def.Valid() {
			ids[0] = addDef(i, 0, i.Def)
		}
		if i.Def2.Valid() {
			ids[1] = addDef(i, 1, i.Def2)
		}
		defIdx[i.ID] = ids
	})

	nd := len(defs)
	words := (nd + 63) / 64

	// Packed register -> its def ids, ascending (for kill sets): rows
	// counted, then carved from one backing array.
	regDefs := filled(rn.regDefs, numRegs, nil)
	count := filled(rn.count, numRegs, 0)
	for _, d := range defs {
		count[regIdx(d.reg)]++
	}
	defBacking := filled(rn.defBacking, nd, 0)
	rn.regDefs, rn.count, rn.defBacking = regDefs, count, defBacking
	for r, c := range count {
		regDefs[r], defBacking = defBacking[:0:c], defBacking[c:]
	}
	for id, d := range defs {
		r := regIdx(d.reg)
		regDefs[r] = append(regDefs[r], int32(id))
	}

	// 2. Reaching definitions (block-level gen/kill, then instruction
	// walk). The four bit-vectors per block are carved from one backing
	// array.
	nb := len(f.Blocks)
	rn.sets = filled(rn.sets, 4*nb, nil)
	rn.backing = filled(rn.backing, 4*nb*words, 0)
	backing := rn.backing
	for i := range rn.sets {
		rn.sets[i], backing = backing[:words:words], backing[words:]
	}
	gen := func(bi int) []uint64 { return rn.sets[4*bi] }
	kill := func(bi int) []uint64 { return rn.sets[4*bi+1] }
	in := func(bi int) []uint64 { return rn.sets[4*bi+2] }
	out := func(bi int) []uint64 { return rn.sets[4*bi+3] }
	set := func(bs []uint64, id int32) { bs[id/64] |= 1 << (uint(id) % 64) }
	clr := func(bs []uint64, id int32) { bs[id/64] &^= 1 << (uint(id) % 64) }
	has := func(bs []uint64, id int32) bool { return bs[id/64]&(1<<(uint(id)%64)) != 0 }

	for bi, b := range f.Blocks {
		for _, i := range b.Instrs {
			ids := defIdx[i.ID]
			for s := 0; s < 2; s++ {
				id := ids[s]
				if id < 0 {
					continue
				}
				for _, other := range regDefs[regIdx(defs[id].reg)] {
					if other != id {
						set(kill(bi), other)
						clr(gen(bi), other)
					}
				}
				set(gen(bi), id)
			}
		}
	}
	// Entry block starts with the virtual entry defs.
	entryIn := filled(rn.entryIn, words, 0)
	rn.entryIn = entryIn
	for _, id := range entryDef {
		if id >= 0 {
			set(entryIn, id)
		}
	}
	copy(in(0), entryIn)

	for changed := true; changed; {
		changed = false
		for bi := 0; bi < nb; bi++ {
			// in = union of preds' out (plus entry defs for block 0).
			inb, outb := in(bi), out(bi)
			if bi == 0 {
				copy(inb, entryIn)
			} else {
				clear(inb)
			}
			for _, p := range g.Preds[bi] {
				outp := out(p)
				for w := range inb {
					inb[w] |= outp[w]
				}
			}
			genb, killb := gen(bi), kill(bi)
			for w := range outb {
				nv := genb[w] | (inb[w] &^ killb[w])
				if nv != outb[w] {
					outb[w] = nv
					changed = true
				}
			}
		}
	}

	// 3. Union-find webs over def sites; walk each block connecting
	// every use to the defs reaching it.
	parent := filled(rn.parent, nd, 0)
	for i := range parent {
		parent[i] = int32(i)
	}
	rn.parent = parent
	find := rn.find
	union := func(a, b int32) { parent[find(a)] = find(b) }

	// useDef remembers a representative def for each use slot so the
	// rewrite can look up the web register. Use slots of instruction i
	// live at useOff[i.ID]: 0=A, 1=B, 2=Mem.Base, 3+k=CallArgs[k].
	useOff := filled(rn.useOff, numIDs, 0)
	rn.useOff = useOff
	totalSlots := 0
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		useOff[i.ID] = int32(totalSlots)
		totalSlots += 3 + len(i.CallArgs)
	})
	useDef := filled(rn.useDef, totalSlots, -1)
	rn.useDef = useDef

	cur := filled(rn.cur, words, 0)
	rn.cur = cur
	for bi, b := range f.Blocks {
		copy(cur, in(bi))
		for _, i := range b.Instrs {
			connect := func(r ir.Reg, which int32) {
				if !r.Valid() {
					return
				}
				first := int32(-1)
				for _, id := range regDefs[regIdx(r)] {
					if has(cur, id) {
						if first < 0 {
							first = id
						} else {
							union(first, id)
						}
					}
				}
				if first >= 0 {
					useDef[useOff[i.ID]+which] = first
				}
			}
			connect(i.A, 0)
			connect(i.B, 1)
			if i.Mem != nil {
				connect(i.Mem.Base, 2)
			}
			for k, a := range i.CallArgs {
				connect(a, int32(3+k))
			}
			ids := defIdx[i.ID]
			for s := 0; s < 2; s++ {
				id := ids[s]
				if id < 0 {
					continue
				}
				for _, other := range regDefs[regIdx(defs[id].reg)] {
					clr(cur, other)
				}
				set(cur, id)
			}
		}
	}

	// 4. Assign one register per web. Webs containing a virtual entry
	// def keep the original register (parameters and possibly-
	// uninitialised reads must not change names); the web containing
	// the first real definition of each register also keeps the
	// original name, so renaming is minimal and output remains
	// recognisable.
	webReg := filled(rn.webReg, nd, ir.NoReg) // by web representative; NoReg = unassigned
	rn.webReg = webReg
	for _, id := range entryDef {
		if id >= 0 {
			webReg[find(id)] = defs[id].reg
		}
	}
	keepFirst := filled(rn.keepFirst, numRegs, false)
	rn.keepFirst = keepFirst
	renamed := 0
	for id := 0; id < nd; id++ {
		d := defs[id]
		if d.instr == nil {
			continue
		}
		w := find(int32(id))
		if webReg[w].Valid() {
			continue
		}
		if !keepFirst[regIdx(d.reg)] {
			keepFirst[regIdx(d.reg)] = true
			webReg[w] = d.reg
			continue
		}
		webReg[w] = f.NewReg(d.reg.Class)
		renamed++
	}

	// 5. Rewrite definitions and uses.
	for id := 0; id < nd; id++ {
		d := defs[id]
		if d.instr == nil {
			continue
		}
		r := webReg[find(int32(id))]
		if d.slot == 0 {
			d.instr.Def = r
		} else {
			d.instr.Def2 = r
		}
	}
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		base := useOff[i.ID]
		rw := func(which int32, get ir.Reg, put func(ir.Reg)) {
			if !get.Valid() {
				return
			}
			if id := useDef[base+which]; id >= 0 {
				put(webReg[find(id)])
			}
		}
		rw(0, i.A, func(r ir.Reg) { i.A = r })
		rw(1, i.B, func(r ir.Reg) { i.B = r })
		if i.Mem != nil {
			rw(2, i.Mem.Base, func(r ir.Reg) { i.Mem.Base = r })
		}
		for k := range i.CallArgs {
			k := k
			rw(int32(3+k), i.CallArgs[k], func(r ir.Reg) { i.CallArgs[k] = r })
		}
	})
	return renamed
}
