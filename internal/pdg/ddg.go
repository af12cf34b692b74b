package pdg

import (
	"fmt"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/machine"
)

// DepKind classifies data dependence edges (§4.2).
type DepKind uint8

const (
	// Flow is a true dependence: a register defined by From is used by To.
	Flow DepKind = iota
	// Anti orders a use before a redefinition.
	Anti
	// Output orders two definitions of the same register.
	Output
	// MemOrder orders two memory-touching instructions that are not
	// proven to address different locations (memory disambiguation).
	MemOrder
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case MemOrder:
		return "mem"
	}
	return fmt.Sprintf("dep(%d)", uint8(k))
}

// DepEdge is one data dependence edge. Only Flow edges carry a non-zero
// Delay (the machine's pipeline constraint between producer and this
// particular consumer).
type DepEdge struct {
	From, To *ir.Instr
	Kind     DepKind
	Reg      ir.Reg // the register for Flow/Anti/Output; NoReg for MemOrder
	Delay    int
}

// DDG is the data dependence graph over the instructions of a region.
// Adjacency is dense: instruction IDs index Succs and Preds directly
// (IDs are unique within a function and bounded by ir.Func.NumInstrIDs).
type DDG struct {
	Succs [][]DepEdge // From.ID - base -> outgoing edges
	Preds [][]DepEdge // To.ID - base -> incoming edges
	Edges int

	// base is the smallest instruction ID the adjacency arrays cover.
	// Region graphs use base 0 so Succs/Preds are plain ID-indexed; the
	// single-block graphs of the local scheduler set base to the block's
	// smallest ID so a short block late in a function does not pay for
	// the whole function's ID space. Use SuccsOf/PredsOf when base may
	// be non-zero.
	base int

	pending []DepEdge // construction buffer, consumed by finalize
}

// Builder constructs DDGs and PDGs repeatedly, reusing every
// construction arena between builds: the adjacency headers and edge
// backing of the graph itself, the per-block def/use indexes, the
// register lookup map, and BuildWith's per-region flow analyses. A
// builder serves one goroutine at a time; the graph returned by a build
// aliases the builder's arenas and is valid until the next build on the
// same builder.
type Builder struct {
	ddg          DDG
	nsucc, npred []int32
	backing      []DepEdge
	bis          []*blockIndex
	byReg        map[uint64]int32 // packed reg -> index into current blockIndex
	touches      []instrTouch
	// edgeHigh is the most edges a build collected since the last
	// Release: the prefix of pending and half the prefix of backing
	// that may hold instruction pointers.
	edgeHigh int

	// BuildWith's per-region analyses.
	pdg              PDG
	forward, depView cfg.Subgraph
	exits            []int
	pdom             cfg.PostDomTree
	cdg              CDG
	byKey            []int
	equivAll         [][]int
	equivDom         [][]int
	equivBacking     []int

	// SpecCandidatesN's scratch.
	spec struct {
		seen                []int
		stamp               int
		frontier, next, out []int
	}
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{byReg: make(map[uint64]int32)}
}

// Release drops the builder's references into the function it last
// built for: the PDG's function, graph and region, the subgraph views'
// graph, and the instructions on the dependence edges, keeping every
// arena's capacity. A pooled builder then does not keep a finished
// function reachable. The cost is that of the edges built since the
// last Release.
func (b *Builder) Release() {
	b.pdg = PDG{}
	b.forward.G, b.depView.G = nil, nil
	clear(b.ddg.pending[:b.edgeHigh])
	clear(b.backing[:2*b.edgeHigh])
	b.edgeHigh = 0
}

// reset prepares the builder's graph for a fresh build covering numIDs
// instruction IDs starting at base.
func (b *Builder) reset(base, numIDs, edgeHint int) *DDG {
	d := &b.ddg
	if cap(d.Succs) < numIDs {
		d.Succs = make([][]DepEdge, numIDs)
		d.Preds = make([][]DepEdge, numIDs)
	} else {
		d.Succs = d.Succs[:numIDs]
		d.Preds = d.Preds[:numIDs]
		clear(d.Succs)
		clear(d.Preds)
	}
	d.base = base
	d.Edges = 0
	if cap(d.pending) < edgeHint {
		d.pending = make([]DepEdge, 0, edgeHint)
	} else {
		d.pending = d.pending[:0]
	}
	return d
}

// finalize builds the adjacency lists from the collected edges: one
// counting pass sizes every per-instruction list exactly, then two
// backing arrays (reused between builds) are carved into the lists.
// Emission order is preserved, and a steady-state graph costs no
// allocations at all.
func (b *Builder) finalize(d *DDG) {
	maxIdx := len(d.Succs) - 1
	for i := range d.pending {
		e := &d.pending[i]
		if idx := e.From.ID - d.base; idx > maxIdx {
			maxIdx = idx
		}
		if idx := e.To.ID - d.base; idx > maxIdx {
			maxIdx = idx
		}
	}
	if maxIdx+1 > len(d.Succs) {
		d.Succs = make([][]DepEdge, maxIdx+1)
		d.Preds = make([][]DepEdge, maxIdx+1)
	}
	if cap(b.nsucc) < maxIdx+1 {
		b.nsucc = make([]int32, maxIdx+1)
		b.npred = make([]int32, maxIdx+1)
	}
	nsucc, npred := b.nsucc[:maxIdx+1], b.npred[:maxIdx+1]
	clear(nsucc)
	clear(npred)
	for i := range d.pending {
		nsucc[d.pending[i].From.ID-d.base]++
		npred[d.pending[i].To.ID-d.base]++
	}
	b.edgeHigh = max(b.edgeHigh, len(d.pending))
	if cap(b.backing) < 2*len(d.pending) {
		b.backing = make([]DepEdge, 2*len(d.pending))
	}
	backing := b.backing[:2*len(d.pending)]
	succBacking, predBacking := backing[:len(d.pending)], backing[len(d.pending):]
	off := 0
	for idx, c := range nsucc {
		d.Succs[idx] = succBacking[off : off : off+int(c)]
		off += int(c)
	}
	off = 0
	for idx, c := range npred {
		d.Preds[idx] = predBacking[off : off : off+int(c)]
		off += int(c)
	}
	for _, e := range d.pending {
		d.Succs[e.From.ID-d.base] = append(d.Succs[e.From.ID-d.base], e)
		d.Preds[e.To.ID-d.base] = append(d.Preds[e.To.ID-d.base], e)
	}
	d.pending = d.pending[:0]
}

func (d *DDG) add(e DepEdge) {
	d.pending = append(d.pending, e)
	d.Edges++
}

// SuccsOf returns the outgoing edges of the instruction with the given
// ID; IDs allocated after the graph was built have none.
func (d *DDG) SuccsOf(id int) []DepEdge {
	idx := id - d.base
	if idx < 0 || idx >= len(d.Succs) {
		return nil
	}
	return d.Succs[idx]
}

// PredsOf returns the incoming edges of the instruction with the given
// ID; IDs allocated after the graph was built have none.
func (d *DDG) PredsOf(id int) []DepEdge {
	idx := id - d.base
	if idx < 0 || idx >= len(d.Preds) {
		return nil
	}
	return d.Preds[idx]
}

// MayAlias implements the paper's memory disambiguation: two memory
// references conflict unless proven to address different locations. We
// prove difference when both references name distinct known symbols, or
// when frame-local slots (constant offsets, no base) differ. Calls
// conflict with all global memory but never with frame slots — spill
// code stays freely schedulable around calls.
func MayAlias(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		// Frame slots are private to the function; a callee cannot
		// touch them.
		other := a.Mem
		if a.Op == ir.OpCall {
			other = b.Mem
		}
		return other == nil || !other.Frame
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
	// Same symbol with the same base register and distinct constant
	// displacements cannot overlap for word accesses — but only when
	// the base cannot change between the two references, which pairwise
	// construction cannot see. Stay conservative.
	return true
}

// regEntry is one instruction touching a register, with its role.
type regEntry struct {
	i        *ir.Instr
	def, use bool
}

// regTouches lists, in instruction order, a block's touches of one
// register. defEntries is the subset that (re)defines it, so pure reads
// pair only against writers and use-use pairs cost nothing.
type regTouches struct {
	entries    []regEntry
	defEntries []regEntry
}

// blockIndex is the def/use index of one basic block: for every register
// the instructions touching it in order, plus the memory-touching
// instructions. It lets dependence construction visit exactly the
// instruction pairs that interact instead of all pairs. regs is sorted by
// (class, number) with touches parallel to it, so the inter-block pass
// finds shared registers with a merge join instead of map lookups.
type blockIndex struct {
	regs    []ir.Reg
	touches []*regTouches
	mems    []*ir.Instr

	// slab holds the regTouches objects handed out by getTouch. Each is
	// allocated once and reused across builds (entries reset, pointer
	// stable), so steady-state indexing allocates nothing.
	slab     []*regTouches
	slabUsed int
}

func (bi *blockIndex) reset() {
	bi.regs = bi.regs[:0]
	bi.touches = bi.touches[:0]
	bi.mems = bi.mems[:0]
	bi.slabUsed = 0
}

func (bi *blockIndex) getTouch() *regTouches {
	if bi.slabUsed < len(bi.slab) {
		rt := bi.slab[bi.slabUsed]
		bi.slabUsed++
		rt.entries = rt.entries[:0]
		rt.defEntries = rt.defEntries[:0]
		return rt
	}
	rt := &regTouches{}
	bi.slab = append(bi.slab, rt)
	bi.slabUsed++
	return rt
}

// regLess orders registers by (class, number) for the merge join.
func regLess(a, b ir.Reg) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Num < b.Num
}

// sortRegs insertion-sorts the parallel regs/touches arrays; blocks touch
// few distinct registers, so this beats the sort package's indirection.
func (bi *blockIndex) sortRegs() {
	for i := 1; i < len(bi.regs); i++ {
		r, t := bi.regs[i], bi.touches[i]
		j := i - 1
		for j >= 0 && regLess(r, bi.regs[j]) {
			bi.regs[j+1], bi.touches[j+1] = bi.regs[j], bi.touches[j]
			j--
		}
		bi.regs[j+1], bi.touches[j+1] = r, t
	}
}

// strongestKind returns the single strongest ordering edge between an
// earlier toucher a and a later toucher b of one register. When several
// dependence kinds apply to the same (From, To, Reg) — e.g. a defines r
// and b both uses and redefines it — only the strongest is kept:
// Flow (carries the pipeline delay) over Anti over Output. The weaker
// edges order the same pair with zero delay, so dropping them cannot
// change any schedule; emitting them only bloats the graph.
func strongestKind(aDef, aUse, bDef, bUse bool) (DepKind, bool) {
	switch {
	case aDef && bUse:
		return Flow, true
	case aUse && bDef:
		return Anti, true
	case aDef && bDef:
		return Output, true
	}
	return 0, false
}

func (d *DDG) emit(a, b *ir.Instr, kind DepKind, r ir.Reg, mach *machine.Desc) {
	e := DepEdge{From: a, To: b, Kind: kind, Reg: r}
	if kind == Flow {
		e.Delay = mach.Delay(a, b, r)
	}
	d.add(e)
}

// instrTouch is the per-instruction operand summary: one entry per
// distinct register, in operand order.
type instrTouch struct {
	r        ir.Reg
	def, use bool
}

// indexBlock builds the def/use index of blk into bi. When d is non-nil
// it also emits the block's intra-block dependence edges along the way:
// each new instruction is paired against the earlier touches of its
// registers (all of them when it writes, writers only when it merely
// reads), and against earlier memory references.
func (b *Builder) indexBlock(bi *blockIndex, blk *ir.Block, mach *machine.Desc, d *DDG) {
	bi.reset()
	// Registers are found via a packed-key map during the single walk
	// (integer keys hit the runtime's fast map path); the map is consulted
	// only during the walk, the sorted parallel arrays serve afterwards.
	clear(b.byReg)
	byReg := b.byReg
	packReg := func(r ir.Reg) uint64 { return uint64(r.Class)<<32 | uint64(uint32(r.Num)) }
	var regBuf [8]ir.Reg
	touches := b.touches
	for _, ins := range blk.Instrs {
		touches = touches[:0]
		for _, r := range ins.Uses(regBuf[:0]) {
			merged := false
			for k := range touches {
				if touches[k].r == r {
					touches[k].use = true
					merged = true
					break
				}
			}
			if !merged {
				touches = append(touches, instrTouch{r: r, use: true})
			}
		}
		for _, r := range ins.Defs(regBuf[:0]) {
			merged := false
			for k := range touches {
				if touches[k].r == r {
					touches[k].def = true
					merged = true
					break
				}
			}
			if !merged {
				touches = append(touches, instrTouch{r: r, def: true})
			}
		}
		for _, t := range touches {
			key := packReg(t.r)
			var rt *regTouches
			if ti, ok := byReg[key]; ok {
				rt = bi.touches[ti]
			} else {
				rt = bi.getTouch()
				byReg[key] = int32(len(bi.touches))
				bi.regs = append(bi.regs, t.r)
				bi.touches = append(bi.touches, rt)
			}
			if d != nil {
				if t.def {
					// A writer interacts with every earlier toucher.
					for _, ea := range rt.entries {
						if kind, ok := strongestKind(ea.def, ea.use, t.def, t.use); ok {
							d.emit(ea.i, ins, kind, t.r, mach)
						}
					}
				} else {
					// A pure read depends only on earlier writers.
					for _, ea := range rt.defEntries {
						d.emit(ea.i, ins, Flow, t.r, mach)
					}
				}
			}
			entry := regEntry{i: ins, def: t.def, use: t.use}
			rt.entries = append(rt.entries, entry)
			if t.def {
				rt.defEntries = append(rt.defEntries, entry)
			}
		}
		if ins.Op.TouchesMemory() {
			if d != nil {
				for _, m := range bi.mems {
					if m.Op.IsLoad() && ins.Op.IsLoad() {
						continue // load-load pairs never conflict
					}
					if MayAlias(m, ins) {
						d.add(DepEdge{From: m, To: ins, Kind: MemOrder, Reg: ir.NoReg})
					}
				}
			}
			bi.mems = append(bi.mems, ins)
		}
	}
	b.touches = touches[:0]
	bi.sortRegs()
}

// interBlockEdges emits the dependence edges from block index a to a
// reachable later block index b: per shared register, writers of a
// against every toucher of b and pure reads of a against writers of b,
// plus the memory ordering pairs.
func interBlockEdges(a, b *blockIndex, mach *machine.Desc, d *DDG) {
	// Merge join over the two sorted register summaries: shared registers
	// are found in one linear pass with no hashing.
	for i, j := 0, 0; i < len(a.regs) && j < len(b.regs); {
		switch {
		case regLess(a.regs[i], b.regs[j]):
			i++
			continue
		case regLess(b.regs[j], a.regs[i]):
			j++
			continue
		}
		r, ra, rb := a.regs[i], a.touches[i], b.touches[j]
		i++
		j++
		for _, ea := range ra.entries {
			if ea.def {
				for _, eb := range rb.entries {
					kind, _ := strongestKind(ea.def, ea.use, eb.def, eb.use)
					d.emit(ea.i, eb.i, kind, r, mach)
				}
			} else {
				for _, eb := range rb.defEntries {
					d.emit(ea.i, eb.i, Anti, r, mach)
				}
			}
		}
	}
	for _, x := range a.mems {
		for _, y := range b.mems {
			if x.Op.IsLoad() && y.Op.IsLoad() {
				continue
			}
			if MayAlias(x, y) {
				d.add(DepEdge{From: x, To: y, Kind: MemOrder, Reg: ir.NoReg})
			}
		}
	}
}

// BuildDDG computes the data dependence graph over the given blocks of f:
// intra-block dependences in instruction order, and inter-block
// dependences for every pair (A, B) with B reachable from A in the
// forward subgraph (§4.2 computes exactly these pairs). Construction is
// indexed by register rather than all-pairs: each block is walked once to
// build per-register def/use tables and the memory reference chain, and
// only instructions touching a common register (or memory) are paired,
// so the work is proportional to the edges produced.
func BuildDDG(f *ir.Func, blocks []int, reach *cfg.Reach, mach *machine.Desc) *DDG {
	return NewBuilder().BuildDDG(f, blocks, reach, mach)
}

// BuildDDG is the arena-backed form of the package-level BuildDDG: the
// returned graph aliases the builder's buffers and is valid until the
// next build on b.
func (b *Builder) BuildDDG(f *ir.Func, blocks []int, reach *cfg.Reach, mach *machine.Desc) *DDG {
	n := 0
	for _, bi := range blocks {
		n += len(f.Blocks[bi].Instrs)
	}
	d := b.reset(0, f.NumInstrIDs(), 4*n)
	for len(b.bis) < len(blocks) {
		b.bis = append(b.bis, &blockIndex{})
	}
	for k, bi := range blocks {
		b.indexBlock(b.bis[k], f.Blocks[bi], mach, d)
	}
	for i, ai := range blocks {
		for j, bj := range blocks {
			if ai == bj || !reach.Reaches(ai, bj) {
				continue
			}
			interBlockEdges(b.bis[i], b.bis[j], mach, d)
		}
	}
	b.finalize(d)
	return d
}

// BuildBlockDDG computes the intra-block dependence graph of a single
// block, used by the basic block scheduler.
func BuildBlockDDG(blk *ir.Block, mach *machine.Desc) *DDG {
	return NewBuilder().BuildBlockDDG(blk, mach)
}

// BuildBlockDDG is the arena-backed form of the package-level
// BuildBlockDDG.
func (b *Builder) BuildBlockDDG(blk *ir.Block, mach *machine.Desc) *DDG {
	lo, hi := instrIDRange(blk)
	d := b.reset(lo, hi-lo+1, 4*len(blk.Instrs))
	if len(b.bis) == 0 {
		b.bis = append(b.bis, &blockIndex{})
	}
	b.indexBlock(b.bis[0], blk, mach, d)
	b.finalize(d)
	return d
}

// instrIDRange returns the smallest and largest instruction ID in blk
// (0, -1 for an empty block).
func instrIDRange(blk *ir.Block) (lo, hi int) {
	lo, hi = 0, -1
	for k, i := range blk.Instrs {
		if k == 0 {
			lo, hi = i.ID, i.ID
			continue
		}
		if i.ID < lo {
			lo = i.ID
		}
		if i.ID > hi {
			hi = i.ID
		}
	}
	return lo, hi
}

// HeightVals holds the two §5.2 priority functions of one block's
// instructions, stored relative to the block's smallest instruction ID
// so the arrays cover only the block's ID range. D and CP must only be
// asked about instructions of the block they were computed for.
type HeightVals struct {
	base  int
	d, cp []int
	inBlk []bool
}

// D returns the delay heuristic of the instruction with the given ID.
func (h *HeightVals) D(id int) int { return h.d[id-h.base] }

// CP returns the critical-path height of the instruction with the given
// ID.
func (h *HeightVals) CP(id int) int { return h.cp[id-h.base] }

// Heights computes the paper's two priority functions over the
// instructions of one block, considering only dependence successors
// within the same block (§5.2):
//
//	D(I)  = max over successors J of D(J) + d(I,J)            (delay heuristic)
//	CP(I) = max over successors J of CP(J) + d(I,J), + E(I)   (critical path)
func Heights(blk *ir.Block, ddg *DDG, mach *machine.Desc) HeightVals {
	var h HeightVals
	HeightsInto(&h, blk, ddg, mach)
	return h
}

// HeightsInto is Heights computing into h, reusing its arrays when they
// are large enough. The scheduler keeps one HeightVals per block in its
// per-worker scratch, so steady-state height computation allocates
// nothing.
func HeightsInto(h *HeightVals, blk *ir.Block, ddg *DDG, mach *machine.Desc) {
	lo, hi := instrIDRange(blk)
	n := hi - lo + 1
	if n < 0 {
		n = 0
	}
	h.base = lo
	if cap(h.d) < n {
		h.d = make([]int, n)
		h.cp = make([]int, n)
		h.inBlk = make([]bool, n)
	} else {
		h.d = h.d[:n]
		h.cp = h.cp[:n]
		h.inBlk = h.inBlk[:n]
		clear(h.d)
		clear(h.cp)
		clear(h.inBlk)
	}
	for _, i := range blk.Instrs {
		h.inBlk[i.ID-lo] = true
	}
	// Visit in reverse order: successors of I within a block always come
	// after I, so a reverse sweep visits successors first.
	for k := len(blk.Instrs) - 1; k >= 0; k-- {
		i := blk.Instrs[k]
		dv, cp := 0, 0
		for _, e := range ddg.SuccsOf(i.ID) {
			idx := e.To.ID - lo
			if idx < 0 || idx >= n || !h.inBlk[idx] {
				continue
			}
			if v := h.d[idx] + e.Delay; v > dv {
				dv = v
			}
			if v := h.cp[idx] + e.Delay; v > cp {
				cp = v
			}
		}
		h.d[i.ID-lo] = dv
		h.cp[i.ID-lo] = cp + mach.Exec(i.Op)
	}
}
