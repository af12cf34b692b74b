// Package regalloc maps the unbounded symbolic registers the scheduler
// works on to a finite machine register file, the phase the paper places
// directly after global scheduling (§2: "subsequently, during the
// register allocation phase of the compiler, the symbolic registers are
// mapped onto the real machine registers, using one of the standard
// (coloring) algorithms").
//
// The implementation is a Chaitin/Briggs-style graph colouring allocator:
// instruction-level liveness builds an interference graph per register
// class; simplify-and-select colours it optimistically; uncolourable
// nodes spill to frame-local slots (store after each definition, reload
// before each use) and the whole process repeats on the rewritten code.
package regalloc

import (
	"fmt"
	"sort"

	"gsched/internal/cfg"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
)

// Limits configures the target register file.
type Limits struct {
	GPRs int // general purpose registers (RS/6000: 32)
	CRs  int // condition register fields (RS/6000: 8)
	FPRs int // floating point registers (RS/6000: 32)
}

// RS6K returns the RISC System/6000 register file limits.
func RS6K() Limits { return Limits{GPRs: 32, CRs: 8, FPRs: 32} }

func (l Limits) k(c ir.RegClass) int {
	switch c {
	case ir.ClassGPR:
		return l.GPRs
	case ir.ClassFPR:
		if l.FPRs == 0 {
			return 32
		}
		return l.FPRs
	}
	return l.CRs
}

// Stats reports an allocation.
type Stats struct {
	Rounds   int
	Spilled  int // symbolic registers sent to frame slots
	UsedGPRs int
	UsedCRs  int
}

// allocateFunc allocates registers for one function in place. Condition
// registers cannot be spilled (the machine has no CR loads); if the CR
// pressure exceeds the limit an error is returned — in practice renaming
// never produces more than a handful of simultaneously-live CRs.
func allocateFunc(f *ir.Func, lim Limits) (Stats, error) {
	var st Stats
	noSpill := make(map[ir.Reg]bool) // reload/store temps: spilling them cannot help
	for round := 0; ; round++ {
		st.Rounds = round + 1
		if round > 40 {
			return st, fmt.Errorf("regalloc: %s: did not converge", f.Name)
		}
		spilled, used, err := tryColor(f, lim, noSpill)
		if err != nil {
			return st, err
		}
		if len(spilled) == 0 {
			st.UsedGPRs, st.UsedCRs = used[ir.ClassGPR], used[ir.ClassCR]
			return st, nil
		}
		st.Spilled += len(spilled)
		for _, t := range spillRegs(f, spilled) {
			noSpill[t] = true
		}
	}
}

// Program allocates every function.
func Program(p *ir.Program, lim Limits) (Stats, error) {
	var st Stats
	for _, f := range p.Funcs {
		s, err := allocateFunc(f, lim)
		if err != nil {
			return st, err
		}
		st.Spilled += s.Spilled
		if s.Rounds > st.Rounds {
			st.Rounds = s.Rounds
		}
		if s.UsedGPRs > st.UsedGPRs {
			st.UsedGPRs = s.UsedGPRs
		}
		if s.UsedCRs > st.UsedCRs {
			st.UsedCRs = s.UsedCRs
		}
	}
	return st, nil
}

// node identifies a symbolic register in the interference graph.
type node struct {
	reg     ir.Reg
	adj     map[ir.Reg]bool
	uses    int
	removed bool
}

// tryColor builds the interference graph and colours it. It returns the
// registers chosen for spilling (empty on success) and, on success, the
// number of colours used per class; the function is rewritten in place
// on success.
func tryColor(f *ir.Func, lim Limits, noSpill map[ir.Reg]bool) ([]ir.Reg, map[ir.RegClass]int, error) {
	g := cfg.Build(f)
	lv := dataflow.Compute(f, g)

	nodes := make(map[ir.Reg]*node)
	get := func(r ir.Reg) *node {
		n := nodes[r]
		if n == nil {
			n = &node{reg: r, adj: make(map[ir.Reg]bool)}
			nodes[r] = n
		}
		return n
	}
	interfere := func(a, b ir.Reg) {
		if a == b || a.Class != b.Class {
			return
		}
		get(a).adj[b] = true
		get(b).adj[a] = true
	}

	// The function entry defines every parameter simultaneously, so
	// parameters interfere pairwise and with anything live into the
	// entry block (registers read before written).
	entryLive := lv.In[0].Copy()
	for _, p := range f.Params {
		get(p)
		entryLive.Add(p)
	}
	var entryRegs []ir.Reg
	entryLive.ForEach(func(r ir.Reg) { entryRegs = append(entryRegs, r) })
	for x := 0; x < len(entryRegs); x++ {
		for y := x + 1; y < len(entryRegs); y++ {
			interfere(entryRegs[x], entryRegs[y])
		}
	}

	// Backwards walk per block: a definition interferes with everything
	// live across it. Copy sources are exempted from interference with
	// the copy's destination (classic Chaitin refinement: they may share
	// a register when nothing else separates them).
	var defs [2]ir.Reg
	var uses [8]ir.Reg
	for bi, b := range f.Blocks {
		live := lv.Out[bi].Copy()
		for k := len(b.Instrs) - 1; k >= 0; k-- {
			i := b.Instrs[k]
			ds := i.Defs(defs[:0])
			for _, d := range ds {
				get(d)
				live.ForEach(func(r ir.Reg) {
					if (i.Op == ir.OpLR || i.Op == ir.OpFMove) && r == i.A {
						return
					}
					interfere(d, r)
				})
			}
			if len(ds) == 2 {
				// Both results of an LU/STU are written together.
				interfere(ds[0], ds[1])
			}
			for _, d := range ds {
				live.Del(d)
			}
			for _, u := range i.Uses(uses[:0]) {
				get(u).uses++
				live.Add(u)
			}
		}
	}

	// Simplify: repeatedly remove a node with degree < k; otherwise
	// optimistically push the worst spill candidate.
	type entry struct {
		n          *node
		optimistic bool
	}
	var stack []entry
	degree := func(n *node) int {
		d := 0
		for r := range n.adj {
			if !nodes[r].removed {
				d++
			}
		}
		return d
	}
	ordered := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].reg, ordered[j].reg
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Num < b.Num
	})
	remaining := len(ordered)
	for remaining > 0 {
		progressed := false
		for _, n := range ordered {
			if n.removed {
				continue
			}
			if degree(n) < lim.k(n.reg.Class) {
				n.removed = true
				remaining--
				stack = append(stack, entry{n, false})
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Spill candidate: highest degree / fewest uses ratio, never a
		// temporary a previous spill introduced (re-spilling those
		// cannot reduce pressure).
		var worst, worstAny *node
		var worstScore, worstAnyScore float64
		for _, n := range ordered {
			if n.removed {
				continue
			}
			score := float64(degree(n)+1) / float64(n.uses+1)
			if worstAny == nil || score > worstAnyScore {
				worstAny, worstAnyScore = n, score
			}
			if noSpill[n.reg] {
				continue
			}
			if worst == nil || score > worstScore {
				worst, worstScore = n, score
			}
		}
		if worst == nil {
			worst = worstAny // only temps remain: push one optimistically
		}
		worst.removed = true
		remaining--
		stack = append(stack, entry{worst, true})
	}

	// Select: pop and colour.
	color := make(map[ir.Reg]int32)
	var spilled []ir.Reg
	used := map[ir.RegClass]int{}
	for k := len(stack) - 1; k >= 0; k-- {
		n := stack[k].n
		taken := make(map[int32]bool)
		for r := range n.adj {
			if c, ok := color[r]; ok {
				taken[c] = true
			}
		}
		limit := int32(lim.k(n.reg.Class))
		var c int32
		for ; c < limit; c++ {
			if !taken[c] {
				break
			}
		}
		if c == limit {
			if n.reg.Class == ir.ClassCR {
				return nil, nil, fmt.Errorf("regalloc: %s: out of condition registers (%d live)", f.Name, limit)
			}
			if noSpill[n.reg] {
				return nil, nil, fmt.Errorf("regalloc: %s: %d registers cannot satisfy a single instruction's operands", f.Name, limit)
			}
			spilled = append(spilled, n.reg)
			continue
		}
		color[n.reg] = c
		if int(c)+1 > used[n.reg.Class] {
			used[n.reg.Class] = int(c) + 1
		}
	}
	if len(spilled) > 0 {
		return spilled, nil, nil
	}

	// Rewrite every register to its colour.
	rw := func(r ir.Reg) ir.Reg {
		if !r.Valid() {
			return r
		}
		return ir.Reg{Class: r.Class, Num: color[r]}
	}
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		i.Def = rw(i.Def)
		i.Def2 = rw(i.Def2)
		i.A = rw(i.A)
		i.B = rw(i.B)
		if i.Mem != nil {
			i.Mem.Base = rw(i.Mem.Base)
		}
		for k := range i.CallArgs {
			i.CallArgs[k] = rw(i.CallArgs[k])
		}
	})
	for k := range f.Params {
		f.Params[k] = rw(f.Params[k])
	}
	return nil, used, nil
}

// spillRegs rewrites the function so each spilled register lives in a
// frame slot: every definition stores to the slot through a fresh
// temporary, every use reloads into a fresh temporary. It returns the
// temporaries it introduced.
func spillRegs(f *ir.Func, regs []ir.Reg) []ir.Reg {
	var temps []ir.Reg
	slot := make(map[ir.Reg]int64)
	for _, r := range regs {
		slot[r] = f.FrameWords * ir.WordSize
		f.FrameWords++
	}
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, i := range b.Instrs {
			// Reload before uses.
			reloaded := make(map[ir.Reg]ir.Reg)
			reload := func(r ir.Reg) ir.Reg {
				off, isSpilled := slot[r]
				if !isSpilled {
					return r
				}
				if t, ok := reloaded[r]; ok {
					return t
				}
				t := f.NewReg(r.Class)
				temps = append(temps, t)
				op := ir.OpLoad
				if r.Class == ir.ClassFPR {
					op = ir.OpFLoad
				}
				ld := f.NewInstr(op)
				ld.Def = t
				ld.Mem = &ir.Mem{Frame: true, Off: off, Base: ir.NoReg}
				out = append(out, ld)
				reloaded[r] = t
				return t
			}
			i.A = reload(i.A)
			i.B = reload(i.B)
			if i.Mem != nil {
				i.Mem.Base = reload(i.Mem.Base)
			}
			for k := range i.CallArgs {
				i.CallArgs[k] = reload(i.CallArgs[k])
			}
			// Rewrite definitions to temporaries and store afterwards.
			var stores []*ir.Instr
			redef := func(get ir.Reg, put func(ir.Reg)) {
				off, isSpilled := slot[get]
				if !isSpilled {
					return
				}
				t := f.NewReg(get.Class)
				temps = append(temps, t)
				put(t)
				op := ir.OpStore
				if get.Class == ir.ClassFPR {
					op = ir.OpFStore
				}
				stI := f.NewInstr(op)
				stI.A = t
				stI.Mem = &ir.Mem{Frame: true, Off: off, Base: ir.NoReg}
				stores = append(stores, stI)
			}
			if i.Def.Valid() {
				redef(i.Def, func(r ir.Reg) { i.Def = r })
			}
			if i.Def2.Valid() {
				redef(i.Def2, func(r ir.Reg) { i.Def2 = r })
			}
			out = append(out, i)
			out = append(out, stores...)
		}
		b.Instrs = out
	}
	// Spilled parameters need an entry store from the incoming register.
	entryStores := 0
	for _, p := range f.Params {
		if off, ok := slot[p]; ok {
			stI := f.NewInstr(ir.OpStore)
			stI.A = p
			stI.Mem = &ir.Mem{Frame: true, Off: off, Base: ir.NoReg}
			b := f.Blocks[0]
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[entryStores+1:], b.Instrs[entryStores:])
			b.Instrs[entryStores] = stI
			entryStores++
		}
	}
	return temps
}
