// Package opt implements the machine-independent cleanups the paper's
// base compiler (the IBM XL optimizer) performs before scheduling: local
// copy propagation, local constant propagation and folding, and global
// dead code elimination. The mini-C code generator deliberately emits
// naive code (fresh temporaries, explicit copies); this pass brings it to
// the quality a scheduler would actually see.
package opt

import (
	"sync"

	"gsched/internal/cfg"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
)

// Stats reports what the optimizer removed or rewrote.
type Stats struct {
	CopiesPropagated int
	ConstsFolded     int
	InstrsRemoved    int
	BlocksRemoved    int
	Passes           int
}

// optimizeFunc optimizes one function to a fixed point (bounded). The flow
// graph is built once and rebuilt only after removeUnreachable drops a
// block: copy propagation and constant folding rewrite operands, and
// dead-code elimination never removes a terminator, so neither changes
// an edge. One liveness analyzer serves every pass.
func optimizeFunc(f *ir.Func) Stats {
	var st Stats
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	g := &s.g
	g.Refill(f)
	for pass := 0; pass < 10; pass++ {
		st.Passes++
		changed := false
		for _, b := range f.Blocks {
			c1 := s.propagateLocal(b)
			st.CopiesPropagated += c1.CopiesPropagated
			st.ConstsFolded += c1.ConstsFolded
			if c1.CopiesPropagated+c1.ConstsFolded > 0 {
				changed = true
			}
		}
		removed := s.eliminateDead(f, g)
		st.InstrsRemoved += removed
		if removed > 0 {
			changed = true
		}
		dropped := removeUnreachable(f, g)
		st.BlocksRemoved += dropped
		if dropped > 0 {
			changed = true
			g.Refill(f)
		}
		if !changed {
			break
		}
	}
	return st
}

// scratch is the state optimizeFunc reuses across blocks and passes, and
// across functions through scratchPool: each call owns one for its
// duration.
type scratch struct {
	g       cfg.Graph
	copyOf  map[ir.Reg]ir.Reg // r -> original source, within one block
	constOf map[ir.Reg]int64  // r -> known value, within one block
	live    dataflow.Analyzer
	out     dataflow.RegSet // a block's live set during its backward walk
	keep    []bool
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{copyOf: make(map[ir.Reg]ir.Reg), constOf: make(map[ir.Reg]int64)}
}}

// removeUnreachable drops blocks no path from the entry reaches in g,
// the current flow graph of f. The last remaining block must still end
// the function properly, which reachability guarantees: an unreachable
// block cannot be a fallthrough target of a reachable one.
func removeUnreachable(f *ir.Func, g *cfg.Graph) int {
	reach := g.Reachable(0)
	kept := f.Blocks[:0]
	dropped := 0
	for i, b := range f.Blocks {
		if reach[i] {
			kept = append(kept, b)
		} else {
			dropped++
		}
	}
	if dropped > 0 {
		f.Blocks = kept
		f.ReindexBlocks()
	}
	return dropped
}

// Program optimizes every function.
func Program(p *ir.Program) Stats {
	var st Stats
	for _, f := range p.Funcs {
		s := optimizeFunc(f)
		st.CopiesPropagated += s.CopiesPropagated
		st.ConstsFolded += s.ConstsFolded
		st.InstrsRemoved += s.InstrsRemoved
		if s.Passes > st.Passes {
			st.Passes = s.Passes
		}
	}
	return st
}

// propagateLocal walks one block tracking register copies and constants,
// rewriting uses and folding constant ALU operations in place.
func (s *scratch) propagateLocal(b *ir.Block) Stats {
	var st Stats
	copyOf, constOf := s.copyOf, s.constOf
	clear(copyOf)
	clear(constOf)

	kill := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		delete(copyOf, r)
		delete(constOf, r)
		// Any copy whose SOURCE is redefined is stale.
		for d, s := range copyOf {
			if s == r {
				delete(copyOf, d)
			}
		}
	}
	resolve := func(r ir.Reg) ir.Reg {
		if s, ok := copyOf[r]; ok {
			return s
		}
		return r
	}

	for _, i := range b.Instrs {
		// Rewrite uses through known copies.
		rw := func(get ir.Reg, put func(ir.Reg)) {
			if !get.Valid() {
				return
			}
			if s := resolve(get); s != get {
				put(s)
				st.CopiesPropagated++
			}
		}
		rw(i.A, func(r ir.Reg) { i.A = r })
		rw(i.B, func(r ir.Reg) { i.B = r })
		if i.Mem != nil {
			rw(i.Mem.Base, func(r ir.Reg) { i.Mem.Base = r })
		}
		for k := range i.CallArgs {
			k := k
			rw(i.CallArgs[k], func(r ir.Reg) { i.CallArgs[k] = r })
		}

		// Fold constants.
		if folded := foldConst(i, constOf); folded {
			st.ConstsFolded++
		}

		// Update the tracked state with this instruction's effects.
		var defs [2]ir.Reg
		for _, d := range i.Defs(defs[:0]) {
			kill(d)
		}
		switch i.Op {
		case ir.OpLR, ir.OpFMove:
			if i.Def != i.A {
				copyOf[i.Def] = resolve(i.A)
				if v, ok := constOf[resolve(i.A)]; ok {
					constOf[i.Def] = v
				}
			}
		case ir.OpLI:
			constOf[i.Def] = i.Imm
		}
	}
	return st
}

// foldConst rewrites i in place when its operands are known constants:
// reg-reg ALU with a constant right operand becomes the immediate form,
// fully constant operations become LI. Returns whether a rewrite
// happened. Division and remainder are never folded into forms that
// would hide a divide-by-zero (the original would have trapped too, but
// folding 0/0 at compile time must not succeed), and a compare's
// result is a condition, which LI cannot write.
func foldConst(i *ir.Instr, constOf map[ir.Reg]int64) bool {
	val := func(r ir.Reg) (int64, bool) {
		if !r.Valid() {
			return 0, false
		}
		v, ok := constOf[r]
		return v, ok
	}
	if i.Op == ir.OpLoad || i.Op == ir.OpStore {
		// Fold a constant base register into the displacement; keeps
		// addresses out of registers for symbol-addressed accesses.
		if i.Mem != nil && i.Mem.Base.Valid() {
			if v, ok := val(i.Mem.Base); ok {
				i.Mem.Off += v
				i.Mem.Base = ir.NoReg
				return true
			}
		}
		return false
	}
	fm := i.Op.Form()
	if fm.Eval == nil || fm.Traps {
		return false
	}
	av, aok := val(i.A)
	bv, bok := i.Imm, true
	if fm.RegB {
		bv, bok = val(i.B)
	}
	if aok && bok && !i.Op.IsCompare() {
		i.Op, i.Imm, i.A, i.B = ir.OpLI, fm.Eval(av, bv), ir.NoReg, ir.NoReg
		return true
	}
	if !fm.RegB {
		return false
	}
	if op, imm, ok := fm.ImmForm(bv); ok && bok {
		i.Op, i.Imm, i.B = op, imm, ir.NoReg
		return true
	}
	// A commutative operation with a constant LEFT operand.
	if op, imm, ok := fm.ImmForm(av); ok && aok && fm.Commutes {
		i.Op, i.Imm, i.A, i.B = op, imm, i.B, ir.NoReg
		return true
	}
	return false
}

// eliminateDead removes instructions whose results are never used and
// which have no side effects. A backwards walk per block against the
// global live-out sets, computed over g.
func (s *scratch) eliminateDead(f *ir.Func, g *cfg.Graph) int {
	lv := s.live.Compute(f, g)
	removed := 0
	for bi, b := range f.Blocks {
		live := &s.out
		live.Set(lv.Out[bi])
		// Walk backwards; keep side-effecting instructions.
		keep := s.keep[:0]
		for k := len(b.Instrs) - 1; k >= 0; k-- {
			i := b.Instrs[k]
			sideEffect := i.Op.IsStore() || i.Op == ir.OpCall || i.Op.IsTerminator() || i.Op == ir.OpNop
			var defs [2]ir.Reg
			needed := sideEffect
			for _, d := range i.Defs(defs[:0]) {
				if live.Has(d) {
					needed = true
				}
			}
			keep = append(keep, needed)
			if !needed {
				removed++
				continue
			}
			for _, d := range i.Defs(defs[:0]) {
				live.Del(d)
			}
			var uses [6]ir.Reg
			for _, u := range i.Uses(uses[:0]) {
				live.Add(u)
			}
		}
		s.keep = keep
		// keep is in reverse order; compact the survivors in place.
		kept := b.Instrs[:0]
		for k, i := range b.Instrs {
			if keep[len(keep)-1-k] {
				kept = append(kept, i)
			}
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
	return removed
}
