// Package dataflow implements the live-variable analysis the speculative
// scheduler depends on (§5.3 of the paper: an instruction must not move
// speculatively into a block if it defines a register live on exit from
// that block), plus the register set machinery shared with renaming.
package dataflow

import (
	"math/bits"

	"gsched/internal/cfg"
	"gsched/internal/ir"
)

// RegSet is a dense set of symbolic registers, one bitset per class.
type RegSet struct {
	bits [ir.NumClasses][]uint64
}

// NewRegSet returns a set sized for the registers of f.
func NewRegSet(f *ir.Func) *RegSet {
	s := &RegSet{}
	for c := 0; c < ir.NumClasses; c++ {
		n := f.NumRegs(ir.RegClass(c))
		s.bits[c] = make([]uint64, (n+63)/64)
	}
	return s
}

func (s *RegSet) ensure(r ir.Reg) {
	w := int(r.Num)/64 + 1
	for len(s.bits[r.Class]) < w {
		s.bits[r.Class] = append(s.bits[r.Class], 0)
	}
}

// Add inserts r.
func (s *RegSet) Add(r ir.Reg) {
	if !r.Valid() {
		return
	}
	s.ensure(r)
	s.bits[r.Class][r.Num/64] |= 1 << (uint(r.Num) % 64)
}

// Del removes r.
func (s *RegSet) Del(r ir.Reg) {
	if !r.Valid() {
		return
	}
	w := int(r.Num) / 64
	if w < len(s.bits[r.Class]) {
		s.bits[r.Class][w] &^= 1 << (uint(r.Num) % 64)
	}
}

// Has reports whether r is in the set.
func (s *RegSet) Has(r ir.Reg) bool {
	if !r.Valid() {
		return false
	}
	w := int(r.Num) / 64
	return w < len(s.bits[r.Class]) && s.bits[r.Class][w]&(1<<(uint(r.Num)%64)) != 0
}

// UnionInto merges o into s and reports whether s changed.
func (s *RegSet) UnionInto(o *RegSet) bool {
	changed := false
	for c := 0; c < ir.NumClasses; c++ {
		for len(s.bits[c]) < len(o.bits[c]) {
			s.bits[c] = append(s.bits[c], 0)
		}
		for w, v := range o.bits[c] {
			if s.bits[c][w]|v != s.bits[c][w] {
				s.bits[c][w] |= v
				changed = true
			}
		}
	}
	return changed
}

// Intersects reports whether s and o share a member.
func (s *RegSet) Intersects(o *RegSet) bool {
	for c := 0; c < ir.NumClasses; c++ {
		a, b := s.bits[c], o.bits[c]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for w := 0; w < n; w++ {
			if a[w]&b[w] != 0 {
				return true
			}
		}
	}
	return false
}

// Copy returns an independent copy of s.
func (s *RegSet) Copy() *RegSet {
	c := &RegSet{}
	for k := 0; k < ir.NumClasses; k++ {
		c.bits[k] = append([]uint64(nil), s.bits[k]...)
	}
	return c
}

// Set makes s a copy of o, reusing s's storage.
func (s *RegSet) Set(o *RegSet) {
	for k := 0; k < ir.NumClasses; k++ {
		s.bits[k] = append(s.bits[k][:0], o.bits[k]...)
	}
}

// Clear empties the set in place.
func (s *RegSet) Clear() {
	for c := 0; c < ir.NumClasses; c++ {
		for w := range s.bits[c] {
			s.bits[c][w] = 0
		}
	}
}

// ForEach calls fn for every member.
func (s *RegSet) ForEach(fn func(ir.Reg)) {
	for c := 0; c < ir.NumClasses; c++ {
		for w, v := range s.bits[c] {
			for ; v != 0; v &= v - 1 {
				fn(ir.Reg{Class: ir.RegClass(c), Num: int32(w*64 + bits.TrailingZeros64(v))})
			}
		}
	}
}

// Count returns the number of members.
func (s *RegSet) Count() int {
	n := 0
	for c := 0; c < ir.NumClasses; c++ {
		for _, v := range s.bits[c] {
			n += bits.OnesCount64(v)
		}
	}
	return n
}

// Liveness holds per-block live-in and live-out register sets.
type Liveness struct {
	In, Out []*RegSet
}

// LiveOnExit reports whether r is live on exit from block b.
func (lv *Liveness) LiveOnExit(b int, r ir.Reg) bool { return lv.Out[b].Has(r) }

// Compute runs the classic backward live-variable analysis over f using
// the flow graph g.
func Compute(f *ir.Func, g *cfg.Graph) *Liveness {
	return new(Analyzer).Compute(f, g)
}

// Analyzer computes liveness repeatedly over one function, reusing all
// of its buffers between runs, and keeps the result exact under code
// motion without solving it again (Update). The steady state allocates
// nothing: all 4n per-block sets (in, out, use, def) are carved out of a
// single backing array, and both the fixed point and Update change sets
// word-wise in place.
//
// The returned Liveness aliases the analyzer's buffers: it is valid
// until the next ComputeScoped or Update call on the same analyzer.
type Analyzer struct {
	// The problem of the last ComputeScoped, which Update re-solves.
	f      *ir.Func
	g      *cfg.Graph
	member []bool
	base   *Liveness

	sets    []RegSet // in, out, use, def of block i at 4i..4i+3
	backing []uint64
	words   [ir.NumClasses]int // width of every member row, per class
	lv      Liveness
	work    []int
	inWork  []bool

	// Update scratch: a dirty block's use and def rows before its
	// rescan, and the registers whose use or def bit changed.
	old     []uint64
	changed RegSet
}

// Compute runs the analysis over the whole of f, reusing the analyzer's
// buffers.
func (a *Analyzer) Compute(f *ir.Func, g *cfg.Graph) *Liveness {
	return a.ComputeScoped(f, g, nil, nil)
}

// ComputeScoped runs the analysis over only the member blocks of f
// (every block when member is nil), treating every non-member block as
// frozen: a member's successor edge into a non-member block contributes
// base.In of that block, and the returned Liveness aliases base's sets
// for every non-member index, so queries about blocks outside the scope
// see the frozen baseline.
//
// The scope serves region-parallel scheduling: when disjoint subtrees
// of the region tree are scheduled concurrently, each worker analyses
// its own blocks only, against a baseline computed once before any
// motion. Scheduling only ever queries liveness of registers touched by
// its own region's instructions, and legal motions inside other
// (register-disjoint) scopes cannot change where such a register is
// live, so the frozen boundary values stay exact for every query the
// scheduler makes. base must outlive the returned Liveness and must not
// be recomputed while it is in use.
func (a *Analyzer) ComputeScoped(f *ir.Func, g *cfg.Graph, member []bool, base *Liveness) *Liveness {
	a.f, a.g, a.member, a.base = f, g, member, base
	n := len(f.Blocks)
	perSet := 0
	for c := 0; c < ir.NumClasses; c++ {
		a.words[c] = (f.NumRegs(ir.RegClass(c)) + 63) / 64
		perSet += a.words[c]
	}
	if need := 4 * n * perSet; cap(a.backing) < need {
		a.backing = make([]uint64, need)
	} else {
		a.backing = a.backing[:need]
		clear(a.backing)
	}
	if cap(a.sets) < 4*n {
		a.sets = make([]RegSet, 4*n)
	}
	sets := a.sets[:4*n]
	backing := a.backing
	for i := range sets {
		for c := 0; c < ir.NumClasses; c++ {
			// Cap each slice at its own words so an out-of-range Add
			// reallocates instead of clobbering the next set.
			sets[i].bits[c] = backing[:a.words[c]:a.words[c]]
			backing = backing[a.words[c]:]
		}
	}
	if cap(a.lv.In) < n {
		a.lv.In = make([]*RegSet, n)
		a.lv.Out = make([]*RegSet, n)
		a.inWork = make([]bool, n)
		a.work = make([]int, 0, n)
	}
	lv := &a.lv
	lv.In, lv.Out = lv.In[:n], lv.Out[:n]
	for i := range f.Blocks {
		if !a.isMember(i) {
			lv.In[i], lv.Out[i] = base.In[i], base.Out[i]
			continue
		}
		lv.In[i], lv.Out[i] = &sets[4*i], &sets[4*i+1]
		a.scan(i)
	}
	a.widen()

	for c := 0; c < ir.NumClasses; c++ {
		for w := 0; w < a.words[c]; w++ {
			a.solve(c, w, ^uint64(0))
		}
	}
	return lv
}

func (a *Analyzer) isMember(b int) bool { return a.member == nil || a.member[b] }

// scan recomputes block i's use (upward-exposed) and def sets.
func (a *Analyzer) scan(i int) {
	use, def := &a.sets[4*i+2], &a.sets[4*i+3]
	use.Clear()
	def.Clear()
	var scratchBuf [8]ir.Reg
	scratch := scratchBuf[:0]
	for _, ins := range a.f.Blocks[i].Instrs {
		scratch = ins.Uses(scratch[:0])
		for _, r := range scratch {
			if !def.Has(r) {
				use.Add(r)
			}
		}
		scratch = ins.Defs(scratch[:0])
		for _, r := range scratch {
			def.Add(r)
		}
	}
}

// widen brings every member row to one width per class, the widest of
// any member row and of the frozen base rows they union from. A register
// noted after construction (bypassing Builder/NoteReg) can grow a use or
// def set past the carved width; aligned rows keep the word-wise loops
// from indexing past a slice.
func (a *Analyzer) widen() {
	n := len(a.lv.In)
	for c := 0; c < ir.NumClasses; c++ {
		maxw := a.words[c]
		for i := 0; i < n; i++ {
			if a.isMember(i) {
				for k := 0; k < 4; k++ {
					maxw = max(maxw, len(a.sets[4*i+k].bits[c]))
				}
			} else {
				maxw = max(maxw, len(a.base.In[i].bits[c]))
			}
		}
		if maxw == a.words[c] {
			continue
		}
		a.words[c] = maxw
		for i := 0; i < n; i++ {
			if !a.isMember(i) {
				continue
			}
			for k := 0; k < 4; k++ {
				s := &a.sets[4*i+k]
				for len(s.bits[c]) < maxw {
					s.bits[c] = append(s.bits[c], 0)
				}
			}
		}
	}
}

// Update brings the last ComputeScoped result up to date after the
// instructions of the dirty blocks changed, and returns it; the result
// is bit for bit what ComputeScoped would return on the current code.
// A motion changes liveness only through the use and def sets of the
// blocks it edits, and every register is an independent problem, so
// Update rescans the dirty blocks and solves again only the registers
// whose use or def bit changed, bit-parallel per word: at most
// O(changed registers × (blocks + edges)) instead of a whole solve.
// Duplicate and non-member entries in dirty are ignored; the blocks
// themselves must not change.
func (a *Analyzer) Update(dirty []int) *Liveness {
	perSet := 0
	for c := 0; c < ir.NumClasses; c++ {
		perSet += a.words[c]
		if len(a.changed.bits[c]) != a.words[c] {
			a.changed.bits[c] = make([]uint64, a.words[c])
		}
	}
	if cap(a.old) < 2*perSet {
		a.old = make([]uint64, 2*perSet)
	}
	a.changed.Clear()
	seen := a.inWork // all false between solves
	for _, i := range dirty {
		if !a.isMember(i) || seen[i] {
			continue
		}
		seen[i] = true
		rows := [2]*RegSet{&a.sets[4*i+2], &a.sets[4*i+3]}
		old := a.old[:0]
		for _, s := range rows {
			for c := 0; c < ir.NumClasses; c++ {
				old = append(old, s.bits[c]...)
			}
		}
		a.scan(i)
		for _, s := range rows {
			for c := 0; c < ir.NumClasses; c++ {
				row := s.bits[c]
				if len(row) != a.words[c] {
					// A register numbered past the analysed width:
					// re-carve the rows (this also clears seen).
					return a.ComputeScoped(a.f, a.g, a.member, a.base)
				}
				ch := a.changed.bits[c]
				for w, v := range row {
					ch[w] |= v ^ old[w]
				}
				old = old[len(row):]
			}
		}
	}
	for _, i := range dirty {
		seen[i] = false
	}
	for c, row := range a.changed.bits {
		for w, m := range row {
			if m != 0 {
				a.solve(c, w, m)
			}
		}
	}
	return &a.lv
}

// solve computes bits m of word w of class c in every member's In and
// Out from scratch, holding every other bit fixed (each bit is its own
// problem). It clears them, then iterates to the least fixed point with
// a worklist seeded in reverse layout order: a block is reprocessed
// only when the live-in of one of its successors grew. Clearing first
// is what keeps Update exact when a motion kills liveness: a grow-only
// worklist would keep a register live around a loop back edge after its
// last use left the loop.
func (a *Analyzer) solve(c, w int, m uint64) {
	lv, sets, g := &a.lv, a.sets, a.g
	n := len(lv.In)
	inWork, work := a.inWork[:n], a.work[:0]
	for i := n - 1; i >= 0; i-- {
		if a.isMember(i) {
			lv.In[i].bits[c][w] &^= m
			lv.Out[i].bits[c][w] &^= m
			work = append(work, i)
			inWork[i] = true
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		var out uint64
		for _, s := range g.Succs[i] {
			if in := lv.In[s].bits[c]; w < len(in) { // a frozen base row may be narrower
				out |= in[w]
			}
		}
		out &= m
		lv.Out[i].bits[c][w] |= out
		in := lv.In[i].bits[c]
		if v := (sets[4*i+2].bits[c][w] | out&^sets[4*i+3].bits[c][w]) & m; v&^in[w] != 0 {
			in[w] |= v
			for _, p := range g.Preds[i] {
				if a.isMember(p) && !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
	a.work = work
}
