package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/minic"
	"gsched/internal/paperex"
	"gsched/internal/progen"
)

// updateFuncs returns builders of the functions TestUpdateMatchesCompute
// edits: the paper's minmax loop and bigfunc-shaped generated mains.
func updateFuncs(t *testing.T) map[string]func() *ir.Func {
	t.Helper()
	funcs := map[string]func() *ir.Func{
		"minmax": func() *ir.Func { _, f := paperex.MinMax(); return f },
		"loop":   func() *ir.Func { f, _ := buildUseLoop(); return f },
	}
	n := 6
	if testing.Short() {
		n = 2
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		pg := progen.NewSized(seed, progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3})
		funcs[fmt.Sprintf("main%d", seed)] = func() *ir.Func {
			prog, err := minic.Compile(pg.Source)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return prog.Func(pg.Entry)
		}
	}
	return funcs
}

// moveInstr moves a random non-terminator instruction of a random block
// with one to the end (before the terminator) of another random block,
// both drawn from blocks, and returns the two block indices.
func moveInstr(r *rand.Rand, f *ir.Func, blocks []int) (from, to int, ok bool) {
	from = blocks[r.Intn(len(blocks))]
	to = blocks[r.Intn(len(blocks))]
	src := f.Blocks[from]
	n := len(src.Instrs)
	if src.Terminator() != nil {
		n--
	}
	if n == 0 || from == to {
		return 0, 0, false
	}
	i := src.Instrs[r.Intn(n)]
	src.Remove(i)
	insertBefore(f.Blocks[to], i)
	return from, to, true
}

func insertBefore(blk *ir.Block, i *ir.Instr) {
	if t := blk.Terminator(); t != nil {
		blk.Instrs = append(blk.Instrs[:len(blk.Instrs)-1], i, t)
	} else {
		blk.Instrs = append(blk.Instrs, i)
	}
}

// sameLiveness fails t unless got and want hold the same In and Out sets
// for every block (rows may differ in width only by zero words).
func sameLiveness(t *testing.T, what string, got, want *Liveness) {
	t.Helper()
	eq := func(a, b *RegSet) bool {
		for c := 0; c < ir.NumClasses; c++ {
			x, y := a.bits[c], b.bits[c]
			for w := 0; w < max(len(x), len(y)); w++ {
				var u, v uint64
				if w < len(x) {
					u = x[w]
				}
				if w < len(y) {
					v = y[w]
				}
				if u != v {
					return false
				}
			}
		}
		return true
	}
	for b := range want.In {
		if !eq(got.In[b], want.In[b]) {
			t.Fatalf("%s: live-in of block %d differs from a fresh solve", what, b)
		}
		if !eq(got.Out[b], want.Out[b]) {
			t.Fatalf("%s: live-out of block %d differs from a fresh solve", what, b)
		}
	}
}

// TestUpdateMatchesCompute edits functions with random instruction moves
// and checks after every batch that Update leaves exactly what a fresh
// ComputeScoped computes, over the whole function and over a scope
// against a frozen baseline. It starts with a move that kills liveness
// around a back edge: k's only use leaves the loop, so k must stop
// being live there, which a grow-only worklist never undoes (the
// loop's own live-out feeds its live-in).
func TestUpdateMatchesCompute(t *testing.T) {
	f, k := buildUseLoop()
	g := cfg.Build(f)
	var a Analyzer
	if lv := a.Compute(f, g); !lv.LiveOnExit(1, k) {
		t.Fatal("k should be live around the back edge before the move")
	}
	add := f.Blocks[1].Instrs[0]
	f.Blocks[1].Remove(add)
	insertBefore(f.Blocks[0], add)
	lv := a.Update([]int{1, 0})
	if lv.LiveOnExit(1, k) || lv.In[1].Has(k) {
		t.Error("k is still live in the loop after its only use left it")
	}
	sameLiveness(t, "loop", lv, Compute(f, g))

	for name, build := range updateFuncs(t) {
		for _, scoped := range []bool{false, true} {
			f := build()
			g := cfg.Build(f)
			r := rand.New(rand.NewSource(int64(len(f.Blocks))))
			var member []bool
			var base *Liveness
			blocks := make([]int, 0, len(f.Blocks))
			if scoped {
				base = Compute(f, g)
				member = make([]bool, len(f.Blocks))
				for b := range member {
					member[b] = r.Intn(3) != 0
				}
			}
			for b := range f.Blocks {
				if member == nil || member[b] {
					blocks = append(blocks, b)
				}
			}
			if len(blocks) < 2 {
				continue
			}
			var inc, fresh Analyzer
			inc.ComputeScoped(f, g, member, base)
			for batch := 0; batch < 60; batch++ {
				var dirty []int
				for k := 1 + r.Intn(4); k > 0; k-- {
					if from, to, ok := moveInstr(r, f, blocks); ok {
						dirty = append(dirty, from, to)
					}
				}
				got := inc.Update(dirty)
				want := fresh.ComputeScoped(f, g, member, base)
				sameLiveness(t, name, got, want)
			}
		}
	}
}

// buildUseLoop constructs: entry{li k; li i} loop{s=k+i; i++; cmp; bt
// loop} exit{ret i}, where the add is k's only use.
func buildUseLoop() (*ir.Func, ir.Reg) {
	f := ir.NewFunc("t")
	k, i, n, s, cr := ir.GPR(0), ir.GPR(1), ir.GPR(2), ir.GPR(3), ir.CR(0)
	f.Params = []ir.Reg{n}
	b := ir.NewBuilder(f)
	b.Block("entry")
	b.LI(k, 7)
	b.LI(i, 0)
	b.Block("loop")
	b.Op2(ir.OpAdd, s, k, i)
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	b.BT("loop", cr, ir.BitLT)
	b.Block("exit")
	b.Ret(i)
	f.ReindexBlocks()
	return f, k
}

// bigMain returns the main of the first generated program (in seed
// order) with 900–1100 instructions, the bigfunc benchmark's band.
func bigMain(tb testing.TB) *ir.Func {
	tb.Helper()
	for seed := int64(1); seed < 200; seed++ {
		pg := progen.NewSized(seed, progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3})
		prog, err := minic.Compile(pg.Source)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		if f := prog.Func(pg.Entry); f.NumInstrs() >= 900 && f.NumInstrs() <= 1100 {
			return f
		}
	}
	tb.Fatal("no generated main in 900–1100 instructions")
	return nil
}

// TestUpdateSolvesOnlyWhereEditsReach pins Update's cost bound: an edit
// confined to the entry block, which no block reaches, re-solves that
// block alone, one worklist visit per changed bitset word, however many
// blocks the function has.
func TestUpdateSolvesOnlyWhereEditsReach(t *testing.T) {
	f := bigMain(t)
	g := cfg.Build(f)
	if len(g.Preds[0]) != 0 {
		t.Fatal("the entry block has predecessors")
	}
	var a Analyzer
	a.Compute(f, g)
	entry := f.Blocks[0]
	if len(entry.Instrs) < 2 {
		t.Fatal("the entry block has no instruction to move")
	}
	// Rotate the entry block's first instruction to just before its
	// last: every use and def stays in the block, but which uses are
	// upward-exposed can change.
	for k := 0; k < len(entry.Instrs)-1; k++ {
		i := entry.Instrs[0]
		entry.Remove(i)
		insertBefore(entry, i)
		a.visits = 0
		lv := a.Update([]int{0})
		words := 0
		for _, row := range a.changed.bits {
			for _, m := range row {
				if m != 0 {
					words++
				}
			}
		}
		if a.visits != words {
			t.Fatalf("move %d: %d worklist visits for %d changed words in a %d-block function, want one each",
				k, a.visits, words, len(f.Blocks))
		}
		sameLiveness(t, "entry edit", lv, Compute(f, g))
	}
}

// BenchmarkLivenessUpdate moves one instruction up each flow edge of a
// bigfunc-shaped main and back, the shape of a speculative motion and
// its undoing, with an Update after each move.
func BenchmarkLivenessUpdate(b *testing.B) {
	f := bigMain(b)
	g := cfg.Build(f)
	type edge struct{ from, to int }
	var edges []edge
	for p := range f.Blocks {
		for _, s := range g.Succs[p] {
			if blk := f.Blocks[s]; s != p && len(blk.Instrs) > 0 && blk.Instrs[0] != blk.Terminator() {
				edges = append(edges, edge{p, s})
			}
		}
	}
	var a Analyzer
	a.Compute(f, g)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e := edges[n%len(edges)]
		src, dst := f.Blocks[e.to], f.Blocks[e.from]
		i := src.Instrs[0]
		src.Remove(i)
		insertBefore(dst, i)
		a.Update([]int{e.to, e.from})
		dst.Remove(i)
		src.Instrs = slices.Insert(src.Instrs, 0, i)
		a.Update([]int{e.to, e.from})
	}
}
