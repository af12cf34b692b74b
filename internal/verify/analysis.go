package verify

import (
	"cmp"
	"math/bits"
	"slices"

	"gsched/internal/ir"
)

// The verifier re-derives every control-flow fact it needs from the ir
// alone, deliberately sharing no analysis code with internal/cfg or
// internal/pdg: dominators and postdominators are computed as explicit
// dominance *sets* by iterative dataflow (not the CHK tree algorithm the
// scheduler uses), control dependences are walked off the postdominance
// sets, and loop membership comes from natural-loop construction. A bug
// in the scheduler's analyses therefore cannot hide the same bug here.

// bitset is a dense set of block numbers.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }

// bitRows is a reusable set of equally sized bitsets carved from one
// backing array.
type bitRows struct {
	slab bitset
	rows []bitset
}

// carve returns k empty n-element bitsets, reusing r's storage when it
// is large enough.
func (r *bitRows) carve(k, n int) []bitset {
	w := (n + 63) / 64
	r.slab = zeroed(r.slab, k*w)
	r.rows = zeroed(r.rows, k)
	for i := range r.rows {
		r.rows[i] = r.slab[i*w : (i+1)*w : (i+1)*w]
	}
	return r.rows
}

// zeroed returns s resized to n elements, all zero, reusing its
// backing array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// emptyRows returns s resized to n rows, each emptied but keeping its
// storage, so rows refilled by append reach a steady size.
func emptyRows[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// count returns the number of members of b.
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

func (b bitset) setAll(n int) {
	for i := 0; i < n; i++ {
		b.set(i)
	}
}

// intersect replaces b with b ∩ o and reports whether b changed.
func (b bitset) intersect(o bitset) bool {
	changed := false
	for w := range b {
		nv := b[w] & o[w]
		if nv != b[w] {
			b[w] = nv
			changed = true
		}
	}
	return changed
}

// union replaces b with b ∪ o and reports whether b changed.
func (b bitset) union(o bitset) bool {
	changed := false
	for w := range b {
		nv := b[w] | o[w]
		if nv != b[w] {
			b[w] = nv
			changed = true
		}
	}
	return changed
}

// ctrlEdge identifies a controlling branch edge: control leaves block
// From through the edge whose head is block To.
type ctrlEdge struct{ From, To int }

// analysis bundles the verifier's independently derived control-flow
// facts about one function. fill recomputes them in place, reusing the
// rows and scratch of the previous function.
type analysis struct {
	n     int
	succs [][]int // full control flow graph
	preds [][]int
	reach bitset // blocks reachable from entry

	fsuccs [][]int // forward graph: back edges removed
	fpreds [][]int
	cyclic bool // forward graph still cyclic (irreducible flow graph)

	dom   []bitset // dom[b]: blocks dominating b (reflexive); nil rows for unreachable b
	pdom  []bitset // pdom[b]: blocks postdominating b on the forward graph (reflexive)
	ipdom []int    // immediate postdominator, vexit for exit blocks, -1 when unknown
	vexit int      // virtual exit node number (== n)

	freach []bitset // freach[u]: blocks reachable from u in the forward graph (reflexive)

	cdep   [][]ctrlEdge // forward control dependences of each block, sorted
	cdSucc [][]int      // blocks directly control dependent on a block

	loops [][]int // headers of the natural loops containing each block, ascending

	// Storage kept between fills.
	reachRow, full      bitRows
	domRows, pdomRows   bitRows
	freachRows          bitRows
	label               map[string]int // block label -> first block index
	stack, indeg, queue []int
	size                []int
	memoing, exitEdge   []bool
	inLoop              []bool
	body                []int
	// specDepth's scratch.
	seen           []bool
	frontier, next []int
}

// fill computes every fact from the current shape of f. Scheduling
// moves instructions but never blocks or terminators, so the result is
// valid for both the pre- and post-schedule program.
func (an *analysis) fill(f *ir.Func) {
	n := len(f.Blocks)
	an.n, an.vexit = n, n
	an.succs = emptyRows(an.succs, n)
	an.preds = emptyRows(an.preds, n)
	an.fillSuccs(f)

	// Reachability from the entry block.
	an.reach = an.reachRow.carve(1, n)[0]
	stack := append(an.stack[:0], 0)
	an.reach.set(0)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range an.succs[u] {
			if !an.reach.has(v) {
				an.reach.set(v)
				stack = append(stack, v)
			}
		}
	}
	an.stack = stack

	an.computeDominators()
	an.cutBackEdges()
	an.computeForwardReach()
	an.pdom, an.ipdom = an.pdom[:0], an.ipdom[:0]
	an.cdep, an.cdSucc = an.cdep[:0], an.cdSucc[:0]
	if !an.cyclic {
		an.computePostDominators()
		an.computeControlDeps()
	}
	an.computeLoops()
}

// fillSuccs fills succs and preds with the control-flow edges of f, as
// ir.Succs derives them: a conditional branch's fallthrough block first,
// then its target, found by label (the first block carrying it); a block
// without a terminator falls through.
func (an *analysis) fillSuccs(f *ir.Func) {
	if an.label == nil {
		an.label = make(map[string]int)
	}
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		an.label[f.Blocks[i].Label] = i
	}
	edge := func(u int, v *ir.Block) {
		an.succs[u] = append(an.succs[u], v.Index)
		an.preds[v.Index] = append(an.preds[v.Index], u)
	}
	for i, b := range f.Blocks {
		next := b.Index+1 < len(f.Blocks)
		t := b.Terminator()
		switch {
		case t == nil:
			if next {
				edge(i, f.Blocks[b.Index+1])
			}
		case t.Op == ir.OpB:
			if v, ok := an.label[t.Target]; ok {
				edge(i, f.Blocks[v])
			}
		case t.Op == ir.OpBC || t.Op == ir.OpBCT:
			if next {
				edge(i, f.Blocks[b.Index+1])
			}
			if v, ok := an.label[t.Target]; ok {
				edge(i, f.Blocks[v])
			}
		}
	}
	clear(an.label) // holds no label past the fill
}

// computeDominators solves dom[b] = {b} ∪ ∩ dom[preds] by iteration over
// the full flow graph.
func (an *analysis) computeDominators() {
	an.dom = zeroed(an.dom, an.n)
	full := an.full.carve(1, an.n)[0]
	full.setAll(an.n)
	rows := an.domRows.carve(an.n+1, an.n)
	for b := 0; b < an.n; b++ {
		if !an.reach.has(b) {
			continue
		}
		an.dom[b] = rows[b]
		if b == 0 {
			an.dom[b].set(0)
		} else {
			copy(an.dom[b], full)
		}
	}
	nv := rows[an.n]
	for changed := true; changed; {
		changed = false
		for b := 1; b < an.n; b++ {
			if an.dom[b] == nil {
				continue
			}
			copy(nv, full)
			any := false
			for _, p := range an.preds[b] {
				if an.dom[p] == nil {
					continue
				}
				nv.intersect(an.dom[p])
				any = true
			}
			if !any {
				continue
			}
			nv.set(b)
			if an.dom[b].intersect(nv) {
				changed = true
			}
		}
	}
}

// dominates reports whether a dominates b (reflexively). Unreachable
// blocks dominate and are dominated by nothing.
func (an *analysis) dominates(a, b int) bool {
	return an.dom[b] != nil && an.dom[a] != nil && an.dom[b].has(a)
}

// cutBackEdges removes every edge u→v with v dominating u, producing the
// forward graph, and records whether a cycle survives (irreducible flow).
func (an *analysis) cutBackEdges() {
	an.fsuccs = emptyRows(an.fsuccs, an.n)
	an.fpreds = emptyRows(an.fpreds, an.n)
	for u := 0; u < an.n; u++ {
		if !an.reach.has(u) {
			continue
		}
		for _, v := range an.succs[u] {
			if an.dominates(v, u) {
				continue // back edge
			}
			an.fsuccs[u] = append(an.fsuccs[u], v)
			an.fpreds[v] = append(an.fpreds[v], u)
		}
	}
	// Kahn's algorithm detects leftover cycles.
	indeg := zeroed(an.indeg, an.n)
	members := 0
	for u := 0; u < an.n; u++ {
		if !an.reach.has(u) {
			continue
		}
		members++
		for _, v := range an.fsuccs[u] {
			indeg[v]++
		}
	}
	q := an.queue[:0]
	for u := 0; u < an.n; u++ {
		if an.reach.has(u) && indeg[u] == 0 {
			q = append(q, u)
		}
	}
	for head := 0; head < len(q); head++ {
		for _, v := range an.fsuccs[q[head]] {
			if indeg[v]--; indeg[v] == 0 {
				q = append(q, v)
			}
		}
	}
	an.cyclic = len(q) != members
	an.indeg, an.queue = indeg, q
}

// computeForwardReach fills freach by reverse-topological accumulation
// (or per-node DFS if the forward graph is cyclic).
func (an *analysis) computeForwardReach() {
	an.freach = zeroed(an.freach, an.n)
	rows := an.freachRows.carve(an.n, an.n)
	an.memoing = zeroed(an.memoing, an.n)
	for u := 0; u < an.n; u++ {
		if an.reach.has(u) {
			an.reachFrom(u, rows)
		}
	}
	if an.cyclic {
		// Close transitively until stable (irreducible graphs only).
		for changed := true; changed; {
			changed = false
			for u := 0; u < an.n; u++ {
				if an.freach[u] == nil {
					continue
				}
				for _, v := range an.fsuccs[u] {
					if an.freach[v] != nil && an.freach[u].union(an.freach[v]) {
						changed = true
					}
				}
			}
		}
	}
}

// reachFrom fills freach[u] from rows[u] by depth-first search over the
// forward graph, and returns it; nil when u is on a cycle still being
// searched.
func (an *analysis) reachFrom(u int, rows []bitset) bitset {
	if an.freach[u] != nil {
		return an.freach[u]
	}
	if an.memoing[u] { // cycle: fall back to iterative closure
		return nil
	}
	an.memoing[u] = true
	r := rows[u]
	r.set(u)
	for _, v := range an.fsuccs[u] {
		if rv := an.reachFrom(v, rows); rv != nil {
			r.union(rv)
		} else {
			r.set(v)
		}
	}
	an.freach[u] = r
	return r
}

// forwardReach reports whether v is reachable from u (reflexively) in
// the forward graph.
func (an *analysis) forwardReach(u, v int) bool {
	return an.freach[u] != nil && an.freach[u].has(v)
}

// computePostDominators runs the same set-iteration backwards over the
// forward graph, against a virtual exit that every forward-successor-less
// block flows into.
func (an *analysis) computePostDominators() {
	nv := an.n + 1
	an.pdom = zeroed(an.pdom, nv)
	full := an.full.carve(1, nv)[0]
	full.setAll(nv)
	exitEdge := zeroed(an.exitEdge, an.n)
	an.exitEdge = exitEdge
	for b := 0; b < an.n; b++ {
		if an.reach.has(b) && len(an.fsuccs[b]) == 0 {
			exitEdge[b] = true
		}
	}
	rows := an.pdomRows.carve(nv+1, nv)
	an.pdom[an.vexit] = rows[an.vexit]
	an.pdom[an.vexit].set(an.vexit)
	for b := 0; b < an.n; b++ {
		if an.reach.has(b) {
			an.pdom[b] = rows[b]
			copy(an.pdom[b], full)
		}
	}
	acc := rows[nv]
	for changed := true; changed; {
		changed = false
		for b := an.n - 1; b >= 0; b-- {
			if an.pdom[b] == nil {
				continue
			}
			copy(acc, full)
			any := false
			for _, s := range an.fsuccs[b] {
				if an.pdom[s] == nil {
					continue
				}
				acc.intersect(an.pdom[s])
				any = true
			}
			if exitEdge[b] {
				acc.intersect(an.pdom[an.vexit])
				any = true
			}
			if !any {
				continue
			}
			acc.set(b)
			if an.pdom[b].intersect(acc) {
				changed = true
			}
		}
	}
	// Immediate postdominators via set sizes: ipdom(b) is the strict
	// postdominator of b with the largest postdominance set.
	size := zeroed(an.size, nv)
	an.size = size
	for c := range size {
		if c == an.vexit {
			size[c] = 1
		} else if an.pdom[c] != nil {
			size[c] = an.pdom[c].count()
		}
	}
	an.ipdom = zeroed(an.ipdom, an.n)
	for b := 0; b < an.n; b++ {
		an.ipdom[b] = -1
		if an.pdom[b] == nil {
			continue
		}
		best, bestCount := -1, -1
		for c := 0; c <= an.n; c++ {
			if c == b || !an.pdom[b].has(c) {
				continue
			}
			if size[c] > bestCount {
				best, bestCount = c, size[c]
			}
		}
		an.ipdom[b] = best
	}
}

// postDominates reports whether a postdominates b (reflexively) on the
// forward graph.
func (an *analysis) postDominates(a, b int) bool {
	return b < len(an.pdom) && an.pdom[b] != nil && an.pdom[b].has(a)
}

// computeControlDeps derives forward control dependences per
// Ferrante/Ottenstein/Warren: for each forward edge u→v with v not
// postdominating u, every block on the postdominator chain from v up to
// (exclusive) ipdom(u) is control dependent on that edge.
func (an *analysis) computeControlDeps() {
	an.cdep = emptyRows(an.cdep, an.n)
	for u := 0; u < an.n; u++ {
		if !an.reach.has(u) {
			continue
		}
		for i, v := range an.fsuccs[u] {
			if slices.Contains(an.fsuccs[u][:i], v) {
				continue // a second edge to the same block
			}
			if an.postDominates(v, u) {
				continue
			}
			stop := an.ipdom[u]
			for x := v; x != stop && x != an.vexit && x >= 0; x = an.ipdom[x] {
				an.cdep[x] = append(an.cdep[x], ctrlEdge{From: u, To: v})
			}
		}
	}
	an.cdSucc = emptyRows(an.cdSucc, an.n)
	for b := 0; b < an.n; b++ {
		deps := an.cdep[b]
		slices.SortFunc(deps, cmpCtrlEdge)
		for _, d := range deps {
			an.cdSucc[d.From] = append(an.cdSucc[d.From], b)
		}
	}
	for u := 0; u < an.n; u++ {
		slices.Sort(an.cdSucc[u])
		an.cdSucc[u] = slices.Compact(an.cdSucc[u])
	}
}

func cmpCtrlEdge(x, y ctrlEdge) int {
	return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
}

// computeLoops builds natural loops from the back edges and records,
// for each block, the sorted headers of the loops containing it.
// Instructions may never change their loop membership (region
// boundaries, §6).
func (an *analysis) computeLoops() {
	an.loops = emptyRows(an.loops, an.n)
	inLoop := zeroed(an.inLoop, an.n)
	body := an.body[:0]
	for u := 0; u < an.n; u++ {
		if !an.reach.has(u) {
			continue
		}
		for _, v := range an.succs[u] {
			if !an.dominates(v, u) {
				continue
			}
			// Back edge u→v, header v: blocks reaching u without passing v
			// belong to the loop. The header (body[0]) is never walked: for
			// a self back edge (u == v) the loop is exactly {v}, and walking
			// v's predecessors would flood everything upstream of the loop
			// into it.
			body = append(body[:0], v)
			inLoop[v] = true
			if !inLoop[u] {
				inLoop[u] = true
				body = append(body, u)
			}
			for i := 1; i < len(body); i++ {
				for _, p := range an.preds[body[i]] {
					if !inLoop[p] && an.reach.has(p) {
						inLoop[p] = true
						body = append(body, p)
					}
				}
			}
			for _, b := range body {
				an.loops[b] = append(an.loops[b], v)
				inLoop[b] = false
			}
		}
	}
	for b, hs := range an.loops {
		slices.Sort(hs)
		an.loops[b] = slices.Compact(hs)
	}
	an.inLoop, an.body = inLoop, body
}

// sameLoops reports whether blocks a and b lie in the same natural loops.
func (an *analysis) sameLoops(a, b int) bool {
	return slices.Equal(an.loops[a], an.loops[b])
}

// sameCdep reports whether blocks a and b have identical forward control
// dependences.
func (an *analysis) sameCdep(a, b int) bool {
	return slices.Equal(an.cdep[a], an.cdep[b])
}

// equivalent implements Definition 3 (via identical control dependences,
// confirmed on the dominance sets): a and b execute under exactly the
// same conditions.
func (an *analysis) equivalent(a, b int) bool {
	if a == b {
		return true
	}
	if an.cyclic || !an.sameCdep(a, b) {
		return false
	}
	return (an.dominates(a, b) && an.postDominates(b, a)) ||
		(an.dominates(b, a) && an.postDominates(a, b))
}

// specDepth returns the number of branches gambled on when an
// instruction moves from block h into block b (Definition 7): the BFS
// distance from b (or a block equivalent to and dominated by b) to h in
// the forward control dependence graph, visiting only blocks dominated
// by b. Returns 0 when the blocks are equivalent and -1 when h is not a
// speculative candidate at any depth.
func (an *analysis) specDepth(b, h int) int {
	if an.cyclic {
		return -1
	}
	if an.equivalent(b, h) && an.dominates(b, h) {
		return 0
	}
	seen := zeroed(an.seen, an.n)
	an.seen = seen
	seen[b] = true
	frontier, next := append(an.frontier[:0], b), an.next[:0]
	defer func() { an.frontier, an.next = frontier, next }()
	for e := 0; e < an.n; e++ {
		if e != b && an.sameCdep(e, b) && an.dominates(b, e) && an.postDominates(e, b) {
			seen[e] = true
			frontier = append(frontier, e)
		}
	}
	for depth := 1; len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, ch := range an.cdSucc[u] {
				if seen[ch] || !an.dominates(b, ch) {
					continue
				}
				seen[ch] = true
				if ch == h {
					return depth
				}
				next = append(next, ch)
			}
		}
		frontier, next = next, frontier
	}
	return -1
}
