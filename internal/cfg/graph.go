// Package cfg computes control flow analyses over ir functions: the flow
// graph itself, dominators and postdominators, back edges, reducibility,
// and the region (loop nesting) tree that drives the region-by-region
// global scheduling process of §5.1 of the paper.
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"gsched/internal/ir"
)

// Graph is the control flow graph of a function. Nodes are block indices
// into F.Blocks; edges follow ir.Succs. The graph must be refilled after
// any transformation that adds, removes, or reorders blocks or changes
// terminators (pure instruction motion within existing blocks keeps the
// graph valid).
type Graph struct {
	F     *ir.Func
	Succs [][]int
	Preds [][]int

	// Storage that Refill reuses.
	byLabel map[string]int
	targets [][2]int
	nsucc   []int
	npred   []int
	backing []int
}

// Build constructs the flow graph of f. Block 0 is the entry node.
func Build(f *ir.Func) *Graph {
	g := new(Graph)
	g.Refill(f)
	return g
}

// Refill rebuilds g as the flow graph of f in place, reusing g's
// storage: adjacency rows are carved out of one backing array (a block
// has at most two successors), and branch targets resolve through a
// label table kept from the previous fill. Every slice of an earlier
// fill is overwritten.
func (g *Graph) Refill(f *ir.Func) {
	n := len(f.Blocks)
	g.F = f
	g.Succs = resized(g.Succs, n)
	g.Preds = resized(g.Preds, n)
	if g.byLabel == nil {
		g.byLabel = make(map[string]int, n)
	} else {
		clear(g.byLabel)
	}
	for i, b := range f.Blocks {
		if b.Label != "" {
			g.byLabel[b.Label] = i
		}
	}
	// First pass: per-block successor targets (≤2) and predecessor
	// counts.
	g.targets = resized(g.targets, n)
	g.nsucc = resized(g.nsucc, n)
	g.npred = resized(g.npred, n)
	targets, nsucc, npred := g.targets, g.nsucc, g.npred
	total := 0
	for i, b := range f.Blocks {
		t := targets[i][:0]
		term := b.Terminator()
		switch {
		case term == nil:
			if i+1 < n {
				t = append(t, i+1)
			}
		case term.Op == ir.OpB:
			if tgt, ok := g.byLabel[term.Target]; ok {
				t = append(t, tgt)
			}
		case term.Op == ir.OpBC || term.Op == ir.OpBCT:
			if i+1 < n {
				t = append(t, i+1)
			}
			if tgt, ok := g.byLabel[term.Target]; ok {
				t = append(t, tgt)
			}
		}
		nsucc[i] = len(t)
		for _, v := range t {
			npred[v]++
		}
		total += len(t)
	}
	// Second pass: carve rows and fill.
	g.backing = resized(g.backing, 2*total)
	sb, pb := g.backing[:total], g.backing[total:]
	for i := 0; i < n; i++ {
		if nsucc[i] > 0 {
			g.Succs[i], sb = sb[:nsucc[i]:nsucc[i]], sb[nsucc[i]:]
		}
		if npred[i] > 0 {
			g.Preds[i], pb = pb[:0:npred[i]], pb[npred[i]:]
		}
	}
	for i := 0; i < n; i++ {
		copy(g.Succs[i], targets[i][:nsucc[i]])
		for _, v := range targets[i][:nsucc[i]] {
			g.Preds[v] = append(g.Preds[v], i)
		}
	}
}

// resized returns s with n elements, all zero, reusing its backing
// array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Succs) }

// Reachable returns the set of nodes reachable from entry.
func (g *Graph) Reachable(entry int) []bool {
	seen, _ := g.reachInto(nil, nil, entry)
	return seen
}

// reachInto is Reachable into the storage of seen, using stack as its
// work list; it returns both for reuse.
func (g *Graph) reachInto(seen []bool, stack []int, entry int) ([]bool, []int) {
	seen = resized(seen, g.N())
	stack = append(stack[:0], entry)
	seen[entry] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen, stack
}

// String renders the graph as "BLi -> BLj BLk" lines, matching the
// node numbering style of Figure 3 of the paper (1-based).
func (g *Graph) String() string {
	var sb strings.Builder
	for u := range g.Succs {
		fmt.Fprintf(&sb, "BL%d ->", u+1)
		for _, v := range g.Succs[u] {
			fmt.Fprintf(&sb, " BL%d", v+1)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Subgraph is a filtered view of a Graph restricted to a block set with
// some edges removed (the forward, acyclic view of a region). Node
// numbering is preserved from the parent graph; nodes outside the set
// have empty adjacency.
//
// A Subgraph owns the storage of its adjacency and of the results of
// Topological, CondensationOrder and ReachableFrom: each result is valid
// until the next call of the same method or the next Refill, which
// reuse that storage (ReachableFrom calls Topological).
type Subgraph struct {
	G     *Graph
	In    []bool  // membership
	Succs [][]int // filtered adjacency
	Preds [][]int
	Entry int
	Nodes []int // members in parent-graph numbering, ascending

	nsucc, npred []int
	backing      []int

	// Topological and CondensationOrder scratch.
	indeg, order, ready []int
	index, low          []int
	onStack             []bool
	stack, scc, sccEnds []int
	cond                []int
	reach               Reach
	dfs                 []int
}

// Forward builds the forward (back-edge-free) subgraph over the given
// node set. An edge u->v inside the set is dropped when isBack(u, v) is
// true. Edges leaving the set are dropped (region exits are modelled by
// the virtual exit in postdominator computations).
func (g *Graph) Forward(nodes []int, entry int, isBack func(u, v int) bool) *Subgraph {
	sg := new(Subgraph)
	sg.Refill(g, nodes, entry, isBack)
	return sg
}

// Refill makes sg the forward subgraph of g over nodes, as Forward
// builds it, reusing sg's storage. nodes is kept, not copied.
func (sg *Subgraph) Refill(g *Graph, nodes []int, entry int, isBack func(u, v int) bool) {
	n := g.N()
	sg.G, sg.Entry, sg.Nodes = g, entry, nodes
	sg.In = resized(sg.In, n)
	sg.Succs = resized(sg.Succs, n)
	sg.Preds = resized(sg.Preds, n)
	for _, u := range nodes {
		sg.In[u] = true
	}
	// Count kept edges, then carve all adjacency rows from one backing
	// array instead of growing per-node slices edge by edge.
	sg.nsucc = resized(sg.nsucc, n)
	sg.npred = resized(sg.npred, n)
	nsucc, npred := sg.nsucc, sg.npred
	total := 0
	for _, u := range nodes {
		for _, v := range g.Succs[u] {
			if sg.In[v] && !isBack(u, v) {
				nsucc[u]++
				npred[v]++
				total++
			}
		}
	}
	sg.backing = resized(sg.backing, 2*total)
	sb, pb := sg.backing[:total], sg.backing[total:]
	for _, u := range nodes {
		sg.Succs[u], sb = sb[:0:nsucc[u]], sb[nsucc[u]:]
		sg.Preds[u], pb = pb[:0:npred[u]], pb[npred[u]:]
	}
	for _, u := range nodes {
		for _, v := range g.Succs[u] {
			if sg.In[v] && !isBack(u, v) {
				sg.Succs[u] = append(sg.Succs[u], v)
				sg.Preds[v] = append(sg.Preds[v], u)
			}
		}
	}
}

// Topological returns the member nodes in a topological order of the
// subgraph (entry first). It returns an error if the subgraph is cyclic,
// which for a forward view indicates an irreducible region.
func (sg *Subgraph) Topological() ([]int, error) {
	sg.indeg = resized(sg.indeg, len(sg.Succs))
	indeg := sg.indeg
	for _, u := range sg.Nodes {
		for _, v := range sg.Succs[u] {
			indeg[v]++
		}
	}
	// Stable queue: prefer original block order so schedules are
	// deterministic. ready[head:] is the queue, kept ascending.
	order := sg.order[:0]
	ready := sg.ready[:0]
	for _, u := range sg.Nodes {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	for head := 0; head < len(ready); {
		u := ready[head]
		head++
		order = append(order, u)
		for _, v := range sg.Succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				// insert keeping ascending block order
				at := len(ready)
				for k := head; k < len(ready); k++ {
					if v < ready[k] {
						at = k
						break
					}
				}
				ready = append(ready, 0)
				copy(ready[at+1:], ready[at:])
				ready[at] = v
			}
		}
	}
	sg.order, sg.ready = order, ready
	if len(order) != len(sg.Nodes) {
		return nil, fmt.Errorf("cfg: cyclic forward subgraph (irreducible region)")
	}
	return order, nil
}

// CondensationOrder returns the member nodes in a topological order of
// the subgraph's strongly-connected-component condensation: if any path
// leads from u's component to v's component, u appears before v. Members
// of one component (a nested loop kept intact in the dependence view)
// appear consecutively in ascending node order. This is the paper's
// block processing order — "if there is a path in the control flow graph
// from A to B, A is processed before B" — for region views that keep
// nested back edges.
func (sg *Subgraph) CondensationOrder() []int {
	// Tarjan's algorithm emits SCCs in reverse topological order: the
	// members of each, in emission order, go to sg.scc, and sccEnds
	// marks where each component ends.
	n := len(sg.Succs)
	sg.index = resized(sg.index, n)
	sg.low = resized(sg.low, n)
	sg.onStack = resized(sg.onStack, n)
	for i := range sg.index {
		sg.index[i] = -1
	}
	sg.stack, sg.scc, sg.sccEnds = sg.stack[:0], sg.scc[:0], sg.sccEnds[:0]
	next := 0
	// Deterministic root order.
	for _, u := range sg.Nodes {
		if sg.index[u] < 0 {
			next = sg.strong(u, next)
		}
	}
	// Reverse the SCC list to get topological order, but preserve a
	// deterministic layout among incomparable components: Tarjan's
	// reverse order is already a valid topological order; ties follow
	// the DFS root order, which we seeded ascending.
	cond := sg.cond[:0]
	for k := len(sg.sccEnds) - 1; k >= 0; k-- {
		lo := 0
		if k > 0 {
			lo = sg.sccEnds[k-1]
		}
		cond = append(cond, sg.scc[lo:sg.sccEnds[k]]...)
	}
	sg.cond = cond
	return cond
}

// strong is the recursive step of Tarjan's algorithm from u, numbering
// from next; it returns the next free number.
func (sg *Subgraph) strong(u, next int) int {
	sg.index[u] = next
	sg.low[u] = next
	next++
	sg.stack = append(sg.stack, u)
	sg.onStack[u] = true
	for _, v := range sg.Succs[u] {
		if sg.index[v] < 0 {
			next = sg.strong(v, next)
			if sg.low[v] < sg.low[u] {
				sg.low[u] = sg.low[v]
			}
		} else if sg.onStack[v] && sg.index[v] < sg.low[u] {
			sg.low[u] = sg.index[v]
		}
	}
	if sg.low[u] == sg.index[u] {
		start := len(sg.scc)
		for {
			w := sg.stack[len(sg.stack)-1]
			sg.stack = sg.stack[:len(sg.stack)-1]
			sg.onStack[w] = false
			sg.scc = append(sg.scc, w)
			if w == u {
				break
			}
		}
		slices.Sort(sg.scc[start:])
		sg.sccEnds = append(sg.sccEnds, len(sg.scc))
	}
	return next
}

// Reach is the transitive reachability relation of a Subgraph, stored as
// one bitset row per member node. Rows and bit positions are keyed by a
// dense member index (ascending parent-graph node order); Reaches
// translates parent-graph numbers, so callers never see the dense index.
type Reach struct {
	idx   []int    // parent-graph node -> dense index, -1 for non-members
	words int      // row width in 64-bit words
	rows  []uint64 // len(sg.Nodes) rows of `words` words each
}

// Reaches reports whether there is a (possibly empty) path from u to v
// using subgraph edges. Non-member nodes reach nothing.
func (r *Reach) Reaches(u, v int) bool {
	if u < 0 || v < 0 || u >= len(r.idx) || v >= len(r.idx) {
		return false
	}
	du, dv := r.idx[u], r.idx[v]
	if du < 0 || dv < 0 {
		return false
	}
	return r.rows[du*r.words+dv/64]&(1<<(uint(dv)%64)) != 0
}

func (r *Reach) reset(sg *Subgraph) {
	r.idx = resized(r.idx, len(sg.Succs))
	for i := range r.idx {
		r.idx[i] = -1
	}
	for di, u := range sg.Nodes {
		r.idx[u] = di
	}
	r.words = (len(sg.Nodes) + 63) / 64
	r.rows = resized(r.rows, len(sg.Nodes)*r.words)
}

func (r *Reach) row(denseIdx int) []uint64 {
	return r.rows[denseIdx*r.words : (denseIdx+1)*r.words]
}

// ReachableFrom returns the transitive reachability relation of the
// subgraph: Reaches(u, v) iff there is a (possibly empty) path from u to
// v using subgraph edges. Rows are dense bitsets, so the reverse
// topological sweep unions whole successor rows with word-wide ORs
// instead of per-node hashing. The relation lives in sg's storage.
func (sg *Subgraph) ReachableFrom() *Reach {
	r := &sg.reach
	r.reset(sg)
	order, err := sg.Topological()
	if err != nil {
		// Fall back to per-node DFS for cyclic graphs.
		for _, u := range sg.Nodes {
			sg.markFrom(u, r)
		}
		return r
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		du := r.idx[u]
		row := r.row(du)
		row[du/64] |= 1 << (uint(du) % 64)
		for _, v := range sg.Succs[u] {
			vrow := r.row(r.idx[v])
			for w := range row {
				row[w] |= vrow[w]
			}
		}
	}
	return r
}

// markFrom sets u's row to everything reachable from u by explicit
// traversal (cyclic subgraphs only).
func (sg *Subgraph) markFrom(u int, r *Reach) {
	row := r.row(r.idx[u])
	set := func(v int) bool {
		dv := r.idx[v]
		w, b := dv/64, uint64(1)<<(uint(dv)%64)
		if row[w]&b != 0 {
			return false
		}
		row[w] |= b
		return true
	}
	set(u)
	stack := append(sg.dfs[:0], u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range sg.Succs[x] {
			if set(v) {
				stack = append(stack, v)
			}
		}
	}
	sg.dfs = stack
}
