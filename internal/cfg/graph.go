// Package cfg computes control flow analyses over ir functions: the flow
// graph itself, dominators and postdominators, back edges, reducibility,
// and the region (loop nesting) tree that drives the region-by-region
// global scheduling process of §5.1 of the paper.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"gsched/internal/ir"
)

// Graph is the control flow graph of a function. Nodes are block indices
// into F.Blocks; edges follow ir.Succs. The graph must be rebuilt after
// any transformation that adds, removes, or reorders blocks or changes
// terminators (pure instruction motion within existing blocks keeps the
// graph valid).
type Graph struct {
	F     *ir.Func
	Succs [][]int
	Preds [][]int
}

// Build constructs the flow graph of f. Block 0 is the entry node.
// Adjacency rows are carved out of one backing array (a block has at
// most two successors), and branch targets resolve through a label
// index instead of a per-branch linear scan.
func Build(f *ir.Func) *Graph {
	n := len(f.Blocks)
	g := &Graph{F: f, Succs: make([][]int, n), Preds: make([][]int, n)}
	byLabel := make(map[string]int, n)
	for i, b := range f.Blocks {
		if b.Label != "" {
			byLabel[b.Label] = i
		}
	}
	// First pass: per-block successor targets (≤2) and predecessor
	// counts.
	targets := make([][2]int, n)
	nsucc := make([]int, n)
	npred := make([]int, n)
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
			if tgt, ok := byLabel[term.Target]; ok {
				t = append(t, tgt)
			}
		case term.Op == ir.OpBC || term.Op == ir.OpBCT:
			if i+1 < n {
				t = append(t, i+1)
			}
			if tgt, ok := byLabel[term.Target]; ok {
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
	backing := make([]int, 2*total)
	sb, pb := backing[:total], backing[total:]
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
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Succs) }

// Reachable returns the set of nodes reachable from entry.
func (g *Graph) Reachable(entry int) []bool {
	seen := make([]bool, g.N())
	stack := []int{entry}
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
	return seen
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
type Subgraph struct {
	G     *Graph
	In    []bool  // membership
	Succs [][]int // filtered adjacency
	Preds [][]int
	Entry int
	Nodes []int // members in parent-graph numbering, ascending
}

// Forward builds the forward (back-edge-free) subgraph over the given
// node set. An edge u->v inside the set is dropped when back[u][v] is
// true. Edges leaving the set are dropped (region exits are modelled by
// the virtual exit in postdominator computations).
func (g *Graph) Forward(nodes []int, entry int, isBack func(u, v int) bool) *Subgraph {
	n := g.N()
	sg := &Subgraph{
		G:     g,
		In:    make([]bool, n),
		Succs: make([][]int, n),
		Preds: make([][]int, n),
		Entry: entry,
		Nodes: nodes,
	}
	for _, u := range nodes {
		sg.In[u] = true
	}
	// Count kept edges, then carve all adjacency rows from one backing
	// array instead of growing per-node slices edge by edge.
	total := 0
	for _, u := range nodes {
		for _, v := range g.Succs[u] {
			if sg.In[v] && !isBack(u, v) {
				total++
			}
		}
	}
	nsucc := make([]int, n)
	npred := make([]int, n)
	for _, u := range nodes {
		for _, v := range g.Succs[u] {
			if sg.In[v] && !isBack(u, v) {
				nsucc[u]++
				npred[v]++
			}
		}
	}
	backing := make([]int, 2*total)
	sb, pb := backing[:total], backing[total:]
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
	return sg
}

// Topological returns the member nodes in a topological order of the
// subgraph (entry first). It returns an error if the subgraph is cyclic,
// which for a forward view indicates an irreducible region.
func (sg *Subgraph) Topological() ([]int, error) {
	indeg := make([]int, len(sg.Succs))
	for _, u := range sg.Nodes {
		for _, v := range sg.Succs[u] {
			indeg[v]++
		}
	}
	// Stable queue: prefer original block order so schedules are
	// deterministic.
	var order []int
	ready := []int{}
	for _, u := range sg.Nodes {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, v := range sg.Succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				// insert keeping ascending block order
				at := len(ready)
				for k, w := range ready {
					if v < w {
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
	// Tarjan's algorithm emits SCCs in reverse topological order.
	n := len(sg.Succs)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	next := 0
	var strong func(u int)
	strong = func(u int) {
		index[u] = next
		low[u] = next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range sg.Succs[u] {
			if index[v] < 0 {
				strong(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
			} else if onStack[v] && index[v] < low[u] {
				low[u] = index[v]
			}
		}
		if low[u] == index[u] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == u {
					break
				}
			}
			sort.Ints(scc)
			sccs = append(sccs, scc)
		}
	}
	// Deterministic root order.
	for _, u := range sg.Nodes {
		if index[u] < 0 {
			strong(u)
		}
	}
	// Reverse the SCC list to get topological order, but preserve a
	// deterministic layout among incomparable components: Tarjan's
	// reverse order is already a valid topological order; ties follow
	// the DFS root order, which we seeded ascending.
	var order []int
	for i := len(sccs) - 1; i >= 0; i-- {
		order = append(order, sccs[i]...)
	}
	return order
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

func (sg *Subgraph) newReach() *Reach {
	r := &Reach{idx: make([]int, len(sg.Succs))}
	for i := range r.idx {
		r.idx[i] = -1
	}
	for di, u := range sg.Nodes {
		r.idx[u] = di
	}
	r.words = (len(sg.Nodes) + 63) / 64
	r.rows = make([]uint64, len(sg.Nodes)*r.words)
	return r
}

func (r *Reach) row(denseIdx int) []uint64 {
	return r.rows[denseIdx*r.words : (denseIdx+1)*r.words]
}

// ReachableFrom returns the transitive reachability relation of the
// subgraph: Reaches(u, v) iff there is a (possibly empty) path from u to
// v using subgraph edges. Rows are dense bitsets, so the reverse
// topological sweep unions whole successor rows with word-wide ORs
// instead of per-node hashing.
func (sg *Subgraph) ReachableFrom() *Reach {
	r := sg.newReach()
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
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range sg.Succs[x] {
			if set(v) {
				stack = append(stack, v)
			}
		}
	}
}
