package cfg

// Dominator computation using the iterative algorithm of Cooper, Harvey
// and Kennedy ("A Simple, Fast Dominance Algorithm"). The same engine
// serves dominators (forward graph from entry) and postdominators
// (reversed graph from a virtual exit).

import "slices"

// DomTree holds immediate dominators: Idom[u] is the immediate dominator
// of u, Idom[root] == root, and Idom[u] == -1 for nodes unreachable from
// the root.
type DomTree struct {
	Root int
	Idom []int

	// Storage that refill reuses.
	seen  []bool
	rpo   []int
	num   []int
	stack [][2]int
}

// refill runs the CHK algorithm over an explicit adjacency into t's
// storage. n is the node count; preds gives the predecessors of each
// node in the direction of the analysis.
func (t *DomTree) refill(n, root int, succs, preds [][]int) {
	// Reverse postorder from root over succs: an explicit depth-first
	// stack of (node, next successor) pairs, which emits the postorder
	// of the recursive walk.
	t.seen = resized(t.seen, n)
	seen := t.seen
	post := t.rpo[:0]
	stack := append(t.stack[:0], [2]int{root, 0})
	seen[root] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		u := top[0]
		if top[1] < len(succs[u]) {
			v := succs[u][top[1]]
			top[1]++
			if !seen[v] {
				seen[v] = true
				stack = append(stack, [2]int{v, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
		post = append(post, u)
	}
	t.stack = stack
	slices.Reverse(post)
	rpo := post
	t.rpo = rpo
	t.num = resized(t.num, n)
	num := t.num // rpo number, lower = earlier
	for i := range num {
		num[i] = -1
	}
	for i, u := range rpo {
		num[u] = i
	}

	t.Root = root
	t.Idom = resized(t.Idom, n)
	idom := t.Idom
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for num[a] > num[b] {
				a = idom[a]
			}
			for num[b] > num[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, u := range rpo {
			if u == root {
				continue
			}
			newIdom := -1
			for _, p := range preds[u] {
				if num[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
}

// Dominators computes the dominator tree of g from the entry node.
func Dominators(g *Graph, entry int) *DomTree {
	t := new(DomTree)
	t.refill(g.N(), entry, g.Succs, g.Preds)
	return t
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b int) bool {
	if t.Idom[b] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == t.Root {
			return false
		}
		b = t.Idom[b]
		if b < 0 {
			return false
		}
	}
}

// PostDomTree is the postdominator tree of a subgraph, computed against a
// virtual exit node (numbered G.N()).
type PostDomTree struct {
	tree DomTree
	// VirtualExit is the node number of the added exit.
	VirtualExit int

	// Storage that Refill reuses: the reversed adjacency.
	succs, preds [][]int
	isExit       []bool
	nsucc, npred []int
	backing      []int
}

// PostDominators computes postdominators of the subgraph. exits lists the
// member nodes considered to leave the region (they get an edge to the
// virtual exit node). Every member with no subgraph successors is treated
// as an exit automatically.
func PostDominators(sg *Subgraph, exits []int) *PostDomTree {
	t := new(PostDomTree)
	t.Refill(sg, exits)
	return t
}

// Refill recomputes t as PostDominators(sg, exits) does, reusing t's
// storage.
func (t *PostDomTree) Refill(sg *Subgraph, exits []int) {
	n := sg.G.N()
	vx := n
	t.VirtualExit = vx
	// Build the reversed adjacency including the virtual exit, carving
	// all rows from one backing array (count, carve, fill).
	t.succs = resized(t.succs, n+1)
	t.preds = resized(t.preds, n+1)
	t.isExit = resized(t.isExit, n)
	t.nsucc = resized(t.nsucc, n+1)
	t.npred = resized(t.npred, n+1)
	succs, preds, isExit, nsucc, npred := t.succs, t.preds, t.isExit, t.nsucc, t.npred
	for _, e := range exits {
		isExit[e] = true
	}
	total := 0
	for _, u := range sg.Nodes {
		if len(sg.Succs[u]) == 0 {
			isExit[u] = true
		}
		for _, v := range sg.Succs[u] {
			nsucc[v]++ // reversed: v -> u
			npred[u]++
			total++
		}
		if isExit[u] {
			nsucc[vx]++
			npred[u]++
			total++
		}
	}
	t.backing = resized(t.backing, 2*total)
	sb, pb := t.backing[:total], t.backing[total:]
	for i := 0; i <= n; i++ {
		succs[i], sb = sb[:0:nsucc[i]], sb[nsucc[i]:]
		preds[i], pb = pb[:0:npred[i]], pb[npred[i]:]
	}
	addEdge := func(u, v int) { // edge u->v in the original direction
		// reversed: v -> u
		succs[v] = append(succs[v], u)
		preds[u] = append(preds[u], v)
	}
	for _, u := range sg.Nodes {
		for _, v := range sg.Succs[u] {
			addEdge(u, v)
		}
		if isExit[u] {
			addEdge(u, vx)
		}
	}
	t.tree.refill(n+1, vx, succs, preds)
}

// PostDominates reports whether a postdominates b (reflexively).
func (t *PostDomTree) PostDominates(a, b int) bool { return t.tree.Dominates(a, b) }

// Ipdom returns the immediate postdominator of u (possibly the virtual
// exit), or -1 if u was not reachable in the reversed graph.
func (t *PostDomTree) Ipdom(u int) int { return t.tree.Idom[u] }
