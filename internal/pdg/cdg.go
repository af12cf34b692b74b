// Package pdg builds the Program Dependence Graph of §4 of the paper for
// one scheduling region: the forward control dependence subgraph (CSPDG)
// computed per Ferrante/Ottenstein/Warren on the region's back-edge-free
// flow graph, the identically-control-dependent equivalence classes with
// their dominance orientation (Definitions 1–4), and the instruction
// level data dependence graph with machine delays (§4.2). Both parts are
// acyclic, so the whole PDG is acyclic (end of §4.2).
package pdg

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gsched/internal/cfg"
)

// CtrlDep records one control dependence: the dependent block executes
// iff control leaves block Node through successor edge Label (0 =
// fallthrough, 1 = taken branch).
type CtrlDep struct {
	Node  int
	Label int
}

func (c CtrlDep) String() string {
	cond := "F"
	if c.Label == 1 {
		cond = "T"
	}
	return fmt.Sprintf("(BL%d,%s)", c.Node+1, cond)
}

// CDG is the forward control dependence subgraph of a region. Deps and
// Succs are indexed by block number in the parent graph; rows of blocks
// outside the region are nil.
type CDG struct {
	// Deps[b] is the control dependence set of block b, sorted.
	Deps [][]CtrlDep
	// Succs[a] lists blocks directly control dependent on a (the CSPDG
	// children), sorted, without duplicates.
	Succs [][]int
	// nodes are the region's blocks, ascending (aliases the subgraph's
	// node list).
	nodes []int
	// keys[b] is the precomputed canonical control-dependence string of
	// block b; all keys share one backing string.
	keys []string

	// Storage that Refill reuses.
	count       []int
	depBacking  []CtrlDep
	succBacking []int
	buf         []byte
	span        []int
}

// Refill computes forward control dependences over the region's forward
// subgraph sg using its postdominator tree, reusing c's storage.
func (c *CDG) Refill(sg *cfg.Subgraph, pdom *cfg.PostDomTree) {
	n := sg.G.N()
	c.Deps = resized(c.Deps, n)
	c.Succs = resized(c.Succs, n)
	c.nodes = sg.Nodes
	c.keys = resized(c.keys, n)
	// Walk the dependence-generating edges twice: once to count rows, once
	// to fill them, so every row is carved from a single backing array.
	walk := func(visit func(m int, d CtrlDep)) {
		for _, a := range sg.Nodes {
			for label, b := range sg.Succs[a] {
				if pdom.PostDominates(b, a) {
					continue
				}
				// Every node on the postdominator-tree path from b up to
				// (exclusive) ipdom(a) is control dependent on (a, label).
				stop := pdom.Ipdom(a)
				for m := b; m != stop && m != pdom.VirtualExit; m = pdom.Ipdom(m) {
					visit(m, CtrlDep{Node: a, Label: label})
					if m == pdom.Ipdom(m) {
						break // defensive: malformed tree
					}
				}
			}
		}
	}
	c.count = resized(c.count, n)
	ndeps := c.count
	total := 0
	walk(func(m int, _ CtrlDep) { ndeps[m]++; total++ })
	c.depBacking = resized(c.depBacking, total)
	depBacking := c.depBacking
	for i := 0; i < n; i++ {
		if ndeps[i] > 0 {
			c.Deps[i], depBacking = depBacking[:0:ndeps[i]], depBacking[ndeps[i]:]
		}
	}
	walk(func(m int, d CtrlDep) { c.Deps[m] = append(c.Deps[m], d) })

	nsucc := resized(ndeps, n)
	for _, b := range sg.Nodes {
		deps := c.Deps[b]
		slices.SortFunc(deps, func(x, y CtrlDep) int {
			if x.Node != y.Node {
				return x.Node - y.Node
			}
			return x.Label - y.Label
		})
		for _, d := range deps {
			nsucc[d.Node]++
		}
	}
	c.succBacking = resized(c.succBacking, total)
	succBacking := c.succBacking
	for i := 0; i < n; i++ {
		if nsucc[i] > 0 {
			c.Succs[i], succBacking = succBacking[:0:nsucc[i]], succBacking[nsucc[i]:]
		}
	}
	for _, b := range sg.Nodes {
		for _, d := range c.Deps[b] {
			c.Succs[d.Node] = append(c.Succs[d.Node], b)
		}
	}
	for _, a := range sg.Nodes {
		s := c.Succs[a]
		slices.Sort(s)
		// Deduplicate (a block can depend on the same controller once
		// per label, but as a CSPDG child it appears once).
		out := s[:0]
		for i, v := range s {
			if i == 0 || v != s[i-1] {
				out = append(out, v)
			}
		}
		c.Succs[a] = out
	}

	// Precompute the canonical keys: all spans of one shared string.
	buf := c.buf[:0]
	span := resized(c.span, 2*n)
	for _, u := range sg.Nodes {
		span[2*u] = len(buf)
		for _, d := range c.Deps[u] {
			buf = strconv.AppendInt(buf, int64(d.Node), 10)
			buf = append(buf, '/')
			buf = strconv.AppendInt(buf, int64(d.Label), 10)
			buf = append(buf, ';')
		}
		span[2*u+1] = len(buf)
	}
	c.buf, c.span = buf, span
	all := string(buf)
	for _, u := range sg.Nodes {
		c.keys[u] = all[span[2*u]:span[2*u+1]]
	}
}

// Key returns a canonical string for b's control dependence set, used to
// find identically control dependent blocks.
func (c *CDG) Key(b int) string {
	if b < len(c.keys) {
		return c.keys[b]
	}
	return ""
}

// SpecDegree returns the number of branches gambled on when moving code
// from block b to block a (Definition 7: the CSPDG path length from a to
// b), or -1 if no CSPDG path exists. Equivalent blocks are at degree 0.
func (c *CDG) SpecDegree(a, b int) int {
	if c.Key(a) == c.Key(b) {
		return 0
	}
	// BFS over CSPDG edges a -> children.
	type item struct{ n, d int }
	seen := map[int]bool{a: true}
	queue := []item{{a, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, ch := range c.Succs[it.n] {
			if seen[ch] {
				continue
			}
			if ch == b {
				return it.d + 1
			}
			seen[ch] = true
			queue = append(queue, item{ch, it.d + 1})
		}
	}
	return -1
}

// String renders the CSPDG in the style of Figure 4.
func (c *CDG) String() string {
	var sb strings.Builder
	for _, b := range c.nodes {
		fmt.Fprintf(&sb, "BL%d:", b+1)
		if len(c.Deps[b]) == 0 {
			sb.WriteString(" -")
		}
		for _, d := range c.Deps[b] {
			sb.WriteString(" ")
			sb.WriteString(d.String())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
