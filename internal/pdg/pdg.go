package pdg

import (
	"slices"
	"strings"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/machine"
)

// PDG bundles everything the global scheduler needs about one region: the
// forward control dependence subgraph, equivalence classes, reachability,
// dominance, and the data dependence graph with machine delays.
type PDG struct {
	F      *ir.Func
	G      *cfg.Graph
	Region *cfg.Region

	Forward *cfg.Subgraph
	Topo    []int // region blocks in topological order of the forward subgraph
	Dom     *cfg.DomTree
	PDom    *cfg.PostDomTree
	CDG     *CDG
	Reach   *cfg.Reach
	DDG     *DDG

	// equivAll[b] lists all blocks identically control dependent with b
	// (excluding b), sorted; indexed by block number, nil outside the
	// region.
	equivAll [][]int
	// equivDom[b] is EQUIV(b) per Definition 3 — the members of
	// equivAll[b] dominated by b that postdominate b — precomputed so the
	// scheduler's repeated Equiv calls allocate nothing.
	equivDom [][]int

	// b is the DDG builder this PDG was assembled with; RebuildDDG
	// reuses its arenas. Non-nil.
	b *Builder
}

// Build assembles the PDG of a region. blocks should be the region's
// blocks (r.Blocks); the DDG always covers all of them so instructions of
// nested regions participate as immovable dependence sources and sinks.
func Build(f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region, mach *machine.Desc) (*PDG, error) {
	return BuildWith(nil, f, g, li, r, mach)
}

// BuildWith is Build using the given builder (nil for a fresh one).
// Every part of the result — the PDG itself, its subgraph views,
// postdominators, CDG, reachability, equivalence tables and DDG — lives
// in the builder's storage, which the next build on the same builder
// overwrites: the PDG is valid until then.
func BuildWith(b *Builder, f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region, mach *machine.Desc) (*PDG, error) {
	if b == nil {
		b = NewBuilder()
	}
	sg := &b.forward
	sg.Refill(g, r.Blocks, r.Header, li.IsBackEdge)
	if _, err := sg.Topological(); err != nil {
		return nil, err
	}
	b.exits = cfg.RegionExits(b.exits[:0], g, li, r)
	pdom := &b.pdom
	pdom.Refill(sg, b.exits)
	cdg := &b.cdg
	cdg.Refill(sg, pdom)
	// Data dependences use reachability in the control flow graph
	// (§4.2: "such that B is reachable from A in the control flow
	// graph"), not the acyclic forward view: a block after a nested
	// loop IS reachable from the loop's body, and instructions must
	// not migrate across the loop against such dependences. Only the
	// region's own back edges are cut (one-iteration scheduling);
	// nested regions keep their cycles, so paths through them survive.
	depView := &b.depView
	depView.Refill(g, r.Blocks, r.Header, func(u, v int) bool {
		return v == r.Header && li.IsBackEdge(u, v)
	})
	reach := depView.ReachableFrom()
	ddg := b.BuildDDG(f, r.Blocks, reach, mach)

	p := &b.pdg
	*p = PDG{
		F: f, G: g, Region: r, b: b,
		Forward: sg,
		// Sessions must follow CFG-path order (§5.1), which the
		// dependence view's condensation provides: a block after a
		// nested loop is processed after every block of that loop,
		// even when the layout interleaves them (e.g. break blocks).
		Topo: depView.CondensationOrder(),
		Dom:  li.Dom(), PDom: pdom,
		CDG: cdg, Reach: reach, DDG: ddg,
		equivAll: resized(b.equivAll, g.N()),
		equivDom: resized(b.equivDom, g.N()),
	}
	b.equivAll, b.equivDom = p.equivAll, p.equivDom
	// Group the region's blocks by control-dependence key: sorted by
	// key, then block, each group is a run of ascending blocks.
	byKey := append(b.byKey[:0], r.Blocks...)
	slices.SortFunc(byKey, func(x, y int) int {
		if c := strings.Compare(cdg.Key(x), cdg.Key(y)); c != 0 {
			return c
		}
		return x - y
	})
	b.byKey = byKey
	// Both equivalence tables are carved from single backing arrays:
	// every block of a k-member group contributes k-1 entries.
	total := 0
	forGroups(byKey, cdg, func(group []int) { total += len(group) * (len(group) - 1) })
	b.equivBacking = resized(b.equivBacking, 2*total)
	allB, domB := b.equivBacking[:total], b.equivBacking[total:]
	forGroups(byKey, cdg, func(group []int) {
		for _, b := range group {
			row := allB[: 0 : len(group)-1]
			allB = allB[len(group)-1:]
			dom := domB[: 0 : len(group)-1]
			domB = domB[len(group)-1:]
			for _, o := range group {
				if o == b {
					continue
				}
				row = append(row, o)
				if p.Dom.Dominates(b, o) && p.PDom.PostDominates(o, b) {
					dom = append(dom, o)
				}
			}
			if len(row) > 0 {
				p.equivAll[b] = row
			}
			if len(dom) > 0 {
				p.equivDom[b] = dom
			}
		}
	})
	return p, nil
}

// forGroups calls fn with every run of blocks sharing one control
// dependence key in blocks, which is sorted by key.
func forGroups(blocks []int, cdg *CDG, fn func(group []int)) {
	for lo := 0; lo < len(blocks); {
		hi := lo + 1
		for hi < len(blocks) && cdg.Key(blocks[hi]) == cdg.Key(blocks[lo]) {
			hi++
		}
		fn(blocks[lo:hi])
		lo = hi
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

// RebuildDDG recomputes the data dependence graph over the region's
// current instructions. Scheduling with duplication inserts cloned
// instructions that the original DDG does not know; callers must rebuild
// before any later session consults dependences.
func (p *PDG) RebuildDDG(mach *machine.Desc) {
	p.DDG = p.b.BuildDDG(p.F, p.Region.Blocks, p.Reach, mach)
}

// Equivalent reports whether blocks a and b are equivalent (Definition 3:
// a dominates b and b postdominates a), found via identical control
// dependences as §4.1 prescribes, and confirmed on the dominator and
// postdominator trees.
func (p *PDG) Equivalent(a, b int) bool {
	if a == b {
		return true
	}
	if p.CDG.Key(a) != p.CDG.Key(b) {
		return false
	}
	return (p.Dom.Dominates(a, b) && p.PDom.PostDominates(b, a)) ||
		(p.Dom.Dominates(b, a) && p.PDom.PostDominates(a, b))
}

// Equiv returns EQUIV(A): the blocks equivalent to a and dominated by a
// (the candidates for useful motion into a), sorted ascending. The
// result is precomputed at build time; callers must not modify it.
func (p *PDG) Equiv(a int) []int {
	if a < 0 || a >= len(p.equivDom) {
		return nil
	}
	return p.equivDom[a]
}

// SpecCandidates returns the additional candidate blocks for 1-branch
// speculative scheduling into a (§5.1): the immediate CSPDG successors of
// a and of every member of EQUIV(a), excluding blocks already equivalent
// to a, restricted to blocks dominated by a (no-duplication limitation:
// Definition 6 forbids moving from b when a does not dominate b).
func (p *PDG) SpecCandidates(a int) []int { return p.SpecCandidatesN(a, 1) }

// SpecCandidatesN generalises SpecCandidates to n-branch speculation
// (Definition 7): blocks within CSPDG distance n of a or of a member of
// EQUIV(a). The paper implements n = 1 and leaves larger n as future
// work; both are supported here. The result lives in the builder's
// storage: it is valid until the next call on p.
func (p *PDG) SpecCandidatesN(a, n int) []int {
	s := &p.b.spec
	if len(s.seen) < len(p.equivDom) {
		s.seen = make([]int, len(p.equivDom))
	}
	s.stamp++ // seen[b] == stamp marks b seen in this call
	eq := p.Equiv(a)
	s.seen[a] = s.stamp
	for _, b := range eq {
		s.seen[b] = s.stamp
	}
	frontier := append(append(s.frontier[:0], a), eq...)
	next := s.next[:0]
	out := s.out[:0]
	for depth := 0; depth < n; depth++ {
		next = next[:0]
		for _, node := range frontier {
			for _, ch := range p.CDG.Succs[node] {
				if s.seen[ch] == s.stamp || !p.Dom.Dominates(a, ch) {
					continue
				}
				s.seen[ch] = s.stamp
				out = append(out, ch)
				next = append(next, ch)
			}
		}
		frontier, next = next, frontier
	}
	slices.Sort(out)
	s.frontier, s.next, s.out = frontier, next, out
	return out
}

// ExecProb estimates the probability that block b executes given that
// block a executes, from an edge profile: control dependence sets are
// not transitive, so the estimate recurses through each controlling
// block (the forward CDG is acyclic). Dependences already implied by a
// contribute probability one; unprofiled branches count as 0.5.
func (p *PDG) ExecProb(a, b int, takenProb func(branchInstr *ir.Instr) float64) float64 {
	have := make(map[CtrlDep]bool)
	for _, d := range p.CDG.Deps[a] {
		have[d] = true
	}
	memo := make(map[int]float64)
	var probOf func(int) float64
	probOf = func(n int) float64 {
		if n == a {
			return 1
		}
		if v, ok := memo[n]; ok {
			return v
		}
		memo[n] = 1 // break accidental cycles defensively
		prob := 1.0
		for _, d := range p.CDG.Deps[n] {
			if have[d] {
				continue
			}
			edge := 1.0
			ctrl := p.F.Blocks[d.Node]
			if t := ctrl.Terminator(); t != nil && t.Op == ir.OpBC {
				tp := takenProb(t)
				if d.Label == 1 {
					edge = tp
				} else {
					edge = 1 - tp
				}
			}
			prob *= edge * probOf(d.Node)
		}
		memo[n] = prob
		return prob
	}
	return probOf(b)
}
