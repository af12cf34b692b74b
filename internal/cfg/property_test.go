package cfg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gsched/internal/ir"
)

// randomCFG builds a random but valid function with n blocks: each block
// gets a label, one dummy instruction, and a random terminator
// (conditional branch, unconditional branch, fallthrough, or return).
// The last block always returns.
func randomCFG(r *rand.Rand, n int) *ir.Func {
	f := ir.NewFunc("rand")
	b := ir.NewBuilder(f)
	for k := 0; k < n; k++ {
		b.Block(fmt.Sprintf("L%d", k))
		b.LI(ir.GPR(0), int64(k))
	}
	for k := 0; k < n; k++ {
		b.At(f.Blocks[k])
		target := func() string { return fmt.Sprintf("L%d", r.Intn(n)) }
		if k == n-1 {
			b.Ret(ir.NoReg)
			continue
		}
		switch r.Intn(4) {
		case 0: // conditional branch + fallthrough
			cr := ir.CR(0)
			b.Cmp(cr, ir.GPR(0), ir.GPR(1))
			b.BT(target(), cr, ir.BitLT)
		case 1: // unconditional branch
			b.B(target())
		case 2: // return
			b.Ret(ir.NoReg)
		default: // fallthrough
		}
	}
	f.ReindexBlocks()
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// bruteDominates checks the definition directly: a dominates b iff b is
// unreachable from the entry when a is removed (and b is reachable at
// all).
func bruteDominates(g *Graph, a, b int) bool {
	reach := g.Reachable(0)
	if !reach[b] {
		return false
	}
	if a == b {
		return true
	}
	if a == 0 {
		return true
	}
	// BFS avoiding a.
	seen := make([]bool, g.N())
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == a {
			continue
		}
		for _, v := range g.Succs[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return !seen[b]
}

// TestDominatorsAgainstBruteForce validates the CHK implementation on
// random graphs via testing/quick.
func TestDominatorsAgainstBruteForce(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		f := randomCFG(r, n)
		g := Build(f)
		dom := dominators(g, 0)
		reach := g.Reachable(0)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !reach[a] || !reach[b] {
					continue
				}
				want := bruteDominates(g, a, b)
				got := dom.Dominates(a, b)
				if got != want {
					t.Logf("seed %d: dominates(%d,%d) = %v, brute force %v\n%s",
						seed, a, b, got, want, f)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 25
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDominatorAxioms: reflexivity, entry dominates everything reachable,
// transitivity, and idom is the unique closest strict dominator.
func TestDominatorAxioms(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		f := randomCFG(r, n)
		g := Build(f)
		dom := dominators(g, 0)
		reach := g.Reachable(0)
		for x := 0; x < n; x++ {
			if !reach[x] {
				continue
			}
			if !dom.Dominates(x, x) {
				t.Logf("seed %d: not reflexive at %d", seed, x)
				return false
			}
			if !dom.Dominates(0, x) {
				t.Logf("seed %d: entry does not dominate %d", seed, x)
				return false
			}
			// idom strictly dominates (except the root).
			if x != 0 {
				id := dom.Idom[x]
				if id < 0 || !dom.Dominates(id, x) {
					t.Logf("seed %d: idom(%d)=%d invalid", seed, x, id)
					return false
				}
			}
		}
		// Transitivity on sampled triples.
		for k := 0; k < 30; k++ {
			a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
			if reach[a] && reach[b] && reach[c] &&
				dom.Dominates(a, b) && dom.Dominates(b, c) && !dom.Dominates(a, c) {
				t.Logf("seed %d: transitivity broken (%d,%d,%d)", seed, a, b, c)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCondensationOrderProperty: for random graphs, the condensation
// order of the full subgraph view must place u before v whenever v is
// reachable from u but not vice versa.
func TestCondensationOrderProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		f := randomCFG(r, n)
		g := Build(f)
		reachSet := g.Reachable(0)
		var nodes []int
		for i := 0; i < n; i++ {
			if reachSet[i] {
				nodes = append(nodes, i)
			}
		}
		sg := g.Forward(nodes, 0, func(u, v int) bool { return false })
		order := sg.CondensationOrder()
		if len(order) != len(nodes) {
			t.Logf("seed %d: order %v misses nodes %v", seed, order, nodes)
			return false
		}
		pos := make(map[int]int)
		for i, u := range order {
			pos[u] = i
		}
		reach := sg.ReachableFrom()
		for _, u := range nodes {
			for _, v := range nodes {
				if u == v {
					continue
				}
				if reach.Reaches(u, v) && !reach.Reaches(v, u) && pos[u] > pos[v] {
					t.Logf("seed %d: %d should precede %d in %v\n%s", seed, u, v, order, f)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 25
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPostDominatorsOnForwardView: on the minmax-like acyclic views,
// postdominance is dominance on the reversed graph; validate the virtual
// exit plumbing with a brute-force check on random DAG subsets.
func TestPostDominatorsOnForwardView(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		f := randomCFG(r, n)
		g := Build(f)
		li := FindLoops(g)
		if li.Irreducible {
			return true // skip irreducible shapes
		}
		reach := g.Reachable(0)
		var nodes []int
		for i := 0; i < n; i++ {
			if reach[i] {
				nodes = append(nodes, i)
			}
		}
		sg := g.Forward(nodes, 0, li.IsBackEdge)
		pdom := postDominators(sg, nil)
		// Brute force: b postdominates a iff removing b cuts every
		// subgraph path from a to any exit (node with an edge to the
		// virtual exit = no subgraph successors here).
		exits := map[int]bool{}
		for _, u := range nodes {
			if len(sg.Succs[u]) == 0 {
				exits[u] = true
			}
		}
		canExitAvoiding := func(from, avoid int) bool {
			if from == avoid {
				return false
			}
			seen := map[int]bool{from: true}
			stack := []int{from}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if exits[u] {
					return true
				}
				for _, v := range sg.Succs[u] {
					if v != avoid && !seen[v] {
						seen[v] = true
						stack = append(stack, v)
					}
				}
			}
			return false
		}
		for _, a := range nodes {
			for _, b := range nodes {
				if a == b {
					continue
				}
				want := !canExitAvoiding(a, b)
				got := pdom.PostDominates(b, a)
				if got != want {
					t.Logf("seed %d: pdom(%d,%d)=%v want %v\n%s", seed, b, a, got, want, f)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
