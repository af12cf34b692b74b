package cfg

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Region is the paper's scheduling unit (§5.1): either a strongly
// connected component corresponding to a natural loop (IsLoop true), or
// the body of the function without the enclosed loops (the root region,
// IsLoop false). Blocks contains every block of the region including
// blocks of nested regions; Inner lists the directly nested regions.
type Region struct {
	Header int
	Blocks []int // sorted ascending; includes Header and nested blocks
	Inner  []*Region
	Parent *Region
	IsLoop bool
	Depth  int // 0 for the root (function body), 1 for top-level loops, ...
	Height int // 0 for inner regions, else 1 + the largest child Height

	row int // index in the LoopInfo's region storage
}

// Contains reports whether block b belongs to the region.
func (r *Region) Contains(b int) bool {
	i := sort.SearchInts(r.Blocks, b)
	return i < len(r.Blocks) && r.Blocks[i] == b
}

// IsInner reports whether the region contains no nested regions (the
// paper's "inner region").
func (r *Region) IsInner() bool { return len(r.Inner) == 0 }

// OwnBlocks returns the blocks belonging to this region but not to any
// nested region. Instructions of nested regions are pinned when this
// region is scheduled (nothing moves in or out of a region).
func (r *Region) OwnBlocks() []int {
	nested := make(map[int]bool)
	for _, in := range r.Inner {
		for _, b := range in.Blocks {
			nested[b] = true
		}
	}
	var own []int
	for _, b := range r.Blocks {
		if !nested[b] {
			own = append(own, b)
		}
	}
	return own
}

// Walk visits the region tree innermost-first (children before parents).
func (r *Region) Walk(fn func(*Region)) {
	for _, in := range r.Inner {
		in.Walk(fn)
	}
	fn(r)
}

func (r *Region) String() string {
	kind := "body"
	if r.IsLoop {
		kind = "loop"
	}
	return fmt.Sprintf("%s@BL%d%v", kind, r.Header+1, r.Blocks)
}

// LoopInfo summarises the loop structure of a function.
type LoopInfo struct {
	G *Graph
	// Root is the function-body region containing everything reachable.
	Root *Region
	// Irreducible is true when some cycle is not a natural loop; the
	// paper schedules only reducible regions, so irreducible functions
	// are left to the basic block scheduler.
	Irreducible bool

	dom DomTree
	// reach[u] reports whether u is reachable from the entry.
	reach []bool
	// backs[u] lists the headers v such that u->v is a back edge.
	backs [][]int

	// Storage that Refill reuses.
	backBacking []int
	headers     []int    // loop headers in discovery order
	rowOf       []int    // header block -> its row in rows, or -1
	rows        []uint64 // one bitset of member blocks per header
	stack       []int
	regions     []Region // the loops in header discovery order, then the root
	order       []*Region
	blocks      []int
	nInner      []int // per region row
	inner       []*Region
	color       []uint8
	frames      [][2]int
}

// FindLoops discovers natural loops and builds the region tree. Entry is
// block 0.
func FindLoops(g *Graph) *LoopInfo {
	li := new(LoopInfo)
	li.Refill(g)
	return li
}

// Refill recomputes li as FindLoops(g) does, reusing li's storage: loop
// bodies are bitset rows, one per header, and back edges are per-block
// lists, so a refill allocates only when g is larger than every graph
// li has seen. Regions of an earlier fill are overwritten.
func (li *LoopInfo) Refill(g *Graph) {
	n := g.N()
	li.G = g
	li.dom.refill(n, 0, g.Succs, g.Preds)
	dom := &li.dom
	li.reach, li.stack = g.reachInto(li.reach, li.stack, 0)
	reach := li.reach

	// Back edges: u->v with v dominating u. A block has at most two
	// successors, so its list is carved with room for both.
	li.backs = resized(li.backs, n)
	li.backBacking = resized(li.backBacking, 2*n)
	words := (n + 63) / 64
	li.rowOf = resized(li.rowOf, n)
	for i := range li.rowOf {
		li.rowOf[i] = -1
	}
	li.headers, li.rows = li.headers[:0], li.rows[:0]
	for u := 0; u < n; u++ {
		if !reach[u] {
			continue
		}
		for _, v := range g.Succs[u] {
			if !dom.Dominates(v, u) {
				continue
			}
			if li.backs[u] == nil {
				li.backs[u] = li.backBacking[2*u : 2*u : 2*u+2]
			}
			li.backs[u] = append(li.backs[u], v)
			k := li.rowOf[v]
			if k < 0 {
				k = len(li.headers)
				li.rowOf[v] = k
				li.headers = append(li.headers, v)
				li.rows = slices.Grow(li.rows, words)[:len(li.rows)+words]
				clear(li.rows[k*words:])
				setBit(li.rows[k*words:], v)
			}
			// Natural loop: v plus all nodes reaching u without
			// passing through v.
			row := li.rows[k*words : (k+1)*words]
			if hasBit(row, u) {
				continue
			}
			setBit(row, u)
			stack := append(li.stack[:0], u)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range g.Preds[x] {
					if reach[p] && !hasBit(row, p) {
						setBit(row, p)
						stack = append(stack, p)
					}
				}
			}
			li.stack = stack
		}
	}

	// Reducibility: with the discovered back edges removed, the
	// reachable graph must be acyclic.
	li.Irreducible = li.hasCycleWithoutBackEdges()

	// Materialise the regions: one per loop, then the root, which
	// covers everything reachable. Every Blocks row is carved from one
	// backing array and every Inner row from another.
	nl := len(li.headers)
	total := 0
	for _, w := range li.rows {
		total += bits.OnesCount64(w)
	}
	for _, r := range reach {
		if r {
			total++
		}
	}
	li.regions = resized(li.regions, nl+1)
	li.blocks = resized(li.blocks, total)
	li.order = li.order[:0]
	backing := li.blocks
	for k, h := range li.headers {
		r := &li.regions[k]
		r.Header, r.IsLoop, r.row = h, true, k
		r.Blocks = appendBits(backing[:0], li.rows[k*words:(k+1)*words])
		r.Blocks = r.Blocks[:len(r.Blocks):len(r.Blocks)] // an append must not reach the next row
		backing = backing[len(r.Blocks):]
		li.order = append(li.order, r)
	}
	// Deterministic order: by size ascending then header (inner loops are
	// strictly smaller than the loops containing them).
	slices.SortFunc(li.order, func(a, b *Region) int {
		if len(a.Blocks) != len(b.Blocks) {
			return len(a.Blocks) - len(b.Blocks)
		}
		return a.Header - b.Header
	})
	root := &li.regions[nl]
	root.row = nl
	root.Blocks = backing[:0]
	for b := 0; b < n; b++ {
		if reach[b] {
			root.Blocks = append(root.Blocks, b)
		}
	}

	// Nest each loop in the smallest strictly-containing region, then
	// carve every region's Inner row and fill it in nesting order.
	li.nInner = resized(li.nInner, nl+1)
	for i, r := range li.order {
		r.Parent = root
		for _, c := range li.order[i+1:] {
			if len(c.Blocks) > len(r.Blocks) && hasBit(li.rows[c.row*words:], r.Header) {
				r.Parent = c
				break
			}
		}
		li.nInner[r.Parent.row]++
	}
	li.inner = resized(li.inner, nl)
	inner := li.inner
	for k := range li.regions {
		r := &li.regions[k]
		c := li.nInner[k]
		r.Inner, inner = inner[:0:c], inner[c:]
	}
	for _, r := range li.order {
		r.Parent.Inner = append(r.Parent.Inner, r)
	}
	root.setDepth(0)
	li.Root = root
}

// setDepth sets the Depth of r and its descendants, r's being d, sorts
// every Inner list by header, and sets and returns r's Height.
func (r *Region) setDepth(d int) int {
	r.Depth = d
	slices.SortFunc(r.Inner, func(a, b *Region) int { return a.Header - b.Header })
	r.Height = 0
	for _, in := range r.Inner {
		if h := in.setDepth(d+1) + 1; h > r.Height {
			r.Height = h
		}
	}
	return r.Height
}

func setBit(row []uint64, b int)      { row[b/64] |= 1 << (uint(b) % 64) }
func hasBit(row []uint64, b int) bool { return row[b/64]&(1<<(uint(b)%64)) != 0 }

// appendBits appends the members of row to dst, ascending.
func appendBits(dst []int, row []uint64) []int {
	for w, v := range row {
		for ; v != 0; v &= v - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(v))
		}
	}
	return dst
}

// IsBackEdge reports whether u->v is a back edge of some natural loop.
func (li *LoopInfo) IsBackEdge(u, v int) bool {
	if u < 0 || u >= len(li.backs) {
		return false
	}
	for _, h := range li.backs[u] {
		if h == v {
			return true
		}
	}
	return false
}

// Dom returns the dominator tree used for loop discovery.
func (li *LoopInfo) Dom() *DomTree { return &li.dom }

// hasCycleWithoutBackEdges reports whether the reachable graph minus
// the back edges contains a cycle: an iterative three-colour
// depth-first search.
func (li *LoopInfo) hasCycleWithoutBackEdges() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	g := li.G
	li.color = resized(li.color, g.N())
	color := li.color
	stack := li.frames[:0]
	defer func() { li.frames = stack[:0] }()
	for s := 0; s < g.N(); s++ {
		if !li.reach[s] || color[s] != white {
			continue
		}
		color[s] = grey
		stack = append(stack, [2]int{s, 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			u := top[0]
			if top[1] == len(g.Succs[u]) {
				color[u] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := g.Succs[u][top[1]]
			top[1]++
			if li.IsBackEdge(u, v) {
				continue
			}
			switch color[v] {
			case grey:
				return true
			case white:
				color[v] = grey
				stack = append(stack, [2]int{v, 0})
			}
		}
	}
	return false
}

// RegionExits returns the member nodes of the region that can leave its
// forward view: nodes with an edge out of the region, a back edge (the
// loop-continuing jump leaves the forward body), or a function exit.
// They are appended to exits, which is returned.
func RegionExits(exits []int, g *Graph, li *LoopInfo, r *Region) []int {
	for _, u := range r.Blocks {
		isExit := len(g.Succs[u]) == 0
		for _, v := range g.Succs[u] {
			if !r.Contains(v) || li.IsBackEdge(u, v) {
				isExit = true
			}
		}
		if isExit {
			exits = append(exits, u)
		}
	}
	return exits
}
