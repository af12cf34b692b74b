package cfg

import (
	"reflect"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/paperex"
)

// bl maps the paper's BL numbers (1-based, Figure 3) to block indices of
// the paperex.MinMax function (prologue is block 0).
func bl(n int) int { return n }

func minmaxGraph(t *testing.T) (*Graph, *ir.Func) {
	t.Helper()
	_, f := paperex.MinMax()
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return Build(f), f
}

func TestMinMaxEdges(t *testing.T) {
	g, _ := minmaxGraph(t)
	want := map[int][]int{
		0:      {bl(1), 11},     // entry: fallthrough BL1, taken exit
		bl(1):  {bl(2), bl(6)},  // I4 BF CL.4
		bl(2):  {bl(3), bl(4)},  // I6 BF CL.6
		bl(3):  {bl(4)},         // fallthrough
		bl(4):  {bl(5), bl(10)}, // I9 BF CL.9
		bl(5):  {bl(10)},        // I11 B CL.9
		bl(6):  {bl(7), bl(8)},  // I13 BF CL.11
		bl(7):  {bl(8)},         // fallthrough
		bl(8):  {bl(9), bl(10)}, // I16 BF CL.9
		bl(9):  {bl(10)},        // fallthrough
		bl(10): {11, bl(1)},     // I20 BT CL.0: fallthrough exit, taken back edge
		11:     nil,             // epilogue: RET
	}
	for u, w := range want {
		if !reflect.DeepEqual(g.Succs[u], w) {
			t.Errorf("succs(%d) = %v, want %v", u, g.Succs[u], w)
		}
	}
}

func TestMinMaxDominators(t *testing.T) {
	g, _ := minmaxGraph(t)
	dom := dominators(g, 0)
	// BL1 dominates every loop block; BL10 dominates none of them but
	// itself; everything is dominated by the entry.
	for b := bl(1); b <= bl(10); b++ {
		if !dom.Dominates(bl(1), b) {
			t.Errorf("BL1 should dominate BL%d", b)
		}
		if !dom.Dominates(0, b) {
			t.Errorf("entry should dominate BL%d", b)
		}
	}
	if dom.Dominates(bl(2), bl(10)) {
		t.Error("BL2 must not dominate BL10 (the CL.4 side bypasses it)")
	}
	if got := dom.Idom[bl(10)]; got != bl(1) {
		t.Errorf("idom(BL10) = %d, want BL1", got)
	}
	if got := dom.Idom[bl(4)]; got != bl(2) {
		t.Errorf("idom(BL4) = %d, want BL2", got)
	}
}

func TestMinMaxLoops(t *testing.T) {
	g, _ := minmaxGraph(t)
	li := FindLoops(g)
	if li.Irreducible {
		t.Fatal("minmax is reducible")
	}
	if !li.IsBackEdge(bl(10), bl(1)) {
		t.Error("BL10->BL1 should be the back edge")
	}
	if li.IsBackEdge(bl(1), bl(2)) {
		t.Error("BL1->BL2 is not a back edge")
	}
	root := li.Root
	if root.IsLoop || root.Header != 0 {
		t.Errorf("root region = %v", root)
	}
	if len(root.Inner) != 1 {
		t.Fatalf("want 1 top-level loop, got %d", len(root.Inner))
	}
	loop := root.Inner[0]
	if !loop.IsLoop || loop.Header != bl(1) || loop.Depth != 1 {
		t.Errorf("loop = %v depth=%d", loop, loop.Depth)
	}
	wantBlocks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !reflect.DeepEqual(loop.Blocks, wantBlocks) {
		t.Errorf("loop blocks = %v, want %v", loop.Blocks, wantBlocks)
	}
	if !loop.IsInner() {
		t.Error("the minmax loop is an inner region")
	}
	if got := loop.OwnBlocks(); !reflect.DeepEqual(got, wantBlocks) {
		t.Errorf("OwnBlocks = %v, want %v", got, wantBlocks)
	}
}

func TestMinMaxForwardTopological(t *testing.T) {
	g, _ := minmaxGraph(t)
	li := FindLoops(g)
	loop := li.Root.Inner[0]
	sg := g.Forward(loop.Blocks, loop.Header, li.IsBackEdge)
	order, err := sg.Topological()
	if err != nil {
		t.Fatalf("Topological: %v", err)
	}
	pos := make(map[int]int)
	for i, b := range order {
		pos[b] = i
	}
	mustPrecede := [][2]int{{1, 2}, {1, 6}, {2, 3}, {2, 4}, {6, 8}, {4, 10}, {8, 10}, {5, 10}, {9, 10}}
	for _, pr := range mustPrecede {
		if pos[pr[0]] >= pos[pr[1]] {
			t.Errorf("topological order %v: BL%d should precede BL%d", order, pr[0], pr[1])
		}
	}
	if order[0] != bl(1) || order[len(order)-1] != bl(10) {
		t.Errorf("order = %v, want BL1 first and BL10 last", order)
	}
}

func TestMinMaxPostDominators(t *testing.T) {
	g, _ := minmaxGraph(t)
	li := FindLoops(g)
	loop := li.Root.Inner[0]
	sg := g.Forward(loop.Blocks, loop.Header, li.IsBackEdge)
	pdom := postDominators(sg, RegionExits(nil, g, li, loop))
	// Within the loop's forward body, BL10 postdominates everything.
	for b := bl(1); b <= bl(9); b++ {
		if !pdom.PostDominates(bl(10), b) {
			t.Errorf("BL10 should postdominate BL%d", b)
		}
	}
	// BL4 postdominates BL2 (both paths from BL2 reach BL4) but not BL1.
	if !pdom.PostDominates(bl(4), bl(2)) {
		t.Error("BL4 should postdominate BL2")
	}
	if pdom.PostDominates(bl(4), bl(1)) {
		t.Error("BL4 must not postdominate BL1")
	}
	// Equivalence pairs of the paper (§4.1): BL1~BL10, BL2~BL4, BL6~BL8.
	dom := dominators(g, 0)
	equiv := func(a, b int) bool { return dom.Dominates(a, b) && pdom.PostDominates(b, a) }
	for _, pr := range [][2]int{{1, 10}, {2, 4}, {6, 8}} {
		if !equiv(pr[0], pr[1]) {
			t.Errorf("BL%d and BL%d should be equivalent", pr[0], pr[1])
		}
	}
	if equiv(bl(2), bl(10)) {
		t.Error("BL2 and BL10 are not equivalent")
	}
}

func TestReachableFrom(t *testing.T) {
	g, _ := minmaxGraph(t)
	li := FindLoops(g)
	loop := li.Root.Inner[0]
	sg := g.Forward(loop.Blocks, loop.Header, li.IsBackEdge)
	reach := sg.ReachableFrom()
	if !reach.Reaches(bl(1), bl(10)) {
		t.Error("BL10 should be reachable from BL1")
	}
	if reach.Reaches(bl(2), bl(6)) {
		t.Error("BL6 must not be reachable from BL2 in the forward body")
	}
	if !reach.Reaches(bl(6), bl(10)) {
		t.Error("BL10 should be reachable from BL6")
	}
	if reach.Reaches(bl(10), bl(1)) {
		t.Error("back edge must not make BL1 reachable from BL10 in the forward view")
	}
}

func TestIrreducibleDetection(t *testing.T) {
	// Two blocks jumping into each other with two entries:
	//   0 -> 1, 0 -> 2, 1 -> 2, 2 -> 1 (classic irreducible pair).
	f := ir.NewFunc("irr")
	b := ir.NewBuilder(f)
	b.Block("e")
	b.Cmp(ir.CR(0), ir.GPR(0), ir.GPR(1))
	b.BF("L2", ir.CR(0), ir.BitGT)
	b.Block("L1")
	b.Cmp(ir.CR(1), ir.GPR(0), ir.GPR(1))
	b.BT("L2", ir.CR(1), ir.BitLT)
	b.Block("dummy")
	b.B("L1")
	b.Block("L2")
	b.Cmp(ir.CR(2), ir.GPR(0), ir.GPR(1))
	b.BT("L1", ir.CR(2), ir.BitEQ)
	b.Block("x")
	b.Ret(ir.NoReg)
	f.ReindexBlocks()
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	g := Build(f)
	li := FindLoops(g)
	if !li.Irreducible {
		t.Error("graph with a two-entry cycle should be flagged irreducible")
	}
}

func TestNestedLoops(t *testing.T) {
	// for(i..) { for(j..) {} } — classic doubly nested counting loops.
	f := ir.NewFunc("nest")
	b := ir.NewBuilder(f)
	i, j, n, cr := ir.GPR(0), ir.GPR(1), ir.GPR(2), ir.CR(0)
	b.Block("entry")
	b.LI(i, 0)
	b.Block("outer")
	b.LI(j, 0)
	b.Block("inner")
	b.AI(j, j, 1)
	b.Cmp(cr, j, n)
	b.BT("inner", cr, ir.BitLT)
	b.Block("latch")
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	b.BT("outer", cr, ir.BitLT)
	b.Block("exit")
	b.Ret(ir.NoReg)
	f.ReindexBlocks()
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	g := Build(f)
	li := FindLoops(g)
	if li.Irreducible {
		t.Fatal("nested counting loops are reducible")
	}
	if len(li.Root.Inner) != 1 {
		t.Fatalf("want 1 top-level loop, got %d", len(li.Root.Inner))
	}
	outer := li.Root.Inner[0]
	if len(outer.Inner) != 1 {
		t.Fatalf("want 1 nested loop, got %d", len(outer.Inner))
	}
	inner := outer.Inner[0]
	if inner.Header != 2 || !inner.IsInner() || inner.Depth != 2 {
		t.Errorf("inner loop = %v depth=%d", inner, inner.Depth)
	}
	if !reflect.DeepEqual(outer.OwnBlocks(), []int{1, 3}) {
		t.Errorf("outer own blocks = %v, want [1 3]", outer.OwnBlocks())
	}
	// Innermost-first walk order.
	var seen []*Region
	li.Root.Walk(func(r *Region) { seen = append(seen, r) })
	if len(seen) != 3 || seen[0] != inner || seen[1] != outer || seen[2] != li.Root {
		t.Errorf("walk order wrong: %v", seen)
	}
}
