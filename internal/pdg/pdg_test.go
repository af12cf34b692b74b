package pdg

import (
	"reflect"
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/paperex"
)

func minmaxPDG(t *testing.T) (*PDG, *ir.Func) {
	t.Helper()
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	li := cfg.FindLoops(g)
	if len(li.Root.Inner) != 1 {
		t.Fatalf("want one loop, got %d", len(li.Root.Inner))
	}
	p, err := Build(f, g, li, li.Root.Inner[0], machine.RS6K())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p, f
}

// TestFigure4ControlDependences checks the CSPDG of Figure 4: BL2 and BL4
// depend on (BL1,TRUE); BL6 and BL8 on (BL1,FALSE); BL3 on BL2; BL5 on
// BL4; BL7 on BL6; BL9 on BL8; BL1 and BL10 depend on nothing.
func TestFigure4ControlDependences(t *testing.T) {
	p, _ := minmaxPDG(t)
	// In our layout, the "TRUE" side of I4 (u>v) is the fallthrough
	// (label 0) and the CL.4 target is label 1.
	want := map[int][]CtrlDep{
		1:  nil,
		10: nil,
		2:  {{Node: 1, Label: 0}},
		4:  {{Node: 1, Label: 0}},
		6:  {{Node: 1, Label: 1}},
		8:  {{Node: 1, Label: 1}},
		3:  {{Node: 2, Label: 0}},
		5:  {{Node: 4, Label: 0}},
		7:  {{Node: 6, Label: 0}},
		9:  {{Node: 8, Label: 0}},
	}
	for b, deps := range want {
		got := p.CDG.Deps[b]
		if len(got) == 0 && len(deps) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, deps) {
			t.Errorf("CD(BL%d) = %v, want %v", b, got, deps)
		}
	}
}

func TestEquivalenceClasses(t *testing.T) {
	p, _ := minmaxPDG(t)
	for _, pr := range [][2]int{{1, 10}, {2, 4}, {6, 8}} {
		if !p.Equivalent(pr[0], pr[1]) {
			t.Errorf("BL%d ~ BL%d expected", pr[0], pr[1])
		}
	}
	for _, pr := range [][2]int{{1, 2}, {2, 6}, {3, 5}, {2, 10}} {
		if p.Equivalent(pr[0], pr[1]) {
			t.Errorf("BL%d ~ BL%d not expected", pr[0], pr[1])
		}
	}
	// EQUIV is oriented by dominance (dashed edges of Figure 4).
	if got := p.Equiv(1); !reflect.DeepEqual(got, []int{10}) {
		t.Errorf("EQUIV(BL1) = %v, want [10]", got)
	}
	if got := p.Equiv(10); got != nil {
		t.Errorf("EQUIV(BL10) = %v, want empty (BL10 does not dominate BL1)", got)
	}
	if got := p.Equiv(2); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("EQUIV(BL2) = %v, want [4]", got)
	}
	if got := p.Equiv(6); !reflect.DeepEqual(got, []int{8}) {
		t.Errorf("EQUIV(BL6) = %v, want [8]", got)
	}
}

// TestSpecDegree checks Definition 7 on the paper's own examples: moving
// from BL8 to BL1 gambles on one branch; from BL5 to BL1 on two.
func TestSpecDegree(t *testing.T) {
	p, _ := minmaxPDG(t)
	if got := p.CDG.SpecDegree(1, 8); got != 1 {
		t.Errorf("degree BL1<-BL8 = %d, want 1", got)
	}
	if got := p.CDG.SpecDegree(1, 5); got != 2 {
		t.Errorf("degree BL1<-BL5 = %d, want 2", got)
	}
	if got := p.CDG.SpecDegree(1, 10); got != 0 {
		t.Errorf("degree BL1<-BL10 = %d, want 0 (useful)", got)
	}
	if got := p.CDG.SpecDegree(2, 6); got != -1 {
		t.Errorf("degree BL2<-BL6 = %d, want -1 (no CSPDG path)", got)
	}
}

// TestSpecCandidates checks §5.1's candidate blocks for 1-branch
// speculative scheduling of BL1: the CSPDG successors of BL1 and of
// EQUIV(BL1)={BL10}, i.e. BL2, BL4, BL6, BL8.
func TestSpecCandidates(t *testing.T) {
	p, _ := minmaxPDG(t)
	if got := p.SpecCandidates(1); !reflect.DeepEqual(got, []int{2, 4, 6, 8}) {
		t.Errorf("spec candidates of BL1 = %v, want [2 4 6 8]", got)
	}
	// Rule 2c of §5.1: the CSPDG successors of EQUIV(BL2)={BL4} are
	// candidates too, so BL5 joins BL3.
	if got := p.SpecCandidates(2); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("spec candidates of BL2 = %v, want [3 5]", got)
	}
}

// TestBL1DataDependences reproduces the §4.2 walk-through of BL1's
// dependences: anti (I1,I2) on r31; flow (I1,I3) and (I2,I3) with a one
// cycle delay on the delayed load edge (I2,I3); flow (I3,I4) with a three
// cycle delay.
func TestBL1DataDependences(t *testing.T) {
	p, f := minmaxPDG(t)
	bl1 := f.Blocks[1]
	i1, i2, i3, i4 := bl1.Instrs[0], bl1.Instrs[1], bl1.Instrs[2], bl1.Instrs[3]

	find := func(from, to *ir.Instr, kind DepKind) *DepEdge {
		for _, e := range p.DDG.Succs[from.ID] {
			if e.To == to && e.Kind == kind {
				return &e
			}
		}
		return nil
	}
	if e := find(i1, i2, depAnti); e == nil || e.Reg != paperex.RegA {
		t.Errorf("missing anti (I1,I2) on r31: %+v", e)
	}
	// I1 is itself a load, so its flow edge to I3 carries the delayed
	// load delay as well (the paper elides the edge as transitive for
	// compile time; we keep it).
	if e := find(i1, i3, depFlow); e == nil || e.Delay != 1 {
		t.Errorf("flow (I1,I3) should exist with delay 1: %+v", e)
	}
	if e := find(i2, i3, depFlow); e == nil || e.Delay != 1 {
		t.Errorf("flow (I2,I3) should carry the delayed-load delay 1: %+v", e)
	}
	if e := find(i3, i4, depFlow); e == nil || e.Delay != 3 {
		t.Errorf("flow (I3,I4) should carry the compare-branch delay 3: %+v", e)
	}
	// No load-load memory edge between I1 and I2.
	if e := find(i1, i2, depMem); e != nil {
		t.Error("loads must not conflict with loads")
	}
}

// TestInterBlockDependences: I18 (AI r29) in BL10 has an output
// dependence with nothing, but I19 (C cr4=r29,r27) depends on I18; and
// the BL3 update LR r30=r12 (I7) feeds the BL8 compare via... no path
// (BL3 and BL8 are on exclusive sides), so no edge; but BL2's I5 reads
// r30 and BL3's I7 writes it: anti (I5, I7).
func TestInterBlockDependences(t *testing.T) {
	p, f := minmaxPDG(t)
	i5 := f.Blocks[2].Instrs[0]
	i7 := f.Blocks[3].Instrs[0]
	i12 := f.Blocks[6].Instrs[0]
	var foundAnti, crossEdge bool
	for _, e := range p.DDG.Succs[i5.ID] {
		if e.To == i7 && e.Kind == depAnti && e.Reg == paperex.RegMax {
			foundAnti = true
		}
	}
	if !foundAnti {
		t.Error("missing anti (I5,I7) on r30 across BL2->BL3")
	}
	for _, e := range p.DDG.Succs[i7.ID] {
		if e.To == i12 {
			crossEdge = true
		}
	}
	if crossEdge {
		t.Error("no dependence may connect BL3 and BL6 (mutually exclusive paths)")
	}
}

// TestHeights checks D and CP inside BL1: D(I3)=3 (compare feeding the
// branch), D(I2)=1+D(I3)=4 via the delayed load edge, CP(I2)=1+1+3+1+1=...
// computed: CP(I4)=1, CP(I3)=CP(I4)+3+1=5, CP(I2)=max(CP(I3)+1,...)+1=7,
// D(I1)=0+D(I3)=3 via flow (I1,I3) delay 0.
func TestHeights(t *testing.T) {
	p, f := minmaxPDG(t)
	bl1 := f.Blocks[1]
	ddg := p.DDG
	var h HeightVals
	HeightsInto(&h, bl1, ddg, machine.RS6K())
	const i1, i2, i3, i4 = 0, 1, 2, 3 // positions in BL1
	if h.D(i4) != 0 || h.CP(i4) != 1 {
		t.Errorf("I4: D=%d CP=%d, want 0,1", h.D(i4), h.CP(i4))
	}
	if h.D(i3) != 3 || h.CP(i3) != 5 {
		t.Errorf("I3: D=%d CP=%d, want 3,5", h.D(i3), h.CP(i3))
	}
	if h.D(i2) != 4 || h.CP(i2) != 7 {
		t.Errorf("I2: D=%d CP=%d, want 4,7", h.D(i2), h.CP(i2))
	}
	// I1: successors are I3 (flow, delay 1) and I2 (anti on r31, delay
	// 0), so D = max(3+1, 4+0) = 4 and CP = max(5+1, 7+0) + 1 = 8.
	if h.D(i1) != 4 || h.CP(i1) != 8 {
		t.Errorf("I1: D=%d CP=%d, want 4,8", h.D(i1), h.CP(i1))
	}
}

func TestMayAlias(t *testing.T) {
	f := ir.NewFunc("t")
	mk := func(op ir.Op, sym string, base ir.Reg, off int64) *ir.Instr {
		i := f.NewInstr(op)
		i.Def = ir.GPR(9)
		i.A = ir.GPR(8)
		i.Mem = &ir.Mem{Sym: sym, Base: base, Off: off}
		return i
	}
	la := mk(ir.OpLoad, "a", ir.GPR(1), 0)
	sb := mk(ir.OpStore, "b", ir.GPR(1), 0)
	sa := mk(ir.OpStore, "a", ir.GPR(2), 4)
	su := mk(ir.OpStore, "", ir.GPR(3), 0)
	call := f.NewInstr(ir.OpCall)
	call.Target = "print"

	if mayAlias(la, sb) {
		t.Error("distinct symbols must not alias")
	}
	if !mayAlias(la, sa) {
		t.Error("same symbol must alias")
	}
	if !mayAlias(la, su) {
		t.Error("unknown symbol must alias")
	}
	if !mayAlias(sb, call) {
		t.Error("calls alias everything")
	}
}
