package dataflow

import (
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/paperex"
)

func TestRegSetBasics(t *testing.T) {
	f := ir.NewFunc("t")
	f.NoteReg(ir.GPR(100))
	s := newRegSet(f)
	regs := []ir.Reg{ir.GPR(0), ir.GPR(63), ir.GPR(64), ir.GPR(100), ir.CR(3)}
	for _, r := range regs {
		s.Add(r)
	}
	for _, r := range regs {
		if !s.Has(r) {
			t.Errorf("missing %s", r)
		}
	}
	if s.Has(ir.GPR(1)) || s.Has(ir.CR(0)) {
		t.Error("spurious members")
	}
	if got := s.Count(); got != len(regs) {
		t.Errorf("Count = %d, want %d", got, len(regs))
	}
	s.Del(ir.GPR(64))
	if s.Has(ir.GPR(64)) {
		t.Error("Del failed")
	}
	// Same number in a different class is a different register.
	if s.Has(ir.CR(63)) {
		t.Error("class confusion: cr63 reported present")
	}
	c := s.Copy()
	c.Add(ir.GPR(7))
	if s.Has(ir.GPR(7)) {
		t.Error("Copy is not independent")
	}
	var collected []ir.Reg
	s.ForEach(func(r ir.Reg) { collected = append(collected, r) })
	if len(collected) != s.Count() {
		t.Errorf("ForEach visited %d, Count says %d", len(collected), s.Count())
	}
	// Growing beyond the initial size must work.
	s.Add(ir.GPR(5000))
	if !s.Has(ir.GPR(5000)) {
		t.Error("growth failed")
	}
}

func TestMinMaxLiveness(t *testing.T) {
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	lv := Compute(f, g)

	// min (r28) and max (r30) are live on exit from every loop block:
	// they are used by the epilogue stores and by later compares.
	for b := 1; b <= 10; b++ {
		if !lv.LiveOnExit(b, paperex.RegMin) {
			t.Errorf("min should be live on exit from BL%d", b)
		}
		if !lv.LiveOnExit(b, paperex.RegMax) {
			t.Errorf("max should be live on exit from BL%d", b)
		}
	}
	// cr7 written by I3 is consumed by I4 at the end of BL1: dead on
	// exit of BL2 (BL4 redefines it before its use in I9).
	if lv.LiveOnExit(2, paperex.CR7) {
		t.Error("cr7 should be dead on exit from BL2")
	}
	// cr6 written by I5 in BL2 is used by I6 (same block) only.
	if lv.LiveOnExit(3, paperex.CR6) {
		t.Error("cr6 should be dead on exit from BL3")
	}
	// u (r12) is live on exit from BL1 (used in BL2/BL8); v (r0) too.
	if !lv.LiveOnExit(1, paperex.RegU) || !lv.LiveOnExit(1, paperex.RegV) {
		t.Error("u and v should be live on exit from BL1")
	}
	// i (r29) is live around the back edge: live on exit from BL10.
	if !lv.LiveOnExit(10, paperex.RegI) {
		t.Error("i should be live on exit from BL10 (loop-carried)")
	}
	// u is dead on exit of BL10 (reloaded each iteration).
	if lv.LiveOnExit(10, paperex.RegU) {
		t.Error("u should be dead on exit from BL10")
	}
}

func TestSpeculationLiveness(t *testing.T) {
	// §5.3: before any motion, x (r5) is NOT live on exit from B1 —
	// both successor paths define it before the join uses it.
	_, f := paperex.Speculation()
	g := cfg.Build(f)
	lv := Compute(f, g)
	x := ir.GPR(5)
	if lv.LiveOnExit(0, x) {
		t.Error("x must not be live on exit from B1 before any motion")
	}
	if !lv.LiveOnExit(1, x) || !lv.LiveOnExit(2, x) {
		t.Error("x must be live on exit from B2 and B3")
	}
}

// newRegSet returns a set sized for the registers of f.
func newRegSet(f *ir.Func) *RegSet {
	s := &RegSet{}
	for c := 0; c < ir.NumClasses; c++ {
		n := f.NumRegs(ir.RegClass(c))
		s.bits[c] = make([]uint64, (n+63)/64)
	}
	return s
}
