package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"gsched/internal/ir"
)

func TestRS6KParameters(t *testing.T) {
	d := RS6K()
	if d.NumUnits[ir.UnitFixed] != 1 || d.NumUnits[ir.UnitFloat] != 1 || d.NumUnits[ir.UnitBranch] != 1 {
		t.Errorf("RS6K units = %v, want one of each (§2.1)", d.NumUnits)
	}
	if d.LoadDelay != 1 {
		t.Errorf("delayed load = %d, want 1", d.LoadDelay)
	}
	if d.CmpBranchDelay != 3 {
		t.Errorf("compare->branch = %d, want 3", d.CmpBranchDelay)
	}
	if d.FloatDelay != 1 || d.FloatCmpBranchDelay != 5 {
		t.Errorf("float delays = %d/%d, want 1/5", d.FloatDelay, d.FloatCmpBranchDelay)
	}
}

func TestSuperscalarPreset(t *testing.T) {
	d := Superscalar(4, 2)
	if d.NumUnits[ir.UnitFixed] != 4 || d.NumUnits[ir.UnitBranch] != 2 {
		t.Errorf("units = %v", d.NumUnits)
	}
	if d.CmpBranchDelay != RS6K().CmpBranchDelay {
		t.Error("wider machines keep RS6K delays")
	}
	if d.Name != "ss4x2" {
		t.Errorf("name = %q", d.Name)
	}
}

func TestUnitAssignment(t *testing.T) {
	for op, want := range map[ir.Op]ir.Unit{
		ir.OpAdd:  ir.UnitFixed,
		ir.OpLoad: ir.UnitFixed,
		ir.OpCmp:  ir.UnitFixed,
		ir.OpB:    ir.UnitBranch,
		ir.OpBC:   ir.UnitBranch,
		ir.OpRet:  ir.UnitBranch,
		ir.OpCall: ir.UnitFixed,
	} {
		if got := op.Unit(); got != want {
			t.Errorf("Unit(%s) = %s, want %s", op, got, want)
		}
	}
}

func TestExecTimes(t *testing.T) {
	d := RS6K()
	if d.Exec(ir.OpAdd) != 1 || d.Exec(ir.OpLoad) != 1 || d.Exec(ir.OpBC) != 1 {
		t.Error("single-cycle ops wrong")
	}
	if d.Exec(ir.OpMul) != d.MulTime || d.Exec(ir.OpMulI) != d.MulTime {
		t.Error("multiply time wrong")
	}
	if d.Exec(ir.OpDiv) != d.DivTime || d.Exec(ir.OpRem) != d.DivTime {
		t.Error("divide time wrong")
	}
	if d.Exec(ir.OpMul) <= 1 || d.Exec(ir.OpDiv) <= d.Exec(ir.OpMul) {
		t.Error("multi-cycle ordering: div > mul > 1 expected")
	}
}

func TestDelaySemantics(t *testing.T) {
	d := RS6K()
	mkLoad := func() *ir.Instr {
		return &ir.Instr{Op: ir.OpLoad, Def: ir.GPR(1), Def2: ir.NoReg, A: ir.NoReg, B: ir.NoReg,
			Mem: &ir.Mem{Sym: "a", Base: ir.GPR(2)}}
	}
	mkLU := func() *ir.Instr {
		return &ir.Instr{Op: ir.OpLoadU, Def: ir.GPR(1), Def2: ir.GPR(2), A: ir.NoReg, B: ir.NoReg,
			Mem: &ir.Mem{Sym: "a", Base: ir.GPR(2)}}
	}
	cmp := &ir.Instr{Op: ir.OpCmp, Def: ir.CR(0), Def2: ir.NoReg, A: ir.GPR(1), B: ir.GPR(2)}
	bc := &ir.Instr{Op: ir.OpBC, Def: ir.NoReg, Def2: ir.NoReg, A: ir.CR(0), B: ir.NoReg}
	add := &ir.Instr{Op: ir.OpAdd, Def: ir.GPR(3), Def2: ir.NoReg, A: ir.GPR(1), B: ir.GPR(2)}

	if got := d.Delay(mkLoad(), add, ir.GPR(1)); got != 1 {
		t.Errorf("load->use delay = %d, want 1", got)
	}
	// The LU's updated base is NOT subject to the load delay.
	if got := d.Delay(mkLU(), add, ir.GPR(2)); got != 0 {
		t.Errorf("LU base-update delay = %d, want 0", got)
	}
	if got := d.Delay(mkLU(), add, ir.GPR(1)); got != 1 {
		t.Errorf("LU value delay = %d, want 1", got)
	}
	if got := d.Delay(cmp, bc, ir.CR(0)); got != 3 {
		t.Errorf("cmp->branch delay = %d, want 3", got)
	}
	// Compare feeding a non-branch carries no delay.
	if got := d.Delay(cmp, add, ir.CR(0)); got != 0 {
		t.Errorf("cmp->alu delay = %d, want 0", got)
	}
	if got := d.Delay(add, bc, ir.GPR(3)); got != 0 {
		t.Errorf("alu->branch delay = %d, want 0", got)
	}
}

func TestMaxDelay(t *testing.T) {
	d := RS6K()
	if got := d.MaxDelay(); got != 5 {
		t.Errorf("MaxDelay = %d, want 5 (float compare)", got)
	}
}

func TestStringIncludesShape(t *testing.T) {
	s := Superscalar(2, 1).String()
	if s == "" || s == "ss2x1" {
		t.Errorf("String() too terse: %q", s)
	}
}

// TestValidate pins each constraint of Desc.Validate with a mutation
// that violates exactly that constraint.
func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Desc)
		ok     bool
	}{
		{"rs6k is valid", func(*Desc) {}, true},
		{"zero delays are valid", func(d *Desc) {
			d.LoadDelay, d.CmpBranchDelay, d.FloatDelay, d.FloatCmpBranchDelay = 0, 0, 0, 0
		}, true},
		{"zero fixed units", func(d *Desc) { d.NumUnits[ir.UnitFixed] = 0 }, false},
		{"zero float units", func(d *Desc) { d.NumUnits[ir.UnitFloat] = 0 }, false},
		{"negative branch units", func(d *Desc) { d.NumUnits[ir.UnitBranch] = -1 }, false},
		{"zero multiply time", func(d *Desc) { d.MulTime = 0 }, false},
		{"zero divide time", func(d *Desc) { d.DivTime = 0 }, false},
		{"negative load delay", func(d *Desc) { d.LoadDelay = -1 }, false},
		{"negative compare-to-branch delay", func(d *Desc) { d.CmpBranchDelay = -2 }, false},
		{"negative float delay", func(d *Desc) { d.FloatDelay = -1 }, false},
		{"negative float compare-to-branch delay", func(d *Desc) { d.FloatCmpBranchDelay = -1 }, false},
	}
	for _, c := range cases {
		d := RS6K()
		c.mutate(d)
		err := d.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid machine accepted", c.name)
		}
	}
}

func TestInvalidPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Superscalar(0, 1) did not panic")
		}
	}()
	Superscalar(0, 1)
}

func TestDegenerateCorners(t *testing.T) {
	s := Scalar()
	if err := s.Validate(); err != nil {
		t.Fatalf("Scalar invalid: %v", err)
	}
	if s.MaxDelay() != 0 || s.Exec(ir.OpDiv) != 1 {
		t.Errorf("Scalar not degenerate: maxdelay=%d div=%d", s.MaxDelay(), s.Exec(ir.OpDiv))
	}
	w := Wide()
	if err := w.Validate(); err != nil {
		t.Fatalf("Wide invalid: %v", err)
	}
	for tp, n := range w.NumUnits {
		if n < 32 {
			t.Errorf("Wide has only %d units of type %d", n, tp)
		}
	}
	if w.CmpBranchDelay != RS6K().CmpBranchDelay {
		t.Error("Wide should keep RS6K delays")
	}
}

// TestRandomMachines: every seed yields a valid machine, equal seeds
// yield equal machines, and the generator actually explores the
// parameter space (several distinct shapes over a small seed range).
func TestRandomMachines(t *testing.T) {
	shapes := make(map[string]bool)
	for seed := int64(0); seed < 64; seed++ {
		d := Random(seed)
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d2 := Random(seed)
		if *d != *d2 {
			t.Fatalf("seed %d: not deterministic: %+v vs %+v", seed, d, d2)
		}
		shapes[fmt.Sprintf("%v/%d/%d/%d%d%d%d", d.NumUnits, d.MulTime, d.DivTime,
			d.LoadDelay, d.CmpBranchDelay, d.FloatDelay, d.FloatCmpBranchDelay)] = true
	}
	if len(shapes) < 32 {
		t.Errorf("only %d distinct machines over 64 seeds", len(shapes))
	}
}

// TestRandomRedrawsUnissuableMixes pins the Validate-gated re-draw:
// seed 2's first draw from the widened descriptor space has zero branch
// units — no branch or return could ever issue — so Random must reject
// it and keep drawing until a realisable mix appears, deterministically.
func TestRandomRedrawsUnissuableMixes(t *testing.T) {
	const badSeed = 2
	r := rand.New(rand.NewSource(badSeed))
	first := randomDraw(r, badSeed)
	if err := first.Validate(); err == nil {
		t.Fatalf("seed %d: first draw %v is valid; the regression seed no longer pins the re-draw path", badSeed, first.NumUnits)
	}
	d := Random(badSeed)
	if err := d.Validate(); err != nil {
		t.Fatalf("seed %d: Random returned an invalid machine: %v", badSeed, err)
	}
	if *d == *first {
		t.Fatalf("seed %d: Random returned the rejected draw", badSeed)
	}
	if d2 := Random(badSeed); *d != *d2 {
		t.Fatalf("seed %d: re-draw not deterministic: %+v vs %+v", badSeed, d, d2)
	}
	// The whole widened space stays reachable: some seed's accepted
	// machine still sits at a unit-count boundary (exactly one unit of
	// some type), so rejection does not over-prune.
	boundary := false
	for seed := int64(0); seed < 64 && !boundary; seed++ {
		for _, n := range Random(seed).NumUnits {
			if n == 1 {
				boundary = true
			}
		}
	}
	if !boundary {
		t.Error("no accepted machine in [0,64) touches a 1-unit boundary; the re-draw looks like it clamps")
	}
}

func TestParseMachine(t *testing.T) {
	for name, fixed := range map[string]int{"rs6k": 1, "scalar": 1, "wide": 64, "4x2": 4} {
		m, err := ByName(name)
		if err != nil || m.NumUnits[ir.UnitFixed] != fixed {
			t.Errorf("ByName(%q) = %v, %v; want %d fixed point units", name, m, err, fixed)
		}
	}
	for _, bad := range []string{"", "x", "0x1", "axb", "3", "2x2x2"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

// TestPipeIssue pins the §2 issue rule: in-order starts, at most n_t
// per unit type per cycle, and finish = start + execution time.
func TestPipeIssue(t *testing.T) {
	d := Superscalar(2, 1)
	var p Pipe
	steps := []struct {
		op    ir.Op
		ready int64
		start int64
		taken int // fixed-point starts at the new Prev
	}{
		{ir.OpAdd, 0, 0, 1},
		{ir.OpAdd, 0, 0, 2},
		{ir.OpAdd, 0, 1, 1}, // both fixed-point units started at cycle 0
		{ir.OpMul, 0, 1, 2}, // in order: no earlier than the previous start
		{ir.OpBC, 4, 4, 0},  // operands ready at 4; the branch unit is free
		{ir.OpAdd, 2, 4, 1}, // ready earlier, but issue is in order
	}
	for k, s := range steps {
		if got := p.Issue(d, s.op, s.ready); got != s.start {
			t.Fatalf("step %d: %s starts at %d, want %d", k, s.op, got, s.start)
		}
		if got := p.Taken(ir.UnitFixed); got != s.taken {
			t.Errorf("step %d: %d fixed-point starts at cycle %d, want %d", k, got, p.Prev, s.taken)
		}
	}
	if want := int64(1 + d.MulTime); p.Finish != want {
		t.Errorf("finish %d, want %d (the multiply's start + execution time)", p.Finish, want)
	}
}
