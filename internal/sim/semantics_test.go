package sim

import (
	"slices"
	"strings"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/profile"
)

// hasImm reports whether op's form takes an immediate operand.
func hasImm(op ir.Op) bool {
	for _, fm := range ir.Forms() {
		if fm.Op == op {
			return slices.ContainsFunc(fm.Right, func(o ir.Operand) bool { return o.Slot == ir.SlotImm })
		}
	}
	return false
}

// evalOp runs a single ALU-ish instruction with the given inputs.
func evalOp(t *testing.T, op ir.Op, a, b, imm int64) int64 {
	t.Helper()
	prog := ir.NewProgram()
	f := ir.NewFunc("f")
	ra, rb := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{ra, rb}
	bl := ir.NewBuilder(f)
	bl.Block("e")
	d := ir.GPR(2)
	bl.Emit(op, func(i *ir.Instr) {
		i.Def = d
		i.Imm = imm
		switch {
		case hasImm(op) && op != ir.OpLI:
			i.A = ra
		case op == ir.OpLI:
		case op == ir.OpNeg || op == ir.OpNot || op == ir.OpLR:
			i.A = ra
		default:
			i.A, i.B = ra, rb
		}
	})
	bl.Ret(d)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	res, err := m.Run("f", []int64{a, b}, nil, Options{})
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return res.Ret
}

func TestALUOpcodeSemantics(t *testing.T) {
	a, b := int64(-37), int64(11)
	cases := []struct {
		op   ir.Op
		imm  int64
		want int64
	}{
		{ir.OpLI, 99, 99},
		{ir.OpLR, 0, a},
		{ir.OpAdd, 0, a + b},
		{ir.OpSub, 0, a - b},
		{ir.OpMul, 0, a * b},
		{ir.OpDiv, 0, a / b},
		{ir.OpRem, 0, a % b},
		{ir.OpAnd, 0, a & b},
		{ir.OpOr, 0, a | b},
		{ir.OpXor, 0, a ^ b},
		{ir.OpShl, 0, a << uint(b)},
		{ir.OpShr, 0, a >> uint(b)},
		{ir.OpAddI, 5, a + 5},
		{ir.OpMulI, -3, a * -3},
		{ir.OpAndI, 0xff, a & 0xff},
		{ir.OpOrI, 0x10, a | 0x10},
		{ir.OpXorI, -1, a ^ -1},
		{ir.OpShlI, 4, a << 4},
		{ir.OpShrI, 2, a >> 2},
		{ir.OpNeg, 0, -a},
		{ir.OpNot, 0, ^a},
	}
	for _, c := range cases {
		if got := evalOp(t, c.op, a, b, c.imm); got != c.want {
			t.Errorf("%s(%d,%d,imm=%d) = %d, want %d", c.op, a, b, c.imm, got, c.want)
		}
	}
}

func TestShiftMasking(t *testing.T) {
	// Shift amounts are masked to 6 bits like the hardware.
	if got := evalOp(t, ir.OpShl, 1, 64, 0); got != 1 {
		t.Errorf("1 << 64 = %d, want 1 (masked)", got)
	}
	if got := evalOp(t, ir.OpShl, 1, 65, 0); got != 2 {
		t.Errorf("1 << 65 = %d, want 2 (masked)", got)
	}
}

func TestCompareBits(t *testing.T) {
	prog := ir.NewProgram()
	f := ir.NewFunc("f")
	ra, rb := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{ra, rb}
	b := ir.NewBuilder(f)
	b.Block("e")
	cr := ir.CR(0)
	b.Cmp(cr, ra, rb)
	// Materialise the three bits: lt*100 + gt*10 + eq.
	out := ir.GPR(2)
	b.LI(out, 0)
	b.BF("noLT", cr, ir.BitLT)
	b.Block("")
	b.AI(out, out, 100)
	b.Block("noLT")
	b.BF("noGT", cr, ir.BitGT)
	b.Block("")
	b.AI(out, out, 10)
	b.Block("noGT")
	b.BF("noEQ", cr, ir.BitEQ)
	b.Block("")
	b.AI(out, out, 1)
	b.Block("noEQ")
	b.Ret(out)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, b, want int64 }{
		{1, 2, 100}, {2, 1, 10}, {2, 2, 1},
	} {
		res, err := m.Run("f", []int64{tc.a, tc.b}, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != tc.want {
			t.Errorf("compare(%d,%d) bits = %d, want %d", tc.a, tc.b, res.Ret, tc.want)
		}
	}
}

func TestLoadUpdatePostIncrement(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddSym("a", 8)
	prog.Sym("a").Init = []int64{10, 20, 30}
	f := ir.NewFunc("f")
	b := ir.NewBuilder(f)
	b.Block("e")
	base, v1, v2 := ir.GPR(0), ir.GPR(1), ir.GPR(2)
	b.LI(base, 0)
	// LU loads from base+4 and sets base' = base+4.
	b.LoadU(v1, base, "a", base, 4) // reads a[1]=20, base=4
	b.LoadU(v2, base, "a", base, 4) // reads a[2]=30, base=8
	s := ir.GPR(3)
	b.Op2(ir.OpAdd, s, v1, v2)
	b.Op2(ir.OpAdd, s, s, base) // + final base (8)
	b.Ret(s)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("f", nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 20+30+8 {
		t.Errorf("ret = %d, want 58", res.Ret)
	}
}

func TestUnalignedAccessFaults(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddSym("g", 4)
	f := ir.NewFunc("f")
	b := ir.NewBuilder(f)
	b.Block("e")
	base := ir.GPR(0)
	b.LI(base, 2) // unaligned
	b.Load(ir.GPR(1), "g", base, 0)
	b.Ret(ir.NoReg)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("f", nil, nil, Options{}); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Errorf("unaligned load: err = %v", err)
	}
	// Forgiving mode reads zero instead.
	res, err := m.Run("f", nil, nil, Options{ForgivingLoads: true})
	if err != nil {
		t.Fatalf("forgiving: %v", err)
	}
	_ = res
}

func TestForgivingStoresStillFault(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddSym("g", 4)
	f := ir.NewFunc("f")
	b := ir.NewBuilder(f)
	b.Block("e")
	base, v := ir.GPR(0), ir.GPR(1)
	b.LI(base, 1<<20)
	b.LI(v, 1)
	b.Store("g", base, 0, v)
	b.Ret(ir.NoReg)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("f", nil, nil, Options{ForgivingLoads: true}); err == nil {
		t.Error("wild store must fault even in forgiving mode")
	}
}

// TestCoIssueOnWiderMachine: two independent adds issue in one cycle on a
// 2-fixed-unit machine, two cycles on the RS6K.
func TestCoIssueOnWiderMachine(t *testing.T) {
	build := func() *ir.Program {
		prog := ir.NewProgram()
		f := ir.NewFunc("f")
		a, b2 := ir.GPR(0), ir.GPR(1)
		f.Params = []ir.Reg{a, b2}
		b := ir.NewBuilder(f)
		b.Block("e")
		x, y, z := ir.GPR(2), ir.GPR(3), ir.GPR(4)
		b.Op2(ir.OpAdd, x, a, b2)
		b.Op2(ir.OpSub, y, a, b2)
		b.Op2(ir.OpAdd, z, x, y)
		b.Ret(z)
		f.ReindexBlocks()
		prog.AddFunc(f)
		return prog
	}
	cyclesOn := func(d *machine.Desc) int64 {
		m, err := Load(build())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run("f", []int64{5, 3}, nil, Options{Machine: d})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != 10 {
			t.Fatalf("ret = %d, want 10", res.Ret)
		}
		return res.Cycles
	}
	narrow := cyclesOn(machine.RS6K())
	wide := cyclesOn(machine.Superscalar(2, 1))
	if wide >= narrow {
		t.Errorf("2-wide machine should be faster: %d vs %d cycles", wide, narrow)
	}
}

// TestTakenOnlyBranchDelayModel: a never-taken branch right after its
// compare stalls under the simplified model but not under the
// footnote-2 taken-only model.
func TestTakenOnlyBranchDelayModel(t *testing.T) {
	build := func() *ir.Program {
		prog := ir.NewProgram()
		f := ir.NewFunc("f")
		a, b2 := ir.GPR(0), ir.GPR(1)
		f.Params = []ir.Reg{a, b2}
		b := ir.NewBuilder(f)
		b.Block("e")
		cr := ir.CR(0)
		b.Cmp(cr, a, b2)
		b.BT("never", cr, ir.BitEQ) // a != b in the test inputs
		b.Block("")
		b.Ret(a)
		b.Block("never")
		b.Ret(b2)
		f.ReindexBlocks()
		prog.AddFunc(f)
		return prog
	}
	run := func(takenOnly bool) int64 {
		d := machine.RS6K()
		d.TakenOnlyBranchDelay = takenOnly
		m, err := Load(build())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run("f", []int64{7, 3}, nil, Options{Machine: d})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != 7 {
			t.Fatalf("ret = %d", res.Ret)
		}
		return res.Cycles
	}
	simplified := run(false)
	realistic := run(true)
	if realistic >= simplified {
		t.Errorf("taken-only model should be faster on a not-taken branch: %d vs %d",
			realistic, simplified)
	}
	if simplified-realistic != 3 {
		t.Errorf("the difference should be the 3-cycle compare-branch delay, got %d",
			simplified-realistic)
	}
}

func TestProfileCollection(t *testing.T) {
	prog := ir.NewProgram()
	f := ir.NewFunc("f")
	n := ir.GPR(0)
	f.Params = []ir.Reg{n}
	b := ir.NewBuilder(f)
	b.Block("e")
	i, cr := ir.GPR(1), ir.CR(0)
	b.LI(i, 0)
	b.Block("loop")
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	br := b.BT("loop", cr, ir.BitLT)
	b.Block("out")
	b.Ret(i)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	if _, err := m.Run("f", []int64{10}, nil, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	c := prof.Branch("f", br.ID)
	if c.Taken != 9 || c.NotTaken != 1 {
		t.Errorf("profile = %+v, want 9 taken / 1 not", c)
	}
}

func TestTraceOutput(t *testing.T) {
	prog, _ := buildTwoAdds()
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := m.Run("f", []int64{1, 2}, nil,
		Options{Machine: machine.RS6K(), Trace: &sb, TraceLimit: 2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d, want 2:\n%s", len(lines), sb.String())
	}
	if !strings.Contains(lines[0], "fixed") || !strings.Contains(lines[0], "c0") {
		t.Errorf("trace line malformed: %q", lines[0])
	}
}

func buildTwoAdds() (*ir.Program, *ir.Func) {
	prog := ir.NewProgram()
	f := ir.NewFunc("f")
	a, b2 := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{a, b2}
	b := ir.NewBuilder(f)
	b.Block("e")
	x := ir.GPR(2)
	b.Op2(ir.OpAdd, x, a, b2)
	b.Op2(ir.OpAdd, x, x, x)
	b.Ret(x)
	f.ReindexBlocks()
	prog.AddFunc(f)
	return prog, f
}

func TestMultiCycleOpsDelayConsumers(t *testing.T) {
	// MUL takes MulTime cycles; a dependent add must wait.
	prog := ir.NewProgram()
	f := ir.NewFunc("f")
	a, b2 := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{a, b2}
	b := ir.NewBuilder(f)
	b.Block("e")
	x, y := ir.GPR(2), ir.GPR(3)
	b.Op2(ir.OpMul, x, a, b2)
	b.Op2(ir.OpAdd, y, x, x)
	b.Ret(y)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	d := machine.RS6K()
	res, err := m.Run("f", []int64{6, 7}, nil, Options{Machine: d})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 84 {
		t.Fatalf("ret = %d", res.Ret)
	}
	// mul at c0 finishing c0+MulTime; add at >= MulTime; ret after.
	if res.Cycles < int64(d.MulTime)+2 {
		t.Errorf("cycles = %d, want at least %d", res.Cycles, d.MulTime+2)
	}
}

func TestFrameSlotsArePerActivation(t *testing.T) {
	// A recursive function whose frame slot must not be clobbered by
	// the nested call.
	prog := ir.NewProgram()
	f := ir.NewFunc("f")
	n := ir.GPR(0)
	f.Params = []ir.Reg{n}
	f.FrameWords = 1
	b := ir.NewBuilder(f)
	b.Block("e")
	cr := ir.CR(0)
	b.CmpI(cr, n, 0)
	b.BT("base", cr, ir.BitEQ)
	b.Block("")
	// Save n to the frame, recurse with n-1, reload, add.
	b.Emit(ir.OpStore, func(i *ir.Instr) {
		i.A = n
		i.Mem = &ir.Mem{Frame: true, Off: 0, Base: ir.NoReg}
	})
	m1 := ir.GPR(1)
	b.AI(m1, n, -1)
	r := ir.GPR(2)
	b.Call(r, "f", m1)
	saved := ir.GPR(3)
	b.Emit(ir.OpLoad, func(i *ir.Instr) {
		i.Def = saved
		i.Mem = &ir.Mem{Frame: true, Off: 0, Base: ir.NoReg}
	})
	out := ir.GPR(4)
	b.Op2(ir.OpAdd, out, saved, r)
	b.Ret(out)
	b.Block("base")
	z := ir.GPR(5)
	b.LI(z, 0)
	b.Ret(z)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("f", []int64{10}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 55 { // 10+9+...+1
		t.Errorf("ret = %d, want 55", res.Ret)
	}
}

func TestSymAddrAndData(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddSym("a", 4)
	prog.AddSym("b", 4)
	f := ir.NewFunc("f")
	bb := ir.NewBuilder(f)
	bb.Block("e")
	bb.Ret(ir.NoReg)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	aAddr, ok := m.SymAddr("a")
	if !ok {
		t.Fatal("no address for a")
	}
	bAddr, _ := m.SymAddr("b")
	if bAddr != aAddr+4*ir.WordSize {
		t.Errorf("b at %d, want %d", bAddr, aAddr+4*ir.WordSize)
	}
	if _, ok := m.SymAddr("zzz"); ok {
		t.Error("unknown symbol resolved")
	}
}
