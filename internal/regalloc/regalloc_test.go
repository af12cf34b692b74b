package regalloc

import (
	"context"
	"testing"
	"testing/quick"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/paperex"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// checkBounds asserts every register in f is below the limits.
func checkBounds(t *testing.T, f *ir.Func, lim Limits) {
	t.Helper()
	var regs []ir.Reg
	check := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		if int(r.Num) >= lim.k(r.Class) {
			t.Errorf("%s: register %s exceeds limit %d", f.Name, r, lim.k(r.Class))
		}
	}
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		for _, r := range i.Uses(regs[:0]) {
			check(r)
		}
		for _, r := range i.Defs(regs[:0]) {
			check(r)
		}
	})
	for _, p := range f.Params {
		check(p)
	}
}

func TestAllocateMinMax(t *testing.T) {
	prog, f := paperex.MinMax()
	st, err := allocateFunc(f, RS6K())
	if err != nil {
		t.Fatalf("Func: %v", err)
	}
	if st.Spilled != 0 {
		t.Errorf("minmax should not spill with 32 GPRs (spilled %d)", st.Spilled)
	}
	checkBounds(t, f, RS6K())
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid after allocation: %v\n%s", err, f)
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	a := []int64{5, 9, -2, 3, 14, 7, 0, 11, 6}
	res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != -2 {
		t.Errorf("ret = %d, want -2", res.Ret)
	}
}

func TestAllocationAfterScheduling(t *testing.T) {
	// The paper's pipeline: schedule on symbolic registers, then
	// allocate. The aggressive renaming must still fit the machine.
	prog, f := paperex.MinMax()
	if _, err := xform.RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{}); err != nil {
		t.Fatal(err)
	}
	st, err := allocateFunc(f, RS6K())
	if err != nil {
		t.Fatal(err)
	}
	if st.Spilled != 0 {
		t.Errorf("scheduled minmax spilled %d registers", st.Spilled)
	}
	checkBounds(t, f, RS6K())
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	a := []int64{5, 9, -2, 3, 14, 7, 0, 11, 6}
	res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a},
		sim.Options{ForgivingLoads: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != -2 {
		t.Errorf("ret = %d, want -2", res.Ret)
	}
}

func TestForcedSpilling(t *testing.T) {
	// Many simultaneously live values force spills under a tiny file.
	src := `
int f(int a, int b) {
    int c = a + b;
    int d = a - b;
    int e = a * 3;
    int g = b * 5;
    int h = a ^ b;
    int i = a | b;
    int j = a & b;
    return ((((((a + b) + (c + d)) + (e + g)) + (h + i)) + j) * 2);
}`
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lim := Limits{GPRs: 4, CRs: 8}
	f := prog.Func("f")
	st, err := allocateFunc(f, lim)
	if err != nil {
		t.Fatalf("Func: %v", err)
	}
	if st.Spilled == 0 {
		t.Error("expected spills with 4 GPRs")
	}
	if f.FrameWords == 0 {
		t.Error("spills must allocate frame slots")
	}
	checkBounds(t, f, lim)
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid after spilling: %v\n%s", err, f)
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("f", []int64{11, 7}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := int64(11), int64(7)
	c, d, e, g2, h, i2, j := a+b, a-b, a*3, b*5, a^b, a|b, a&b
	want := ((((a + b) + (c + d)) + (e + g2)) + (h + i2) + j) * 2
	if res.Ret != want {
		t.Errorf("f(11,7) = %d, want %d", res.Ret, want)
	}
}

func TestSpilledRecursionUsesFrameSlots(t *testing.T) {
	// Frame slots are per-activation, so spilled registers survive
	// recursion (a global spill area would not).
	src := `
int fib(int n) {
    if (n < 2) return n;
    int x1 = n - 1;
    int x2 = n - 2;
    int a = fib(x1);
    int b = fib(x2);
    int pad1 = x1 + x2;
    int pad2 = x1 * x2;
    return a + b + (pad1 - pad1) + (pad2 - pad2);
}`
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lim := Limits{GPRs: 4, CRs: 8}
	st, err := Program(prog, lim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spilled == 0 {
		t.Error("expected spills with 4 GPRs")
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("fib", []int64{10}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 55 {
		t.Errorf("fib(10) = %d, want 55", res.Ret)
	}
}

// TestAllocationInvariance: allocation preserves behaviour on random
// programs, under both generous and tight register files.
func TestAllocationInvariance(t *testing.T) {
	property := func(seed int64, tight bool) bool {
		if seed < 0 {
			seed = -seed
		}
		pg := progen.New(seed % 100_000)
		runOne := func(alloc bool) *sim.Result {
			prog, err := minic.Compile(pg.Source)
			if err != nil {
				t.Fatalf("seed %d: %v", pg.Seed, err)
			}
			if alloc {
				lim := RS6K()
				if tight {
					lim = Limits{GPRs: 6, CRs: 4}
				}
				if _, err := Program(prog, lim); err != nil {
					t.Fatalf("seed %d: alloc: %v", pg.Seed, err)
				}
				for _, f := range prog.Funcs {
					checkBounds(t, f, lim)
					if err := f.Validate(); err != nil {
						t.Fatalf("seed %d: %v", pg.Seed, err)
					}
				}
			}
			m, err := sim.Load(prog)
			if err != nil {
				t.Fatalf("seed %d: %v", pg.Seed, err)
			}
			res, err := m.Run(pg.Entry, pg.Args, nil, sim.Options{MaxInstrs: 20_000_000})
			if err != nil {
				t.Fatalf("seed %d: run: %v\n%s", pg.Seed, err, pg.Source)
			}
			return res
		}
		base, alloc := runOne(false), runOne(true)
		if base.Ret != alloc.Ret || base.PrintedString() != alloc.PrintedString() {
			t.Logf("seed %d tight=%v: %d/%q vs %d/%q\n%s", pg.Seed, tight,
				base.Ret, base.PrintedString(), alloc.Ret, alloc.PrintedString(), pg.Source)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCopyCoalescingOpportunity(t *testing.T) {
	// LR r2=r1 with r1 dead afterwards should let r2 share r1's colour
	// (no interference between copy source and destination).
	f := ir.NewFunc("t")
	b := ir.NewBuilder(f)
	b.Block("e")
	r1, r2 := ir.GPR(10), ir.GPR(20)
	b.LI(r1, 5)
	b.LR(r2, r1)
	b.Ret(r2)
	f.ReindexBlocks()
	if _, err := allocateFunc(f, Limits{GPRs: 1, CRs: 1}); err != nil {
		t.Fatalf("copy chain should fit one register: %v\n%s", err, f)
	}
	checkBounds(t, f, Limits{GPRs: 1, CRs: 1})
}
