package core_test

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

func scheduleSrc(t *testing.T, src string, level core.Level, mod func(*core.Options)) *ir.Program {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := core.Defaults(machine.RS6K(), level)
	if mod != nil {
		mod(&opts)
	}
	if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, f := range prog.Funcs {
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid after scheduling: %v\n%s", err, f)
		}
	}
	return prog
}

func runRet(t *testing.T, prog *ir.Program, entry string, args ...int64) int64 {
	t.Helper()
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(entry, args, nil, sim.Options{ForgivingLoads: true, MaxInstrs: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ret
}

func TestSingleBlockFunction(t *testing.T) {
	prog := scheduleSrc(t, `int f(int a) { return a * 2 + 1; }`, core.LevelSpeculative, nil)
	if got := runRet(t, prog, "f", 20); got != 41 {
		t.Errorf("f(20) = %d, want 41", got)
	}
}

func TestLooplessFunctionIsARegion(t *testing.T) {
	// A function without loops is still a region (the "body of a
	// subroutine without the enclosed loops", §5.1) and gets useful
	// and speculative motion.
	src := `
int f(int a, int b) {
    int r = 0;
    if (a > b) r = a * 3;
    else r = b * 5;
    return r + a + b;
}`
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RegionsScheduled == 0 {
		t.Error("the subroutine body must be scheduled as a region")
	}
	if got := runRet(t, prog, "f", 7, 3); got != 7*3+7+3 {
		t.Errorf("f(7,3) = %d", got)
	}
	if got := runRet(t, prog, "f", 3, 7); got != 7*5+3+7 {
		t.Errorf("f(3,7) = %d", got)
	}
}

func TestNoSpeculativeLoadsOption(t *testing.T) {
	src := `
int g[8] = {1, 2, 3, 4};
int f(int a) {
    int r = 0;
    if (a > 0) r = g[2];
    return r + a;
}`
	countLoadsInEntry := func(spec bool) int {
		prog := scheduleSrc(t, src, core.LevelSpeculative, func(o *core.Options) { o.SpeculateLoads = spec })
		f := prog.Func("f")
		loads := 0
		for _, i := range f.Blocks[0].Instrs {
			if i.Op.IsLoad() {
				loads++
			}
		}
		// Behaviour must hold either way.
		if got := runRet(t, prog, "f", 5); got != 8 {
			t.Errorf("f(5) = %d, want 8", got)
		}
		if got := runRet(t, prog, "f", -5); got != -5 {
			t.Errorf("f(-5) = %d, want -5", got)
		}
		return loads
	}
	with := countLoadsInEntry(true)
	without := countLoadsInEntry(false)
	if with == 0 {
		t.Skip("scheduler chose not to hoist the load at all; nothing to compare")
	}
	if without != 0 {
		t.Errorf("SpeculateLoads=false still hoisted %d loads", without)
	}
}

func TestIrreducibleFunctionFallsBackToLocal(t *testing.T) {
	// Hand-build an irreducible CFG; global scheduling must skip it but
	// the local pass still runs and semantics hold.
	prog := ir.NewProgram()
	f := ir.NewFunc("irr")
	a, b2 := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{a, b2}
	b := ir.NewBuilder(f)
	b.Block("e")
	cr := ir.CR(0)
	b.Cmp(cr, a, b2)
	b.BT("L2", cr, ir.BitLT)
	b.Block("L1")
	b.AI(a, a, -1)
	b.Cmp(ir.CR(1), a, b2)
	b.BT("L2", ir.CR(1), ir.BitGT)
	b.Block("")
	b.Ret(a)
	b.Block("L2")
	b.AI(b2, b2, -1)
	b.Cmp(ir.CR(2), b2, a)
	b.BT("L1", ir.CR(2), ir.BitGT)
	b.Block("")
	b.Ret(b2)
	f.ReindexBlocks()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	prog.AddFunc(f)
	st, err := xform.RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RegionsScheduled != 0 || st.RegionsSkipped == 0 {
		t.Errorf("irreducible function should skip global scheduling: %+v", st)
	}
	if st.LocalBlocks == 0 {
		t.Error("local pass must still run")
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("irr", []int64{10, 4}, nil, sim.Options{MaxInstrs: 100000}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestEmptyAndTinyBlocksSurviveScheduling(t *testing.T) {
	// A block emptied by motion stays in the CFG (the paper creates no
	// new blocks and removes none).
	prog, err := minic.Compile(`
int f(int a) {
    int x = 0;
    if (a > 0) { x = 1; } // then-block has one instruction
    return x + a;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	blocksBefore := len(f.Blocks)
	if _, err := xform.RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != blocksBefore {
		t.Errorf("block count changed: %d -> %d", blocksBefore, len(f.Blocks))
	}
	if got := runRet(t, prog, "f", 3); got != 4 {
		t.Errorf("f(3) = %d, want 4", got)
	}
	if got := runRet(t, prog, "f", -3); got != -3 {
		t.Errorf("f(-3) = %d, want -3", got)
	}
}

func TestSchedulingIsDeterministicOnWorkloadShapedCode(t *testing.T) {
	src := `
int g[32];
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int v = g[i % 32];
        if (v > 0 && v < 100) s += v;
        else if (v < 0) s -= v;
        else s += 1;
        g[(i + 7) % 32] = s % 97;
    }
    return s;
}`
	first := ""
	for k := 0; k < 8; k++ {
		prog := scheduleSrc(t, src, core.LevelSpeculative, nil)
		text := prog.String()
		if k == 0 {
			first = text
		} else if text != first {
			t.Fatalf("run %d produced a different schedule", k)
		}
	}
}

func TestMissingMachineIsAnError(t *testing.T) {
	prog, err := minic.Compile(`int f(int a) { return a; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xform.RunProgramCtx(context.Background(), prog, core.Options{Level: core.LevelUseful}, xform.Config{}); err == nil {
		t.Error("nil machine must be rejected")
	}
}

func TestLevelNoneOnlyRunsLocalPass(t *testing.T) {
	prog, err := minic.Compile(`
int f(int a) {
    int r = 0;
    if (a > 0) r = a;
    return r;
}`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(machine.RS6K(), core.LevelNone), xform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.UsefulMoves+st.SpeculativeMoves != 0 {
		t.Errorf("BASE performed global moves: %+v", st)
	}
	if st.LocalBlocks == 0 {
		t.Error("local pass should run")
	}
}

func TestParseLevel(t *testing.T) {
	for l := core.LevelNone; l <= core.LevelOptimal; l++ {
		got, err := core.ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	for _, bad := range []string{"", "bogus", "level?"} {
		if _, err := core.ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) accepted", bad)
		}
	}
}
