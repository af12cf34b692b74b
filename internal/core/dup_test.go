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

// dupKernel has work at a join that both arms could absorb into their
// branch delay slots.
const dupKernel = `
int g[64];
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int v = g[i % 64];
        int w = 0;
        if (v > 0) w = v * 3;
        else w = 1 - v;
        // Join work: candidates for duplication into both arms.
        int q = (w ^ i) + (w >> 1);
        s += q;
    }
    return s;
}`

func TestDuplicationMovesJoinWork(t *testing.T) {
	prog, err := minic.Compile(dupKernel)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Duplicate = true
	st, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicatedMoves == 0 {
		t.Errorf("no duplicated moves performed: %+v\n%s", st, prog.Func("f"))
	}
	for _, f := range prog.Funcs {
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid after duplication: %v\n%s", err, f)
		}
	}
	// Results match the non-duplicated build on several inputs.
	ref, err := minic.Compile(dupKernel)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 64)
	for i := range data {
		data[i] = int64(i*7%23 - 11)
	}
	runOne := func(p *ir.Program, n int64) int64 {
		m, err := sim.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run("f", []int64{n}, map[string][]int64{"g": data},
			sim.Options{ForgivingLoads: true, MaxInstrs: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ret
	}
	for _, n := range []int64{0, 1, 13, 100} {
		if got, want := runOne(prog, n), runOne(ref, n); got != want {
			t.Errorf("n=%d: duplicated build returns %d, reference %d", n, got, want)
		}
	}
}

// TestDuplicationRespectsLiveness: join work whose result feeds a
// different register on each path must not be broken — the checks fall
// back to not duplicating when a definition is live into a predecessor's
// other successor.
func TestDuplicationRespectsLiveness(t *testing.T) {
	src := `
int f(int a, int b) {
    int x = 0;
    int y = 9;
    if (a > 0) {
        if (b > 0) x = 1;
        // fallthrough pred of the join has another successor path
    } else {
        x = 2;
    }
    y = x + 1; // join work reading the path-dependent x
    return y * 10 + x;
}`
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Duplicate = true
	if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{}); err != nil {
		t.Fatal(err)
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, b, x int64 }{
		{1, 1, 1}, {1, -1, 0}, {-1, 5, 2},
	} {
		res, err := m.Run("f", []int64{tc.a, tc.b}, nil, sim.Options{ForgivingLoads: true})
		if err != nil {
			t.Fatal(err)
		}
		want := (tc.x+1)*10 + tc.x
		if res.Ret != want {
			t.Errorf("f(%d,%d) = %d, want %d", tc.a, tc.b, res.Ret, want)
		}
	}
}

// TestDuplicationOffByDefault keeps the paper's stated limitation.
func TestDuplicationOffByDefault(t *testing.T) {
	prog, err := minic.Compile(dupKernel)
	if err != nil {
		t.Fatal(err)
	}
	st, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicatedMoves != 0 {
		t.Errorf("duplication ran without being enabled: %+v", st)
	}
}
