package xform

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/sim"
)

func compileAndRun(t *testing.T, src, entry string, args []int64, transform func(*ir.Program)) int64 {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if transform != nil {
		transform(prog)
	}
	for _, f := range prog.Funcs {
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid: %v\n%s", err, f)
		}
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(entry, args, nil, sim.Options{MaxInstrs: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ret
}

// TestUnrollBottomTestLoop: a do-while loop's latch ends in a
// conditional back edge that falls through to the exit; unrolling must
// preserve the fallthrough with its jump block.
func TestUnrollBottomTestLoop(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i = 0;
    do {
        s += i * i;
        i++;
    } while (i < n);
    return s;
}`
	ref := func(n int64) int64 {
		s, i := int64(0), int64(0)
		for {
			s += i * i
			i++
			if i >= n {
				return s
			}
		}
	}
	for _, n := range []int64{1, 2, 3, 8, 9} {
		got := compileAndRun(t, src, "f", []int64{n}, func(p *ir.Program) {
			f := p.Func("f")
			if ok, _ := unrollOnce(f, innerLoop(t, f)); !ok {
				t.Fatal("unroll refused the do-while loop")
			}
		})
		if got != ref(n) {
			t.Errorf("n=%d: got %d, want %d", n, got, ref(n))
		}
	}
}

// TestUnrollLoopWithInternalBranches: the loop body contains an if/else
// diamond; all labels must be remapped into the clone.
func TestUnrollLoopWithInternalBranches(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        if (i % 3 == 0) s += i;
        else s -= i;
        i++;
    }
    return s;
}`
	ref := func(n int64) int64 {
		s := int64(0)
		for i := int64(0); i < n; i++ {
			if i%3 == 0 {
				s += i
			} else {
				s -= i
			}
		}
		return s
	}
	for _, n := range []int64{0, 1, 5, 12} {
		got := compileAndRun(t, src, "f", []int64{n}, func(p *ir.Program) {
			f := p.Func("f")
			if ok, _ := unrollOnce(f, innerLoop(t, f)); !ok {
				t.Fatal("unroll refused")
			}
		})
		if got != ref(n) {
			t.Errorf("n=%d: got %d, want %d", n, got, ref(n))
		}
	}
}

// TestRotateThenScheduleNested: rotating the inner loop of a nested pair
// and rescheduling everything preserves the result.
func TestRotateThenScheduleNested(t *testing.T) {
	src := `
int g[64];
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) {
            g[(i + j) % 64] = i * j;
        }
        s += g[i % 64];
    }
    return s;
}`
	want := compileAndRun(t, src, "f", []int64{20}, nil)
	got := compileAndRun(t, src, "f", []int64{20}, func(p *ir.Program) {
		for _, f := range p.Funcs {
			if _, err := RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), core.LevelSpeculative), DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

// TestTransformOnlyIsBehaviourNeutral: unroll+rotate without scheduling
// changes neither results nor (up to loop-exit bookkeeping) much code.
func TestTransformOnlyIsBehaviourNeutral(t *testing.T) {
	src := `
int f(int n) {
    int s = 1;
    int i = 0;
    while (i < n) {
        s = s * 3 % 1009;
        i++;
    }
    return s;
}`
	want := compileAndRun(t, src, "f", []int64{25}, nil)
	var st Stats
	got := compileAndRun(t, src, "f", []int64{25}, func(p *ir.Program) {
		st = TransformOnlyProgram(p, DefaultConfig())
	})
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
	if st.LoopsUnrolled == 0 || st.LoopsRotated == 0 {
		t.Errorf("transformations did not trigger: %+v", st)
	}
}

// TestUnrollRespectsBlockCap via the driver config.
func TestUnrollRespectsBlockCap(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        if (i % 2 == 0) { if (i % 4 == 0) s += 2; else s += 1; }
        else { if (i % 3 == 0) s -= 2; else s -= 1; }
        i++;
    }
    return s;
}`
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// The nested diamonds give the loop more than maxLoopBlocks blocks.
	st := TransformOnlyProgram(prog, DefaultConfig())
	if st.LoopsUnrolled != 0 {
		t.Errorf("loop above the cap was unrolled: %+v", st)
	}
}
