package sim

import (
	"errors"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/paperex"
)

// minmaxInput builds an array driving the Figure 2 loop through a chosen
// number of min/max updates per iteration (0, 1, or 2), plus the leading
// a[0] seed, long enough for iters iterations.
func minmaxInput(updates, iters int) []int64 {
	var a []int64
	switch updates {
	case 0:
		// All elements equal: u>v false, v>max false, u<min false.
		a = append(a, 7)
		for k := 0; k < iters; k++ {
			a = append(a, 7, 7)
		}
	case 1:
		// u>v true and u>max true each iteration; v never below min.
		a = append(a, 1)
		v := int64(2)
		for k := 0; k < iters; k++ {
			a = append(a, v+1, v) // u = v+1 > max so far
			v += 2
		}
	case 2:
		// u>max and v<min every iteration.
		a = append(a, 0)
		hi, lo := int64(1), int64(-1)
		for k := 0; k < iters; k++ {
			a = append(a, hi, lo)
			hi++
			lo--
		}
	default:
		panic("updates must be 0..2")
	}
	return a
}

func runMinMax(t *testing.T, a []int64, desc *machine.Desc) *Result {
	t.Helper()
	prog, f := paperex.MinMax()
	m, err := Load(prog)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	lo, _ := paperex.LoopBlocks()
	res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a},
		Options{Machine: desc, Watch: &WatchPoint{Func: f.Name, Block: lo}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestMinMaxFunctional(t *testing.T) {
	a := []int64{5, 9, -2, 3, 14, 7, 0, 11, 6} // n=9 (odd, as the paper's loop requires)
	res := runMinMax(t, a, nil)
	if res.Ret != -2 {
		t.Errorf("min = %d, want -2", res.Ret)
	}
	// out[0]=min, out[1]=max checked via a second run reading memory is
	// unnecessary: ret is min; max is covered by the update-path tests.
}

// TestFigure2Cycles reproduces the paper's §3 estimate: the unscheduled
// Figure 2 loop executes in 20, 21 or 22 cycles per iteration depending
// on whether 0, 1 or 2 updates of max and min are done.
func TestFigure2Cycles(t *testing.T) {
	for updates, want := range map[int]int64{0: 20, 1: 21, 2: 22} {
		a := minmaxInput(updates, 50)
		res := runMinMax(t, a, machine.RS6K())
		iters := res.IterationCycles()
		if len(iters) < 10 {
			t.Fatalf("updates=%d: only %d iterations recorded", updates, len(iters))
		}
		// Skip the first sample (prologue overlap); all steady-state
		// samples must equal the paper's figure.
		for k, c := range iters[1:] {
			if c != want {
				t.Errorf("updates=%d: iteration %d took %d cycles, want %d", updates, k+1, c, want)
				break
			}
		}
	}
}

func TestFunctionalCycleCountingWithoutMachine(t *testing.T) {
	a := minmaxInput(0, 3)
	res := runMinMax(t, a, nil)
	if res.Cycles != res.Instrs {
		t.Errorf("functional mode: cycles %d != instrs %d", res.Cycles, res.Instrs)
	}
}

func TestInstructionLimit(t *testing.T) {
	prog := ir.NewProgram()
	f := ir.NewFunc("spin")
	b := ir.NewBuilder(f)
	b.Block("top")
	b.B("top")
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	_, err = m.Run("spin", nil, nil, Options{MaxInstrs: 1000})
	if !errors.Is(err, errLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestCallAndBuiltins(t *testing.T) {
	prog := ir.NewProgram()

	callee := ir.NewFunc("double")
	x := ir.GPR(0)
	callee.Params = []ir.Reg{x}
	cb := ir.NewBuilder(callee)
	cb.Block("entry")
	y := ir.GPR(1)
	cb.Op2(ir.OpAdd, y, x, x)
	cb.Ret(y)
	callee.ReindexBlocks()
	prog.AddFunc(callee)

	main := ir.NewFunc("main")
	mb := ir.NewBuilder(main)
	mb.Block("entry")
	a, r := ir.GPR(0), ir.GPR(1)
	mb.LI(a, 21)
	mb.Call(r, "double", a)
	mb.Call(ir.NoReg, "print", r)
	mb.Ret(r)
	main.ReindexBlocks()
	prog.AddFunc(main)

	m, err := Load(prog)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := m.Run("main", nil, nil, Options{Machine: machine.RS6K()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ret != 42 {
		t.Errorf("ret = %d, want 42", res.Ret)
	}
	if res.PrintedString() != "42" {
		t.Errorf("printed %q, want \"42\"", res.PrintedString())
	}
}

func TestMemoryErrors(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddSym("g", 4)
	f := ir.NewFunc("oops")
	b := ir.NewBuilder(f)
	b.Block("entry")
	base := ir.GPR(0)
	b.LI(base, 1<<30)
	b.Load(ir.GPR(1), "g", base, 0)
	b.Ret(ir.NoReg)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := m.Run("oops", nil, nil, Options{}); err == nil {
		t.Fatal("out-of-range load did not error")
	}
}

func TestStoreAndLoadRoundTrip(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddSym("g", 8)
	f := ir.NewFunc("rt")
	b := ir.NewBuilder(f)
	b.Block("entry")
	base, v, w := ir.GPR(0), ir.GPR(1), ir.GPR(2)
	b.LI(base, 0)
	b.LI(v, 1234)
	b.Store("g", base, 8, v)
	b.Load(w, "g", base, 8)
	b.Ret(w)
	f.ReindexBlocks()
	prog.AddFunc(f)
	m, err := Load(prog)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := m.Run("rt", nil, nil, Options{Machine: machine.RS6K()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ret != 1234 {
		t.Errorf("ret = %d, want 1234", res.Ret)
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	if r.IterationCycles() != nil {
		t.Error("empty watch should yield nil iterations")
	}
	r.Watch = []int64{5}
	if r.IterationCycles() != nil {
		t.Error("single sample should yield nil iterations")
	}
	r.Watch = []int64{5, 9, 20}
	it := r.IterationCycles()
	if len(it) != 2 || it[0] != 4 || it[1] != 11 {
		t.Errorf("iterations = %v", it)
	}
	if r.PrintedString() != "" {
		t.Error("no prints should render empty")
	}
	r.Printed = []int64{-3, 8}
	if r.PrintedString() != "-3 8" {
		t.Errorf("printed = %q", r.PrintedString())
	}
}
