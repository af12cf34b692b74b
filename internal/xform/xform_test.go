package xform

import (
	"context"
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/paperex"
	"gsched/internal/sim"
)

// sumProgram builds a canonical top-test while loop:
//
//	sum(n) { s=0; for (off=0; off<4n; off+=4) s += a[off/4]; return s }
//
// The loop has two blocks (test header + body/latch), so it is eligible
// for both unrolling and rotation.
func sumProgram() (*ir.Program, *ir.Func) {
	p := ir.NewProgram()
	p.AddSym("a", 1024)
	f := ir.NewFunc("sum")
	n := ir.GPR(1)
	f.Params = []ir.Reg{n}
	s, off, nb, x := ir.GPR(2), ir.GPR(3), ir.GPR(4), ir.GPR(5)
	cr := ir.CR(0)
	b := ir.NewBuilder(f)

	b.Block("entry")
	b.LI(s, 0)
	b.LI(off, 0)
	b.OpI(ir.OpShlI, nb, n, 2)

	b.Block("H")
	b.Cmp(cr, off, nb)
	b.BF("exit", cr, ir.BitLT)

	b.Block("body")
	b.Load(x, "a", off, 0)
	b.Op2(ir.OpAdd, s, s, x)
	b.AI(off, off, 4)
	b.B("H")

	b.Block("exit")
	b.Ret(s)

	f.ReindexBlocks()
	p.AddFunc(f)
	return p, f
}

func runSum(t *testing.T, p *ir.Program, n int64, data []int64) int64 {
	t.Helper()
	m, err := sim.Load(p)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := m.Run("sum", []int64{n}, map[string][]int64{"a": data}, sim.Options{Machine: machine.RS6K()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Ret
}

func sumData(n int) (data []int64, want int64) {
	for i := 0; i < n; i++ {
		v := int64(i*3 - 7)
		data = append(data, v)
		want += v
	}
	return data, want
}

// innerLoop returns the first inner loop of f in region-tree walk order.
func innerLoop(t *testing.T, f *ir.Func) loop {
	t.Helper()
	li := cfg.FindLoops(cfg.Build(f))
	var target *cfg.Region
	li.Root.Walk(func(r *cfg.Region) {
		if target == nil && r.IsLoop && r.IsInner() {
			target = r
		}
	})
	if target == nil {
		t.Fatal("no inner loop found")
	}
	l, _ := readLoop(nil, li, target)
	return l
}

func TestUnrollOncePreservesSemantics(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 3, 7, 10} {
		p, f := sumProgram()
		l := innerLoop(t, f)
		origBlocks := len(f.Blocks)
		if ok, _ := unrollOnce(f, l); !ok {
			t.Fatal("unrollOnce refused the sum loop")
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid after unroll: %v\n%s", err, f)
		}
		if len(f.Blocks) <= origBlocks {
			t.Fatal("unroll added no blocks")
		}
		data, want := sumData(int(n))
		if n == 0 {
			data = []int64{0}
		}
		if got := runSum(t, p, n, data); got != want {
			t.Errorf("n=%d: sum=%d want %d after unroll\n%s", n, got, want, f)
		}
	}
}

func TestUnrolledLoopIsStillALoop(t *testing.T) {
	_, f := sumProgram()
	l := innerLoop(t, f)
	if ok, _ := unrollOnce(f, l); !ok {
		t.Fatal("unroll refused")
	}
	g2 := cfg.Build(f)
	li2 := cfg.FindLoops(g2)
	if li2.Irreducible {
		t.Fatal("unrolled function is irreducible")
	}
	l2 := innerLoop(t, f)
	if len(l2.blocks) != 2*len(l.blocks) {
		t.Errorf("unrolled loop has %d blocks, want %d", len(l2.blocks), 2*len(l.blocks))
	}
}

func TestRotatePreservesSemantics(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 5, 9} {
		p, f := sumProgram()
		l := innerLoop(t, f)
		if ok, _ := rotate(f, l); !ok {
			t.Fatal("rotate refused the sum loop")
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid after rotate: %v\n%s", err, f)
		}
		data, want := sumData(int(n))
		if n == 0 {
			data = []int64{0}
		}
		if got := runSum(t, p, n, data); got != want {
			t.Errorf("n=%d: sum=%d want %d after rotate\n%s", n, got, want, f)
		}
	}
}

func TestRotateRefusesBottomTestLoop(t *testing.T) {
	// The minmax loop's header has both successors inside the loop.
	_, f := paperex.MinMax()
	l := innerLoop(t, f)
	if ok, _ := rotate(f, l); ok {
		t.Fatal("rotate should refuse the minmax (bottom-test) loop")
	}
}

func TestDriverFullPipeline(t *testing.T) {
	for _, level := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
		p, f := sumProgram()
		st, err := RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), level), DefaultConfig())
		if err != nil {
			t.Fatalf("level=%s: %v", level, err)
		}
		if level > core.LevelNone {
			if st.LoopsUnrolled == 0 {
				t.Errorf("level=%s: expected the sum loop to be unrolled", level)
			}
			if st.LoopsRotated == 0 {
				t.Errorf("level=%s: expected the unrolled sum loop to be rotated", level)
			}
		}
		data, want := sumData(11)
		if got := runSum(t, p, 11, data); got != want {
			t.Errorf("level=%s: sum=%d want %d\n%s", level, got, want, f)
		}
	}
}

// TestDriverTimesVerifyPhase: with Verify on, each of the driver's
// verify brackets (two global passes and the local post-pass, a
// snapshot and a check each) reports to the trace as PhaseVerify; with
// Verify off the phase never runs.
func TestDriverTimesVerifyPhase(t *testing.T) {
	for _, verify := range []bool{false, true} {
		_, f := paperex.MinMax()
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		opts.Verify = verify
		opts.Trace = &core.Trace{}
		if _, err := RunCtx(context.Background(), f, opts, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		total, runs := opts.Trace.PhaseTotal(core.PhaseVerify)
		if want := map[bool]int64{false: 0, true: 6}[verify]; runs != want {
			t.Errorf("verify=%v: %d PhaseVerify runs, want %d", verify, runs, want)
		}
		if verify && total <= 0 {
			t.Errorf("verify=%v: PhaseVerify total %v, want > 0", verify, total)
		}
	}
}

func TestDriverOnMinMax(t *testing.T) {
	// The 10-block minmax loop exceeds the 4-block unroll/rotate caps,
	// but the driver must still schedule it globally.
	p, f := paperex.MinMax()
	st, err := RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), core.LevelSpeculative), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.LoopsUnrolled != 0 || st.LoopsRotated != 0 {
		t.Errorf("minmax loop should be too large for unroll/rotate: %+v", st)
	}
	if st.UsefulMoves == 0 {
		t.Error("driver performed no global motion")
	}
	m, err := sim.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	a := []int64{5, 9, -2, 3, 14, 7, 0, 11, 6}
	res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != -2 {
		t.Errorf("minmax ret = %d, want -2", res.Ret)
	}
}

// TestPipeliningEffect measures that unroll+rotate+reschedule does not
// slow the sum loop down and typically speeds it up per element.
func TestPipeliningEffect(t *testing.T) {
	cycles := func(withXform bool) int64 {
		p, f := sumProgram()
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		if withXform {
			if _, err := RunCtx(context.Background(), f, opts, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := RunCtx(context.Background(), f, opts, Config{}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := sim.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := sumData(256)
		res, err := m.Run("sum", []int64{256}, map[string][]int64{"a": data}, sim.Options{Machine: machine.RS6K()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	plain := cycles(false)
	piped := cycles(true)
	t.Logf("sum of 256: plain=%d cycles, unroll+rotate=%d cycles", plain, piped)
	if piped > plain {
		t.Errorf("pipeline made it slower: %d > %d", piped, plain)
	}
}
