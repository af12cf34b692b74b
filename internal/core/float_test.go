package core_test

import (
	"context"
	"math"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// buildFloatLoop sums doubles from memory in a loop whose body mixes
// fixed point address arithmetic with floating point accumulation — the
// shape §2's three-unit machine is built for.
func buildFloatLoop() (*ir.Program, *ir.Func) {
	prog := ir.NewProgram()
	prog.AddSym("fv", 64)
	f := ir.NewFunc("fsum")
	n := ir.GPR(0)
	f.Params = []ir.Reg{n}
	b := ir.NewBuilder(f)

	off, nb := ir.GPR(1), ir.GPR(2)
	acc, x := ir.FPR(0), ir.FPR(1)
	cr, crg := ir.CR(0), ir.CR(1)
	zero := ir.GPR(3)

	b.Block("entry")
	b.LI(zero, 0)
	b.Emit(ir.OpFCvt, func(i *ir.Instr) { i.Def = acc; i.A = zero })
	b.LI(off, 0)
	b.OpI(ir.OpShlI, nb, n, 2)
	b.Cmp(crg, off, nb)
	b.BF("exit", crg, ir.BitLT)

	b.Block("loop")
	b.Emit(ir.OpFLoad, func(i *ir.Instr) {
		i.Def = x
		i.Mem = &ir.Mem{Sym: "fv", Base: off, Off: 0}
	})
	b.Emit(ir.OpFAdd, func(i *ir.Instr) { i.Def = acc; i.A = acc; i.B = x })
	b.AI(off, off, 4)
	b.Cmp(cr, off, nb)
	b.BT("loop", cr, ir.BitLT)

	b.Block("exit")
	out := ir.GPR(4)
	b.Emit(ir.OpFTrunc, func(i *ir.Instr) { i.Def = out; i.A = acc })
	b.Ret(out)
	f.ReindexBlocks()
	prog.AddFunc(f)
	return prog, f
}

func fvData(n int) (data []int64, want int64) {
	sum := 0.0
	for i := 0; i < n; i++ {
		v := float64(i)*1.5 - 3
		sum += v
		data = append(data, fbitsOf(v))
	}
	return data, int64(sum)
}

func fbitsOf(v float64) int64 { return int64(math.Float64bits(v)) }

func TestFloatLoopSchedulesAndRuns(t *testing.T) {
	for _, level := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
		prog, f := buildFloatLoop()
		st, err := xform.RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), level), xform.Config{})
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("level %v: invalid: %v\n%s", level, err, f)
		}
		_ = st
		m, err := sim.Load(prog)
		if err != nil {
			t.Fatal(err)
		}
		data, want := fvData(16)
		res, err := m.Run("fsum", []int64{16}, map[string][]int64{"fv": data},
			sim.Options{Machine: machine.RS6K(), ForgivingLoads: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != want {
			t.Errorf("level %v: sum = %d, want %d", level, res.Ret, want)
		}
	}
}

// TestFloatLoopGainsFromScheduling: the float load/add chain leaves the
// fixed point unit idle; global scheduling overlaps the loop control.
func TestFloatLoopGainsFromScheduling(t *testing.T) {
	cycles := func(level core.Level) int64 {
		prog, f := buildFloatLoop()
		if _, err := xform.RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), level), xform.Config{}); err != nil {
			t.Fatal(err)
		}
		m, err := sim.Load(prog)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := fvData(48)
		res, err := m.Run("fsum", []int64{48}, map[string][]int64{"fv": data},
			sim.Options{Machine: machine.RS6K(), ForgivingLoads: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	base := cycles(core.LevelNone)
	spec := cycles(core.LevelSpeculative)
	t.Logf("fsum(48): base %d cycles, speculative %d", base, spec)
	if spec > base {
		t.Errorf("scheduling made the float loop slower: %d > %d", spec, base)
	}
}
