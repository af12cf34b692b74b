package xform

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/paperex"
	"gsched/internal/sim"
)

func TestCounterLoopOnMinMax(t *testing.T) {
	prog, f := paperex.MinMax()
	if n := CounterLoops(f); n != 1 {
		t.Fatalf("converted %d loops, want 1\n%s", n, f)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid after conversion: %v\n%s", err, f)
	}
	// The latch now ends in BCT with no AI/C pair.
	var bct *ir.Instr
	f.Instrs(func(_ *ir.Block, i *ir.Instr) {
		if i.Op == ir.OpBCT {
			bct = i
		}
	})
	if bct == nil {
		t.Fatalf("no BCT emitted:\n%s", f)
	}
	// Induction arithmetic gone: the paper's I18/I19 disappear.
	ai, cmps := 0, 0
	lo, hi := paperex.LoopBlocks()
	for _, b := range f.Blocks[lo+1 : hi+1] { // shifted by the preheader
		for _, i := range b.Instrs {
			if i.Op == ir.OpAddI && i.Imm == 2 {
				ai++
			}
			if i.Op == ir.OpCmp && i.B == paperex.RegN {
				cmps++
			}
		}
	}
	if ai != 0 || cmps != 0 {
		t.Errorf("loop still contains induction code (AI=%d, C=%d):\n%s", ai, cmps, f)
	}

	// Semantics across trip counts (odd n: the paper's loop shape).
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a    []int64
		want int64
	}{
		{[]int64{5, 9, -2}, -2},
		{[]int64{5, 9, -2, 3, 14, 7, 0, 11, 6}, -2},
		{[]int64{4, 8, 6}, 4},
	} {
		res, err := m.Run("minmax", []int64{int64(len(tc.a))}, map[string][]int64{"a": tc.a}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != tc.want {
			t.Errorf("minmax(%v) = %d, want %d", tc.a, res.Ret, tc.want)
		}
	}
	// n=1: the guard skips the loop entirely; the counter path never runs.
	res, err := m.Run("minmax", []int64{1}, map[string][]int64{"a": {42}}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Errorf("minmax single element = %d, want 42", res.Ret)
	}
}

func TestCounterLoopSpeedsUpMinMax(t *testing.T) {
	cycles := func(counter bool) int64 {
		prog, f := paperex.MinMax()
		if counter {
			if CounterLoops(f) != 1 {
				t.Fatal("conversion failed")
			}
		}
		if _, err := RunCtx(context.Background(), f, core.Defaults(machine.RS6K(), core.LevelSpeculative), Config{}); err != nil {
			t.Fatal(err)
		}
		m, err := sim.Load(prog)
		if err != nil {
			t.Fatal(err)
		}
		a := []int64{0}
		for v := int64(1); len(a) < 81; v += 2 {
			a = append(a, v, -v)
		}
		res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a},
			sim.Options{Machine: machine.RS6K(), ForgivingLoads: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	plain := cycles(false)
	counted := cycles(true)
	t.Logf("minmax: %d cycles without counter register, %d with", plain, counted)
	if counted >= plain {
		t.Errorf("counter register should reduce cycles: %d vs %d", counted, plain)
	}
}

func TestCounterLoopRefusals(t *testing.T) {
	// A loop whose induction variable is used in the body must not
	// convert.
	f := ir.NewFunc("t")
	b := ir.NewBuilder(f)
	i, n, s, cr, crg := ir.GPR(0), ir.GPR(1), ir.GPR(2), ir.CR(0), ir.CR(1)
	f.Params = []ir.Reg{n}
	b.Block("entry")
	b.LI(i, 0)
	b.LI(s, 0)
	b.Cmp(crg, i, n)
	b.BF("exit", crg, ir.BitLT)
	b.Block("loop")
	b.Op2(ir.OpAdd, s, s, i) // body uses i
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	b.BT("loop", cr, ir.BitLT)
	b.Block("exit")
	b.Ret(s)
	f.ReindexBlocks()
	if got := CounterLoops(f); got != 0 {
		t.Errorf("converted a loop whose induction variable is live in the body")
	}

	// Non-power-of-two step must not convert.
	f2 := ir.NewFunc("t2")
	b2 := ir.NewBuilder(f2)
	f2.Params = []ir.Reg{n}
	b2.Block("entry")
	b2.LI(i, 0)
	b2.Cmp(crg, i, n)
	b2.BF("exit", crg, ir.BitLT)
	b2.Block("loop")
	b2.AI(i, i, 3)
	b2.Cmp(cr, i, n)
	b2.BT("loop", cr, ir.BitLT)
	b2.Block("exit")
	b2.Ret(n)
	f2.ReindexBlocks()
	if got := CounterLoops(f2); got != 0 {
		t.Errorf("converted a step-3 loop")
	}

	// Unguarded loop (no dominating i<n proof) must not convert.
	f3 := ir.NewFunc("t3")
	b3 := ir.NewBuilder(f3)
	f3.Params = []ir.Reg{n}
	b3.Block("entry")
	b3.LI(i, 0)
	b3.Block("loop")
	b3.AI(i, i, 1)
	b3.Cmp(cr, i, n)
	b3.BT("loop", cr, ir.BitLT)
	b3.Block("exit")
	b3.Ret(n)
	f3.ReindexBlocks()
	if got := CounterLoops(f3); got != 0 {
		t.Errorf("converted an unguarded do-while loop")
	}
}
