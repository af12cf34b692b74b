package verify_test

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/verify"
	"gsched/internal/xform"
)

// bigMainSize is the generator shape of the bench suite's bigfunc
// workload: one large main with loops, floats, a helper and arrays.
var bigMainSize = progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3}

// scheduledBigMain returns the first generated program whose main has
// 900–1100 instructions, together with main's pre-schedule snapshot
// after a speculative-level schedule and the rules that schedule ran
// under.
func scheduledBigMain(tb testing.TB) (*verify.Snapshot, *ir.Func, verify.Rules) {
	tb.Helper()
	for seed := int64(1); seed < 500; seed++ {
		prog, err := minic.Compile(progen.NewSized(seed, bigMainSize).Source)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		f := prog.Func("main")
		if n := f.NumInstrs(); n < 900 || n > 1100 {
			continue
		}
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		opts.Rename = false // the snapshot must see exactly what the scheduler saw
		snap := verify.Capture(f)
		if _, err := xform.RunCtx(context.Background(), f, opts, xform.Config{}); err != nil {
			tb.Fatalf("seed %d: schedule: %v", seed, err)
		}
		return snap, f, opts.VerifyRules()
	}
	tb.Fatal("no generated main of 900–1100 instructions")
	return nil, nil, verify.Rules{}
}

// BenchmarkCheck times one verification of a scheduled ~1000-instruction
// function, the unit of work behind the bigfunc verify layer.
func BenchmarkCheck(b *testing.B) {
	snap, f, rules := scheduledBigMain(b)
	if err := verify.Check(snap, f, rules); err != nil {
		b.Fatalf("legal schedule rejected: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify.Check(snap, f, rules); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.NumInstrs()), "ns/instr")
}
