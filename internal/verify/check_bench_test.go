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
func scheduledBigMain(tb testing.TB) (*verify.Verifier, *ir.Func, verify.Rules) {
	tb.Helper()
	f, opts := bigMain(tb)
	ver := new(verify.Verifier)
	ver.Capture(f)
	if _, err := xform.RunCtx(context.Background(), f, opts, xform.Config{}); err != nil {
		tb.Fatalf("schedule: %v", err)
	}
	return ver, f, opts.VerifyRules()
}

// postPassBigMain returns the same main scheduled at level speculative
// without the basic-block post-pass, snapshotted, and then post-pass
// scheduled: the bracket that the driver checks under verify.Rules{}.
func postPassBigMain(tb testing.TB) (*verify.Verifier, *ir.Func) {
	tb.Helper()
	f, opts := bigMain(tb)
	return postPass(tb, f, opts), f
}

// postPass schedules f under opts without the post-pass, captures it,
// runs the post-pass on every block and returns the capture.
func postPass(tb testing.TB, f *ir.Func, opts core.Options) *verify.Verifier {
	tb.Helper()
	opts.LocalPass = false
	if _, err := xform.RunCtx(context.Background(), f, opts, xform.Config{}); err != nil {
		tb.Fatalf("%s: schedule: %v", f.Name, err)
	}
	ver := new(verify.Verifier)
	ver.Capture(f)
	var sc core.Scratch
	for _, b := range f.Blocks {
		if err := sc.ScheduleBlockLocalPolicy(b, opts.Machine, opts.Policy); err != nil {
			tb.Fatalf("%s: post-pass: %v", f.Name, err)
		}
	}
	return ver
}

// bigMain compiles the first generated main of 900–1100 instructions
// and returns it with speculative-level options that do not rename (the
// snapshot must see exactly what the scheduler saw).
func bigMain(tb testing.TB) (*ir.Func, core.Options) {
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
		opts.Rename = false
		return f, opts
	}
	tb.Fatal("no generated main of 900–1100 instructions")
	return nil, core.Options{}
}

// BenchmarkCheck times one verification of a scheduled ~1000-instruction
// function, the unit of work behind the bigfunc verify layer: /global
// checks the whole speculative schedule, /postpass the basic-block
// post-pass bracket.
func BenchmarkCheck(b *testing.B) {
	ver, f, rules := scheduledBigMain(b)
	b.Run("global", func(b *testing.B) { benchCheck(b, ver, f, rules) })
	ver, f = postPassBigMain(b)
	b.Run("postpass", func(b *testing.B) { benchCheck(b, ver, f, verify.Rules{}) })
}

func benchCheck(b *testing.B, ver *verify.Verifier, f *ir.Func, rules verify.Rules) {
	if err := ver.Check(f, rules); err != nil {
		b.Fatalf("legal schedule rejected: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ver.Check(f, rules); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.NumInstrs()), "ns/instr")
}
