package core_test

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

// bigMain returns the source of the first generated program (in seed
// order) whose main has 900–1100 instructions, the bigfunc benchmark's
// band.
func bigMain(b *testing.B) string {
	for seed := int64(1); seed < 200; seed++ {
		pg := progen.NewSized(seed, progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3})
		prog, err := minic.Compile(pg.Source)
		if err != nil {
			b.Fatal(err)
		}
		if n := instrCount(prog.Func("main")); n >= 900 && n <= 1100 {
			return pg.Source
		}
	}
	b.Fatal("no generated main in 900–1100 instructions")
	return ""
}

func instrCount(f *ir.Func) int {
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	return n
}

// BenchmarkRegionScheduleBigfunc schedules one ~1000-instruction main
// at the speculative level on one worker, where region scheduling and
// its §5.3 liveness upkeep dominate.
func BenchmarkRegionScheduleBigfunc(b *testing.B) {
	src := bigMain(b)
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Parallelism = 1
	var instrs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := minic.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		f := prog.Func("main")
		instrs = instrCount(f)
		b.StartTimer()
		if _, err := xform.RunCtx(context.Background(), f, opts, xform.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/instr")
}
