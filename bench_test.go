// Benchmarks regenerating the paper's tables and figures. Each figure
// has a benchmark whose custom metrics report the numbers the paper
// quotes; EXPERIMENTS.md records the paper-vs-measured comparison.
//
//	go test -bench=. -benchmem
//
// Figure 2/5/6: cycles-per-iteration of the minmax loop (metric
// "cycles/iter"). Figure 7: compile time of each workload with and
// without global scheduling (the benchmark time itself). Figure 8:
// simulated run time of each workload per configuration (metric
// "simcycles"). Wider machines and ablations likewise.
package gsched_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gsched"
	"gsched/internal/asm"
	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/eval"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/pdg"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/stream"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// benchMinMax reports the steady-state cycles per iteration of the
// minmax loop at one scheduling level (Figures 2, 5 and 6).
func benchMinMax(b *testing.B, level core.Level, updates int) {
	var cycles [3]int64
	var err error
	for i := 0; i < b.N; i++ {
		cycles, _, err = eval.MinMaxCycles(level)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles[updates]), "cycles/iter")
}

func BenchmarkFigure2MinMaxBase(b *testing.B)        { benchMinMax(b, core.LevelNone, 1) }
func BenchmarkFigure5MinMaxUseful(b *testing.B)      { benchMinMax(b, core.LevelUseful, 1) }
func BenchmarkFigure6MinMaxSpeculative(b *testing.B) { benchMinMax(b, core.LevelSpeculative, 1) }

// BenchmarkFigure7CompileTime measures what Figure 7 measures: the
// compile time of each workload under the BASE compiler and under the
// full global scheduling pipeline. The overhead percentage is the ratio
// of the two benchmark times.
func BenchmarkFigure7CompileTime(b *testing.B) {
	mach := machine.RS6K()
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name+"/base", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.CompileBase(w, mach); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.Name+"/global", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.CompileGlobal(w, mach, core.LevelSpeculative); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8RunTime reports each workload's simulated cycles under
// BASE, useful-only, and useful+speculative scheduling (metric
// "simcycles"); the run-time improvement column of Figure 8 is
// (base-level)/base.
func BenchmarkFigure8RunTime(b *testing.B) {
	mach := machine.RS6K()
	for _, w := range workload.All() {
		for _, cfg := range []struct {
			name  string
			level core.Level
		}{
			{"base", core.LevelNone},
			{"useful", core.LevelUseful},
			{"speculative", core.LevelSpeculative},
		} {
			w, cfg := w, cfg
			b.Run(w.Name+"/"+cfg.name, func(b *testing.B) {
				var prog *gsched.Program
				var err error
				if cfg.level == core.LevelNone {
					prog, err = eval.CompileBase(w, mach)
				} else {
					prog, err = eval.CompileGlobal(w, mach, cfg.level)
				}
				if err != nil {
					b.Fatal(err)
				}
				m, err := sim.Load(prog)
				if err != nil {
					b.Fatal(err)
				}
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := m.Run(w.Entry, w.Args, w.Data,
						sim.Options{Machine: mach, ForgivingLoads: true})
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(cycles), "simcycles")
			})
		}
	}
}

// BenchmarkWiderMachines projects §6's closing remark: speculative
// scheduling measured on wider machines (metric "simcycles").
func BenchmarkWiderMachines(b *testing.B) {
	for _, mach := range []*machine.Desc{
		machine.RS6K(), machine.Superscalar(2, 1), machine.Superscalar(4, 2),
	} {
		mach := mach
		w := workload.ByName("eqntott")
		b.Run(mach.Name, func(b *testing.B) {
			prog, err := eval.CompileGlobal(w, mach, core.LevelSpeculative)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.Load(prog)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := m.Run(w.Entry, w.Args, w.Data,
					sim.Options{Machine: mach, ForgivingLoads: true})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblation measures the design choices DESIGN.md calls out:
// renaming off, local post-pass off, speculative loads off, and the
// transformations alone (metric "simcycles" on eqntott).
func BenchmarkAblation(b *testing.B) {
	mach := machine.RS6K()
	w := workload.ByName("eqntott")
	configs := []struct {
		name string
		mod  func(*core.Options)
		xfrm bool // transformations only, no global scheduling
	}{
		{"full", nil, false},
		{"norename", func(o *core.Options) { o.Rename = false }, false},
		{"nolocal", func(o *core.Options) { o.LocalPass = false }, false},
		{"nospecloads", func(o *core.Options) { o.SpeculateLoads = false }, false},
		{"xformonly", nil, true},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			prog, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Defaults(mach, core.LevelSpeculative)
			if cfg.mod != nil {
				cfg.mod(&opts)
			}
			if cfg.xfrm {
				xform.TransformOnlyProgram(prog, xform.DefaultConfig())
				if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, core.LevelNone), xform.Config{}); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
			m, err := sim.Load(prog)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := m.Run(w.Entry, w.Args, w.Data,
					sim.Options{Machine: mach, ForgivingLoads: true})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkSchedulerThroughput measures the scheduler itself: functions
// scheduled per second on the largest workload (relevant to Figure 7's
// compile-time story).
func BenchmarkSchedulerThroughput(b *testing.B) {
	w := workload.ByName("li")
	mach := machine.RS6K()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, core.LevelSpeculative), xform.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleOnlyLI isolates the scheduling pipeline from parsing:
// compilation runs outside the timer, so allocs/op here is what the
// pooled pipeline actually costs per compile of the LI workload.
func BenchmarkScheduleOnlyLI(b *testing.B) {
	w := workload.ByName("li")
	mach := machine.RS6K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, core.LevelSpeculative), xform.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaling is the big-program scaling sweep: a progen.Huge
// program of about 1k, 10k and 100k instructions through the full
// streaming pipeline (parse, rename, speculative scheduling with the §6
// transforms, print to a discarded writer) at GOMAXPROCS workers.
// Generation happens outside the timer. Flat ns/instr and allocs/instr
// across the sizes mean the tool chain scales to big programs; a jump
// flags a superlinear hot spot. Peak heap is HeapAlloc sampled every
// 10 ms during the timed loop. Profile a size with go test's own
// -cpuprofile or -memprofile.
func BenchmarkScaling(b *testing.B) {
	cfg := stream.Config{
		Opts:     core.Defaults(machine.RS6K(), core.LevelSpeculative),
		Pipeline: xform.DefaultConfig(), UsePipeline: true,
		Jobs: runtime.GOMAXPROCS(0),
	}
	for _, target := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprint(target), func(b *testing.B) {
			src := progen.Huge(11, target).Source
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stopHeap := sampleHeap()
			b.ResetTimer()
			var instrs int
			for i := 0; i < b.N; i++ {
				res, err := stream.Schedule(context.Background(), asm.Native, src, cfg, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instrs
			}
			b.StopTimer()
			peak := stopHeap()
			runtime.ReadMemStats(&after)
			n := float64(instrs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/instr")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/instr")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/instr")
			b.ReportMetric(float64(max(peak, after.HeapAlloc))/(1<<20), "peak-heap-MiB")
		})
	}
}

// bigfuncSource returns the first program of the benchmark suite's
// bigfunc shape drawn from seed 1: a single main of 25 statements at
// depth 3 with loops, floats, a helper and three arrays, kept when it
// compiles to 900-1100 instructions.
func bigfuncSource(tb testing.TB) string {
	tb.Helper()
	r := rand.New(rand.NewSource(1))
	for tries := 0; tries < 100; tries++ {
		pg := progen.NewSized(r.Int63(), progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3})
		prog, err := minic.Compile(pg.Source)
		if err != nil {
			tb.Fatal(err)
		}
		n := 0
		for _, f := range prog.Funcs {
			n += f.NumInstrs()
		}
		if n >= 900 && n <= 1100 {
			return pg.Source
		}
	}
	tb.Fatal("no bigfunc-shaped program in 100 draws")
	return ""
}

// compileVerified compiles mini-C src, schedules it with the verifier
// on under DefaultConfig and prints it to w, as one bigfunc operation
// of the benchmark suite does, and returns its input instruction count.
func compileVerified(tb testing.TB, src string, opts core.Options, w io.Writer) int {
	prog, err := minic.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, f := range prog.Funcs {
		n += f.NumInstrs()
	}
	if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
		tb.Fatal(err)
	}
	if err := asm.PrintTo(w, prog); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkVerifiedCompileBigfunc is one operation of the suite's
// bigfunc workload: front end, verified scheduling at the default
// parallelism, print. Besides ns/instr it reports the bytes and
// objects allocated per instruction and the collections per compile
// (gcs/op), which together say how often the collector runs and so how
// often pooled state would be refilled.
func BenchmarkVerifiedCompileBigfunc(b *testing.B) {
	src := bigfuncSource(b)
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Verify = true
	compileVerified(b, src, opts, io.Discard) // fill the workers' scratch
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	instrs := 0
	for i := 0; i < b.N; i++ {
		instrs += compileVerified(b, src, opts, io.Discard)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(instrs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/instr")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/instr")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/instr")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// sampleHeap polls HeapAlloc every 10 ms until the returned stop is
// called, and stop returns the largest value seen, so the peak covers
// mid-run state and not just the final heap.
func sampleHeap() (stop func() uint64) {
	var peak uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
			}
		}
	}()
	return func() uint64 { close(done); <-sampled; return peak }
}

// biggestRegion returns the flow analyses and root region of the largest
// function of the LI workload, the hot input for the dependence
// micro-benchmarks below.
func biggestRegion(b *testing.B) (*ir.Func, *cfg.Graph, *cfg.LoopInfo, *cfg.Region) {
	b.Helper()
	prog, err := workload.ByName("li").Compile()
	if err != nil {
		b.Fatal(err)
	}
	var best *ir.Func
	for _, f := range prog.Funcs {
		if best == nil || f.NumInstrs() > best.NumInstrs() {
			best = f
		}
	}
	g := cfg.Build(best)
	li := cfg.FindLoops(g)
	if li.Irreducible {
		b.Fatal("LI workload unexpectedly irreducible")
	}
	return best, g, li, li.Root
}

// BenchmarkBuildDDG measures data dependence graph construction over the
// root region of LI's largest function (the dominant cost of pdg.Build).
func BenchmarkBuildDDG(b *testing.B) {
	f, g, li, r := biggestRegion(b)
	depView := g.Forward(r.Blocks, r.Header, func(u, v int) bool {
		return v == r.Header && li.IsBackEdge(u, v)
	})
	reach := depView.ReachableFrom()
	mach := machine.RS6K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdg.NewBuilder().BuildDDG(f, r.Blocks, reach, mach)
	}
}

// BenchmarkReachableFrom measures the transitive reachability relation
// over the forward view of the same region.
func BenchmarkReachableFrom(b *testing.B) {
	_, g, li, r := biggestRegion(b)
	depView := g.Forward(r.Blocks, r.Header, func(u, v int) bool {
		return v == r.Header && li.IsBackEdge(u, v)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depView.ReachableFrom()
	}
}

// BenchmarkSimulatorThroughput measures simulated instructions per
// second (metric "Minstr/s").
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workload.ByName("gcc")
	prog, err := eval.CompileBase(w, machine.RS6K())
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.Load(prog)
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w.Entry, w.Args, w.Data, sim.Options{Machine: machine.RS6K()})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instrs
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
}
