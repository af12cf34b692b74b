package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/paperex"
	"gsched/internal/policy"
	"gsched/internal/profile"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// liveOracle checks every liveness answer the region scheduler gives
// against a fresh, eager ComputeScoped over the same scope. It is safe
// for concurrent region-group workers.
type liveOracle struct {
	checks atomic.Int64
	mu     sync.Mutex
	errs   []string
}

var analyzers = sync.Pool{New: func() any { return new(dataflow.Analyzer) }}

func (o *liveOracle) check(f *ir.Func, g *cfg.Graph, scope []bool, base, got *dataflow.Liveness) {
	o.checks.Add(1)
	a := analyzers.Get().(*dataflow.Analyzer)
	defer analyzers.Put(a)
	want := a.ComputeScoped(f, g, scope, base)
	same := func(x, y *dataflow.RegSet) bool {
		ok := x.Count() == y.Count()
		y.ForEach(func(r ir.Reg) { ok = ok && x.Has(r) })
		return ok
	}
	for b := range want.In {
		if !same(got.In[b], want.In[b]) || !same(got.Out[b], want.Out[b]) {
			o.mu.Lock()
			o.errs = append(o.errs, fmt.Sprintf("%s: block %d: live-in %d regs, live-out %d; a fresh solve gives %d and %d",
				f.Name, b, got.In[b].Count(), got.Out[b].Count(), want.In[b].Count(), want.Out[b].Count()))
			o.mu.Unlock()
			return
		}
	}
}

// withLiveOracle runs fn with the oracle installed, fails t on the first
// answer that differs from a fresh solve, and returns how many answers
// it checked.
func withLiveOracle(t *testing.T, what string, fn func()) int64 {
	t.Helper()
	o := &liveOracle{}
	core.SetLiveCheck(o.check)
	defer core.SetLiveCheck(nil)
	fn()
	if len(o.errs) > 0 {
		t.Fatalf("%s: %d of %d liveness answers are stale; first: %s", what, len(o.errs), o.checks.Load(), o.errs[0])
	}
	return o.checks.Load()
}

// oracleProgram is one input of TestIncrementalLivenessOracle: a fresh
// copy per schedule, and the entry and arguments that train its profile.
type oracleProgram struct {
	name  string
	build func() (*ir.Program, error)
	entry string
	args  []int64
	data  map[string][]int64
}

func oraclePrograms(t *testing.T) []oracleProgram {
	t.Helper()
	var progs []oracleProgram
	for _, w := range workload.All() {
		progs = append(progs, oracleProgram{name: w.Name, build: w.Compile, entry: w.Entry, args: w.Args, data: w.Data})
	}
	mains := 2
	if testing.Short() {
		mains = 1
	}
	for seed := int64(1); seed <= int64(mains); seed++ {
		pg := progen.NewSized(seed, progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3})
		progs = append(progs, oracleProgram{
			name:  fmt.Sprintf("bigfunc-seed%d", seed),
			build: func() (*ir.Program, error) { return minic.Compile(pg.Source) },
			entry: pg.Entry, args: pg.Args,
		})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "difftest", "*.asm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		entry := prog.Funcs[0].Name
		if prog.Func("main") != nil {
			entry = "main"
		}
		args := make([]int64, len(prog.Func(entry).Params))
		for i := range args {
			args[i] = int64(3 + 2*i)
		}
		progs = append(progs, oracleProgram{
			name:  filepath.Base(file),
			build: func() (*ir.Program, error) { return asm.Parse(string(src)) },
			entry: entry, args: args,
		})
	}
	return progs
}

// oracleCells pairs every level, driver, policy setting and job count
// with each of the others at least once.
var oracleCells = []struct {
	level    core.Level
	policy   bool
	jobs     int
	pipeline bool // xform.RunProgramCtx, else xform.ScheduleProgramCtx
}{
	{core.LevelSpeculative, false, 1, false},
	{core.LevelSpeculative, false, 4, true},
	{core.LevelSpeculative, true, 4, false},
	{core.LevelDup, false, 1, true},
	{core.LevelDup, false, 4, false},
	{core.LevelDup, true, 1, true},
}

// TestIncrementalLivenessOracle drives the region scheduler with the
// liveness oracle on: every §5.3 and Definition-6 answer given with no
// edit pending must equal an eager recomputation, whether it came from
// the scope's first solve or from an incremental update. It covers the
// workload programs (whose root regions are small enough to schedule),
// bigfunc-shaped mains and the difftest reproducers at the speculative
// level and at level=dup with a trained profile (oracleCells), plus the
// paper's Figures 5 and 6.
func TestIncrementalLivenessOracle(t *testing.T) {
	mach := machine.RS6K()
	var checks int64
	for _, level := range []core.Level{core.LevelUseful, core.LevelSpeculative} {
		checks += withLiveOracle(t, fmt.Sprintf("minmax level=%v", level), func() {
			_, f := paperex.MinMax()
			if _, err := core.ScheduleFuncCtx(context.Background(), f, core.Defaults(mach, level)); err != nil {
				t.Fatal(err)
			}
		})
	}
	pol := policy.MustParse("priority = tiers(x.cp - y.cp, x.d - y.d, y.pos - x.pos)\ngate = prob >= 0.3 || !is_load")
	for _, op := range oraclePrograms(t) {
		base, err := op.build()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		prof := profile.New()
		m, err := sim.Load(base)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if _, err := m.Run(op.entry, op.args, op.data, sim.Options{Profile: prof, ForgivingLoads: true, MaxInstrs: 5_000_000}); err != nil {
			t.Fatalf("%s: training run: %v", op.name, err)
		}
		for _, c := range oracleCells {
			what := fmt.Sprintf("%s level=%v policy=%t jobs=%d pipeline=%t", op.name, c.level, c.policy, c.jobs, c.pipeline)
			prog, err := op.build()
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Defaults(mach, c.level)
			opts.Parallelism = c.jobs
			opts.Verify = true
			if c.level == core.LevelDup {
				opts.Profile = prof
			}
			if c.policy {
				opts.Policy = pol
			}
			checks += withLiveOracle(t, what, func() {
				if c.pipeline {
					_, err = xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
				} else {
					_, err = xform.ScheduleProgramCtx(context.Background(), prog, opts)
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			})
		}
	}
	if checks == 0 {
		t.Fatal("the scheduler asked no liveness question")
	}
}
