package xform

import (
	"context"
	"fmt"
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/profile"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/workload"
)

// refillSweep is the reference loop sweep: walk the region tree for the
// first inner loop of at most maxBlocks blocks whose header has not been
// tried, transform it, refill fl after every change, and walk again.
// transformInnerLoops must give exactly its output with one refill per
// sweep.
func refillSweep(f *ir.Func, fl *cfg.Flow, maxBlocks int, xf loopTransform) int {
	done := map[*ir.Block]bool{}
	count := 0
	for !fl.Loops.Irreducible {
		var target *cfg.Region
		fl.Loops.Root.Walk(func(r *cfg.Region) {
			if target == nil && r.IsLoop && r.IsInner() && len(r.Blocks) <= maxBlocks && !done[f.Blocks[r.Header]] {
				target = r
			}
		})
		if target == nil {
			break
		}
		done[f.Blocks[target.Header]] = true
		l, _ := readLoop(nil, &fl.Loops, target)
		if ok, _ := xf(f, l); ok {
			count++
			fl.Refill(f)
		}
	}
	return count
}

// sweepProgram is one input of the sweep equivalence test.
type sweepProgram struct {
	name, src, entry string
	args             []int64
	data             map[string][]int64
	opt              bool // schedule opt.Program's output, as the proxies workload does
}

func (sp sweepProgram) compile(t *testing.T) *ir.Program {
	t.Helper()
	p, err := minic.Compile(sp.src)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if sp.opt {
		opt.Program(p)
	}
	return p
}

// train runs sp once functionally and returns its edge profile.
func (sp sweepProgram) train(t *testing.T) *profile.Profile {
	t.Helper()
	m, err := sim.Load(sp.compile(t))
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	prof := profile.New()
	if _, err := m.Run(sp.entry, sp.args, sp.data, sim.Options{Profile: prof, MaxInstrs: 5_000_000}); err != nil {
		t.Fatalf("%s: training run: %v", sp.name, err)
	}
	return prof
}

// andLoopsSrc has two `while (a && b)` loops. Rotating the first moves
// its header, the `a` test, out of the loop, which leaves the `b` test
// as the header of a loop that can be rotated too: a candidate no walk
// before the rotation could list, ahead of the second loop.
const andLoopsSrc = `
int g[64];
int f(int n, int m) {
    int i = 0;
    int s = 0;
    while (i < n && g[i] != m) {
        s += g[i];
        i++;
    }
    int j = 0;
    while (j < n && g[j] > m) {
        s -= g[j] * j;
        j++;
    }
    return s;
}
`

func sweepCorpus(t *testing.T) []sweepProgram {
	ps := []sweepProgram{{name: "andloops", src: andLoopsSrc, entry: "f", args: []int64{40, 7},
		data: map[string][]int64{"g": func() []int64 {
			g := make([]int64, 64)
			for i := range g {
				g[i] = int64(60 - i)
			}
			return g
		}()}}}
	for _, w := range workload.All() {
		ps = append(ps, sweepProgram{name: w.Name, src: w.Source, entry: w.Entry, args: w.Args, data: w.Data, opt: true})
	}
	seeds := int64(120)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		pg := progen.New(seed)
		ps = append(ps, sweepProgram{name: fmt.Sprintf("progen%d", seed), src: pg.Source, entry: pg.Entry, args: pg.Args})
	}
	return ps
}

// TestSweepMatchesPerLoopRefill: the one-walk sweep gives the bytes and
// Stats of the reference sweep that refills after every transformed
// loop, through the whole pass at the speculative level and at the dup
// level (whose tail duplication reshapes the loops before the sweeps)
// on two machines, and through TransformOnly, with and without
// unrolling.
func TestSweepMatchesPerLoopRefill(t *testing.T) {
	for _, sp := range sweepCorpus(t) {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			sweepMatches(t, sp)
		})
	}
}

// sweepMatches is TestSweepMatchesPerLoopRefill on one program.
func sweepMatches(t *testing.T, sp sweepProgram) {
	// both applies the pass to a fresh copy of sp with each sweep and
	// fails t unless the outputs and Stats agree.
	both := func(what string, pass func(f *ir.Func, sweep loopSweep) Stats) {
		var out [2]string
		var st [2]Stats
		for k, sweep := range []loopSweep{refillSweep, transformInnerLoops} {
			p := sp.compile(t)
			for _, f := range p.Funcs {
				st[k].Add(pass(f, sweep))
			}
			out[k] = p.String()
		}
		if out[0] != out[1] || st[0] != st[1] {
			t.Fatalf("%s: the sweep differs from refilling per loop:\nstats %+v\nwant  %+v", what, st[1], st[0])
		}
	}
	prof := sp.train(t)
	for _, lvl := range []core.Level{core.LevelSpeculative, core.LevelDup} {
		for _, mach := range []func() *machine.Desc{machine.RS6K, machine.Wide} {
			opts := core.Defaults(mach(), lvl)
			opts.Parallelism = 1
			if lvl == core.LevelDup {
				opts.Profile = prof
			}
			both(fmt.Sprintf("%v %s", lvl, opts.Machine.Name), func(f *ir.Func, sweep loopSweep) Stats {
				st, err := run(context.Background(), f, opts, DefaultConfig(), sweep)
				if err == nil {
					err = f.Validate()
				}
				if err != nil {
					t.Fatal(err)
				}
				return st
			})
		}
	}
	both("TransformOnly", func(f *ir.Func, sweep loopSweep) Stats {
		return transformOnly(f, DefaultConfig(), sweep)
	})
	// Unrolling doubles a loop past RotateMaxBlocks, so rotation alone
	// is what reaches the loops a rotation exposes.
	both("TransformOnly, rotation alone", func(f *ir.Func, sweep loopSweep) Stats {
		return transformOnly(f, Config{Rotate: true, RotateMaxBlocks: 4}, sweep)
	})
}

// TestSweepWalksAgainForExposedLoop: rotating the first `while (a && b)`
// loop exposes its `b` test as a rotatable header. The sweep must try
// it before the second loop, as the reference does, and the rotations
// must keep the function's result.
func TestSweepWalksAgainForExposedLoop(t *testing.T) {
	sp := sweepCorpus(t)[0]
	p := sp.compile(t)
	f := p.Func(sp.entry)
	var fl cfg.Flow
	fl.Refill(f)
	var inner int
	fl.Loops.Root.Walk(func(r *cfg.Region) {
		if r.IsLoop && r.IsInner() {
			inner++
		}
	})
	rotated := transformInnerLoops(f, &fl, 4, rotate)
	if rotated <= inner {
		t.Fatalf("rotated %d loops of %d inner loops: no exposed loop was rotated", rotated, inner)
	}
	ref := sp.compile(t)
	rf := ref.Func(sp.entry)
	var rfl cfg.Flow
	rfl.Refill(rf)
	if want := refillSweep(rf, &rfl, 4, rotate); rotated != want || f.String() != rf.String() {
		t.Fatalf("the sweep rotated %d loops, the reference %d:\n%s\nwant\n%s", rotated, want, f, rf)
	}
	var fresh cfg.Flow
	fresh.Refill(f)
	if fresh.G.String() != fl.G.String() {
		t.Error("the sweep left a stale flow analysis")
	}
	for _, args := range [][]int64{{0, 7}, {1, 7}, {40, 7}, {64, 100}, {64, -100}} {
		var got [2]int64
		for k, prog := range []*ir.Program{sp.compile(t), p} {
			m, err := sim.Load(prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(sp.entry, args, sp.data, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got[k] = res.Ret
		}
		if got[0] != got[1] {
			t.Errorf("f%v = %d after rotation, want %d", args, got[1], got[0])
		}
	}
}
