package progen

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// run compiles and executes a generated program after the given
// scheduling treatment; level < 0 means unscheduled. duplicate enables
// the Definition 6 extension.
func run(t *testing.T, p *Program, level core.Level, pipeline bool, duplicate ...bool) (*sim.Result, bool) {
	t.Helper()
	prog, err := minic.Compile(p.Source)
	if err != nil {
		t.Fatalf("seed %d: compile: %v\n%s", p.Seed, err, p.Source)
	}
	mach := machine.RS6K()
	if level >= core.LevelNone {
		opts := core.Defaults(mach, level)
		if len(duplicate) > 0 && duplicate[0] {
			opts.Duplicate = true
		}
		if pipeline {
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatalf("seed %d: xform: %v\n%s", p.Seed, err, p.Source)
			}
		} else {
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{}); err != nil {
				t.Fatalf("seed %d: schedule: %v\n%s", p.Seed, err, p.Source)
			}
		}
		for _, f := range prog.Funcs {
			if err := f.Validate(); err != nil {
				t.Fatalf("seed %d: invalid after scheduling: %v", p.Seed, err)
			}
		}
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatalf("seed %d: load: %v", p.Seed, err)
	}
	res, err := m.Run(p.Entry, p.Args, nil, sim.Options{
		Machine:        mach,
		ForgivingLoads: level >= core.LevelSpeculative,
		MaxInstrs:      20_000_000,
	})
	if err != nil {
		t.Fatalf("seed %d: run (level=%v pipeline=%v): %v\n%s", p.Seed, level, pipeline, err, p.Source)
	}
	return res, true
}

// TestGeneratedProgramsAreSafe: every generated program compiles and
// terminates without memory faults, division by zero, or runaway loops.
func TestGeneratedProgramsAreSafe(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := New(seed)
		res, _ := run(t, p, -1, false)
		if res.Instrs == 0 {
			t.Errorf("seed %d: empty execution", seed)
		}
	}
}

// TestSchedulingInvariance is the repository's central property: for
// random programs, every scheduling level (with and without the
// unroll/rotate pipeline) preserves the return value and the printed
// output. Driven through testing/quick.
func TestSchedulingInvariance(t *testing.T) {
	seeds := 0
	property := func(seed int64) bool {
		seeds++
		if seed < 0 {
			seed = -seed
		}
		p := New(seed % 100_000)
		base, _ := run(t, p, -1, false)
		for _, level := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
			for _, pipeline := range []bool{false, true} {
				res, _ := run(t, p, level, pipeline)
				if res.Ret != base.Ret || res.PrintedString() != base.PrintedString() {
					t.Logf("seed %d level=%v pipeline=%v: ret=%d/%q want %d/%q\n%s",
						p.Seed, level, pipeline, res.Ret, res.PrintedString(),
						base.Ret, base.PrintedString(), p.Source)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %d random programs", seeds)
}

// TestUsefulKeepsDynamicCounts: useful-only motion may never change the
// number of executed instructions (equivalence means equal execution
// frequency).
func TestUsefulKeepsDynamicCounts(t *testing.T) {
	property := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		p := New(seed % 100_000)
		base, _ := run(t, p, -1, false)
		useful, _ := run(t, p, core.LevelUseful, false)
		if useful.Instrs != base.Instrs {
			t.Logf("seed %d: dynamic count %d -> %d\n%s", p.Seed, base.Instrs, useful.Instrs, p.Source)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicationInvariance: the Definition 6 extension must also
// preserve behaviour on random programs (with and without the pipeline).
func TestDuplicationInvariance(t *testing.T) {
	property := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		p := New(seed % 100_000)
		base, _ := run(t, p, -1, false)
		for _, pipeline := range []bool{false, true} {
			res, _ := run(t, p, core.LevelSpeculative, pipeline, true)
			if res.Ret != base.Ret || res.PrintedString() != base.PrintedString() {
				t.Logf("seed %d pipeline=%v: ret=%d/%q want %d/%q\n%s",
					p.Seed, pipeline, res.Ret, res.PrintedString(),
					base.Ret, base.PrintedString(), p.Source)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusCoverage: the optional constructs — float arithmetic and
// compares, while-loops, and nested while-loops — must actually appear
// across a corpus of generated programs, and the Features record must
// match the emitted source.
func TestCorpusCoverage(t *testing.T) {
	const n = 200
	var floats, whiles, nested int
	for seed := int64(0); seed < n; seed++ {
		p := New(seed)
		if p.Features.Floats {
			floats++
			if !strings.Contains(p.Source, "float ") {
				t.Errorf("seed %d: Features.Floats set but no float in source", seed)
			}
		}
		if p.Features.While {
			whiles++
			if !strings.Contains(p.Source, "while (") {
				t.Errorf("seed %d: Features.While set but no while in source", seed)
			}
		}
		if p.Features.NestedWhile {
			nested++
		}
		if p.Features.NestedWhile && !p.Features.While {
			t.Errorf("seed %d: NestedWhile without While", seed)
		}
	}
	t.Logf("corpus of %d: floats=%d while=%d nested-while=%d", n, floats, whiles, nested)
	if floats < n/4 {
		t.Errorf("float constructs appear in only %d/%d programs", floats, n)
	}
	if whiles < n/4 {
		t.Errorf("while loops appear in only %d/%d programs", whiles, n)
	}
	if nested < n/20 {
		t.Errorf("nested while loops appear in only %d/%d programs", nested, n)
	}
}

// TestDeterministicGeneration pins the generator: the same seed yields
// the same source.
func TestDeterministicGeneration(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := New(seed), New(seed)
		if a.Source != b.Source {
			t.Fatalf("seed %d: nondeterministic generation", seed)
		}
	}
}

// TestSizedGeneration: size-bounded programs are deterministic, honour
// the loop/call gates, and compile and terminate like full-size ones.
func TestSizedGeneration(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		sz := SmallSize()
		sz.Floats = seed%2 == 0
		sz.Helper = seed%3 == 0
		p := NewSized(seed, sz)
		if q := NewSized(seed, sz); q.Source != p.Source {
			t.Fatalf("seed %d: nondeterministic sized generation", seed)
		}
		res, _ := run(t, p, -1, false)
		if res.Instrs == 0 {
			t.Errorf("seed %d: empty execution", seed)
		}
		if !sz.Loops && strings.Contains(p.Source, "while") {
			t.Errorf("seed %d: loop generated with Loops=false", seed)
		}
		if !sz.Helper && strings.Contains(p.Source, "helper") {
			t.Errorf("seed %d: helper call generated with Helper=false", seed)
		}
	}
	// The no-loop corner must still produce runnable straight-line code.
	p := NewSized(11, Size{Stmts: 4, Depth: 2, Arrays: 1})
	for _, kw := range []string{"while", "for"} {
		if strings.Contains(p.Source, kw+" ") || strings.Contains(p.Source, kw+"(") {
			t.Errorf("loopless program contains %q:\n%s", kw, p.Source)
		}
	}
	if res, _ := run(t, p, -1, false); res.Instrs == 0 {
		t.Error("loopless program: empty execution")
	}
}
