package workload

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

func runWorkload(t *testing.T, w *Workload, level core.Level, pipeline bool) *sim.Result {
	t.Helper()
	prog, err := w.Compile()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	mach := machine.RS6K()
	if level >= core.LevelNone {
		if pipeline {
			if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, level), xform.DefaultConfig()); err != nil {
				t.Fatalf("%s: xform: %v", w.Name, err)
			}
		} else {
			if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, level), xform.Config{}); err != nil {
				t.Fatalf("%s: schedule: %v", w.Name, err)
			}
		}
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	res, err := m.Run(w.Entry, w.Args, w.Data, sim.Options{Machine: mach, ForgivingLoads: level >= core.LevelSpeculative})
	if err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	return res
}

func TestWorkloadsCompileAndRun(t *testing.T) {
	for _, w := range append(All(), SCIENTIFIC()) {
		res := runWorkload(t, w, core.LevelNone, false)
		if res.Instrs < 50_000 {
			t.Errorf("%s: only %d instructions executed — too small to measure", w.Name, res.Instrs)
		}
		t.Logf("%s: ret=%d instrs=%d cycles=%d", w.Name, res.Ret, res.Instrs, res.Cycles)
	}
}

// TestScheduleInvariance is the key safety property: every scheduling
// level and the full unroll/rotate pipeline must leave each workload's
// output unchanged.
func TestScheduleInvariance(t *testing.T) {
	for _, w := range append(All(), SCIENTIFIC()) {
		base := runWorkload(t, w, core.LevelNone, false)
		for _, level := range []core.Level{core.LevelUseful, core.LevelSpeculative} {
			for _, pipeline := range []bool{false, true} {
				res := runWorkload(t, w, level, pipeline)
				if res.Ret != base.Ret {
					t.Errorf("%s level=%s pipeline=%v: ret=%d, want %d",
						w.Name, level, pipeline, res.Ret, base.Ret)
				}
				if level == core.LevelUseful && !pipeline && res.Instrs != base.Instrs {
					// Useful motion happens between equivalent blocks
					// only, so the dynamic instruction count is an
					// invariant (speculation and unrolling may change it).
					t.Errorf("%s: useful scheduling changed dynamic count: %d vs %d",
						w.Name, res.Instrs, base.Instrs)
				}
			}
		}
	}
}

// TestGoldenChecksums pins each workload's output so input generation
// stays deterministic across refactors.
func TestGoldenChecksums(t *testing.T) {
	golden := map[string]int64{}
	for _, w := range All() {
		golden[w.Name] = runWorkload(t, w, core.LevelNone, false).Ret
	}
	// Two independent compiles must agree (generator determinism).
	for _, w := range All() {
		if got := runWorkload(t, w, core.LevelNone, false).Ret; got != golden[w.Name] {
			t.Errorf("%s: nondeterministic result: %d vs %d", w.Name, got, golden[w.Name])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"li", "eqntott", "espresso", "gcc"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

func TestLCGDeterminism(t *testing.T) {
	a, b := newLCG(42), newLCG(42)
	for i := 0; i < 100; i++ {
		if a.intn(1000) != b.intn(1000) {
			t.Fatal("LCG not deterministic")
		}
	}
}
