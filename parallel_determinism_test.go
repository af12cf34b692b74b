package gsched_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"gsched"
	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// TestParallelSchedulingDeterministic checks the Options.Parallelism
// contract: each function's schedule depends only on that function, so a
// program scheduled by the bounded worker pool must be byte-identical —
// same instructions, same order, same merged Stats — to the same program
// scheduled sequentially. Run under -race this also exercises the worker
// pool for data races across every workload and scheduling level.
func TestParallelSchedulingDeterministic(t *testing.T) {
	mach := machine.RS6K()
	for _, w := range workload.All() {
		for _, lv := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
			seqProg, err := w.Compile()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			parProg, err := w.Compile()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}

			seqOpts := core.Defaults(mach, lv)
			seqOpts.Parallelism = 1
			seqStats, err := xform.RunProgramCtx(context.Background(), seqProg, seqOpts, xform.DefaultConfig())
			if err != nil {
				t.Fatalf("%s level=%v sequential: %v", w.Name, lv, err)
			}

			// Force more workers than the machine may have CPUs so the
			// pool path is exercised even on single-core runners.
			parOpts := core.Defaults(mach, lv)
			parOpts.Parallelism = 8
			parStats, err := xform.RunProgramCtx(context.Background(), parProg, parOpts, xform.DefaultConfig())
			if err != nil {
				t.Fatalf("%s level=%v parallel: %v", w.Name, lv, err)
			}

			if seqAsm, parAsm := gsched.PrintAsm(seqProg), gsched.PrintAsm(parProg); seqAsm != parAsm {
				t.Errorf("%s level=%v: parallel schedule differs from sequential", w.Name, lv)
			}
			if seqStats != parStats {
				t.Errorf("%s level=%v: stats differ: sequential %+v, parallel %+v",
					w.Name, lv, seqStats, parStats)
			}
		}
	}
}

// jobsSweep is the Parallelism settings every determinism sweep runs:
// sequential, a small fixed pool, a pool larger than most CI machines,
// and whatever the current host reports. Explicit 4 and 8 matter on
// single-core runners, where NumCPU alone would collapse the sweep to
// the sequential path.
func jobsSweep() []int {
	jobs := []int{1, 4, 8, runtime.NumCPU()}
	slices.Sort(jobs)
	return slices.Compact(jobs)
}

// TestJobsSweepDeterministic runs every workload at every scheduling
// level under each Parallelism setting in jobsSweep and demands
// byte-identical assembly and identical merged Stats across all of
// them. With region-level parallelism this covers both grains: the
// per-function pool and the per-region-subtree pool inside each
// function. Run under -race it also shakes out sharing bugs in the
// pooled pipeline state.
func TestJobsSweepDeterministic(t *testing.T) {
	mach := machine.RS6K()
	for _, w := range workload.All() {
		for _, lv := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
			var wantAsm string
			var wantStats xform.Stats
			for k, jobs := range jobsSweep() {
				prog, err := w.Compile()
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				opts := core.Defaults(mach, lv)
				opts.Parallelism = jobs
				stats, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
				if err != nil {
					t.Fatalf("%s level=%v jobs=%d: %v", w.Name, lv, jobs, err)
				}
				asm := gsched.PrintAsm(prog)
				if k == 0 {
					wantAsm, wantStats = asm, stats
					continue
				}
				if asm != wantAsm {
					t.Errorf("%s level=%v jobs=%d: schedule differs from jobs=1", w.Name, lv, jobs)
				}
				if stats != wantStats {
					t.Errorf("%s level=%v jobs=%d: stats differ: %+v, want %+v",
						w.Name, lv, jobs, stats, wantStats)
				}
			}
		}
	}
}

// TestJobsSweepDeterministicLevelDup is the jobs sweep at level=dup
// with a trained edge profile in play: profile-gated speculation,
// Definition-6 dup-motion and superblock formation must all be
// byte-deterministic across worker counts. The profile is trained once
// per workload and shared by every sweep point, exactly as a client
// would reuse an uploaded profile.
func TestJobsSweepDeterministicLevelDup(t *testing.T) {
	mach := machine.RS6K()
	for _, w := range workload.All() {
		base, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		prof := gsched.NewProfile()
		if _, err := gsched.Run(base, w.Entry, w.Args, w.Data, gsched.RunOptions{Profile: prof}); err != nil {
			t.Fatalf("%s: training run: %v", w.Name, err)
		}
		var wantAsm string
		var wantStats xform.Stats
		for k, jobs := range jobsSweep() {
			prog, err := w.Compile()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			opts := core.Defaults(mach, core.LevelDup)
			opts.Profile = prof
			opts.Parallelism = jobs
			stats, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", w.Name, jobs, err)
			}
			asm := gsched.PrintAsm(prog)
			if k == 0 {
				wantAsm, wantStats = asm, stats
				continue
			}
			if asm != wantAsm {
				t.Errorf("%s jobs=%d: level=dup schedule differs from jobs=1", w.Name, jobs)
			}
			if stats != wantStats {
				t.Errorf("%s jobs=%d: stats differ: %+v, want %+v", w.Name, jobs, stats, wantStats)
			}
		}
	}
}

// TestProgenJobsSweepDeterministic is the same sweep over generated
// programs, whose loop nests and call graphs are bushier than the
// hand-written workloads and so exercise deeper region trees.
func TestProgenJobsSweepDeterministic(t *testing.T) {
	const seeds = 8
	mach := machine.RS6K()
	opts0 := core.Defaults(mach, core.LevelSpeculative)
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.New(seed).Source
		var wantAsm string
		var wantStats xform.Stats
		for k, jobs := range jobsSweep() {
			prog, err := minic.Compile(src)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			opts := opts0
			opts.Parallelism = jobs
			stats, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
			if err != nil {
				t.Fatalf("seed %d jobs=%d: %v", seed, jobs, err)
			}
			asm := gsched.PrintAsm(prog)
			if k == 0 {
				wantAsm, wantStats = asm, stats
				continue
			}
			if asm != wantAsm {
				t.Errorf("seed %d jobs=%d: schedule differs from jobs=1", seed, jobs)
			}
			if stats != wantStats {
				t.Errorf("seed %d jobs=%d: stats differ: %+v, want %+v", seed, jobs, stats, wantStats)
			}
		}
	}
}
