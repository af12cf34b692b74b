//go:build !race

// Allocation regression tests. They pin the scheduler's steady-state
// allocation counts so hot-path regressions fail loudly instead of
// showing up months later as throughput erosion.
//
// Updating a ceiling: the ceilings are the highest counts measured. The
// program driver keeps each worker's scratch in a free list that
// collections do not empty, so a count no longer depends on the
// collector; it still depends a little on how warm the kept scratch is
// when the test starts (a test run first in its process reads the
// most). Lower a ceiling to the new count when a change saves
// allocations; raise one only for a change that needs the allocations,
// after measuring with
//
//	go test -count=3 -cpu 1,2,4 -run 'AllocBudget|Allocs' -v
//
// and each test alone, and noting the measured numbers in the commit
// message. If a change
// trips a ceiling unintentionally, profile first (go test -bench
// VerifiedCompileBigfunc -memprofile mem.out) — the usual culprits are
// fmt formatting on a hot path, sort.Slice's reflection, or per-row
// slice allocation where a counted carve would do.
//
// The budgets measure with the garbage collector off (steadyAllocs), as
// testing.AllocsPerRun's callers usually do; TestAllocsSurviveCollections
// shows that the collector changes nothing the scheduler allocates.
//
// The file is excluded under -race because the race detector adds its
// own allocations, which would make the budgets meaningless.
package gsched_test

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/profile"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// Budgets for the li workload (the paper's headline benchmark),
// sequential, at the highest count measured. The first two are the
// speculative level through the program driver: RunProgramCtx with a
// zero Config (plain scheduling) and with DefaultConfig (the full
// unroll/rotate pipeline). The dup budget covers level=dup with a
// trained edge profile, which adds probability lookups, superblock
// formation and Definition-6 copy bookkeeping on top of the same
// pipeline. Measured 2026-10 on a 2-CPU Xeon (go1.24.0), collector off,
// with -count=3 -cpu 1,2,4 and each test alone: 73-117, 73-77 and
// 142-175 allocs per run, the highest first in a process.
const (
	maxScheduleAllocs    = 117
	maxPipelineAllocs    = 77
	maxDupPipelineAllocs = 175
)

// steadyAllocs is testing.AllocsPerRun(runs, fn) with the garbage
// collector off for the measurement, restored afterwards.
func steadyAllocs(runs int, fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, fn)
}

func TestSchedulingAllocBudget(t *testing.T) {
	w := workload.ByName("li")
	if w == nil {
		t.Fatal("li workload missing")
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Parallelism = 1

	// Rescheduling an already-scheduled program is legal and reaches a
	// steady state after the first run (AllocsPerRun's warm-up call), so
	// the measurement sees only per-run work, not one-time growth.
	got := steadyAllocs(20, func() {
		if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunProgramCtx(li, Config{}): %.0f allocs/run (budget %d)", got, maxScheduleAllocs)
	if got > maxScheduleAllocs {
		t.Errorf("RunProgramCtx(li, Config{}) allocates %.0f per run, budget %d — see file comment before raising",
			got, maxScheduleAllocs)
	}

	prog2, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got = steadyAllocs(20, func() {
		if _, err := xform.RunProgramCtx(context.Background(), prog2, opts, xform.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunProgramCtx(li): %.0f allocs/run (budget %d)", got, maxPipelineAllocs)
	if got > maxPipelineAllocs {
		t.Errorf("RunProgramCtx(li) allocates %.0f per run, budget %d — see file comment before raising",
			got, maxPipelineAllocs)
	}
}

// TestDupSchedulingAllocBudget pins the level=dup pipeline the same
// way. Superblock formation tail-duplicates hot joins on the first
// pass; rescheduling the already-formed program is structurally a
// fixpoint (the clones carry fresh instruction IDs the profile has no
// counts for, so the minimum-count gate stops further growth), which is why
// AllocsPerRun's warm-up call leaves a steady state to measure.
func TestDupSchedulingAllocBudget(t *testing.T) {
	w := workload.ByName("li")
	if w == nil {
		t.Fatal("li workload missing")
	}
	train, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	m, err := sim.Load(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w.Entry, w.Args, w.Data, sim.Options{Profile: prof}); err != nil {
		t.Fatalf("training run: %v", err)
	}

	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelDup)
	opts.Profile = prof
	opts.Parallelism = 1
	got := steadyAllocs(20, func() {
		if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunProgramCtx(li, dup+profile): %.0f allocs/run (budget %d)", got, maxDupPipelineAllocs)
	if got > maxDupPipelineAllocs {
		t.Errorf("RunProgramCtx(li, dup+profile) allocates %.0f per run, budget %d — see file comment before raising",
			got, maxDupPipelineAllocs)
	}
}

// TestAllocsSurviveCollections compiles a bigfunc-shaped program with
// the verifier on, as the benchmark suite's bigfunc workload does, once
// with the collector off and once with two forced collections inside
// every run, enough to empty a sync.Pool. The bytes allocated per run
// must agree within 10%: storage the scheduler keeps between compiles
// must not be thrown away by a collection and built again. Bytes, not
// objects, because refilled storage is a few large slices.
func TestAllocsSurviveCollections(t *testing.T) {
	src := bigfuncSource(t)
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Verify = true
	compile := func() { compileVerified(t, src, opts, io.Discard) }
	// Grow the workers' scratch. Which worker gets main is up to the
	// scheduler, and some rows grow over several compiles, so warm up
	// well past one compile per worker.
	for i := 0; i < 10; i++ {
		compile()
	}
	bytesPerRun := func(runs int, gcOff bool, fn func()) float64 {
		if gcOff {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	off := bytesPerRun(10, true, compile)
	collected := bytesPerRun(10, false, func() {
		runtime.GC()
		runtime.GC()
		compile()
	})
	t.Logf("verified bigfunc compile: %.0f B/run with the collector off, %.0f B/run with two collections per run", off, collected)
	if collected > 1.1*off || off > 1.1*collected {
		t.Errorf("bytes per compile differ by more than 10%% with collections inside the runs: %.0f vs %.0f", collected, off)
	}
}

// TestAllocsRepeatExactly schedules fresh copies of the four proxies
// at Parallelism 1 and requires two identical runs to allocate exactly
// the same number of objects: nothing the scheduler allocates may
// depend on which P its goroutines ran on, as pooled scheduler state
// once did. The runs use one P with the collector off, because the Go
// runtime's own per-P caches (the records of a goroutine parked on a
// channel, emptied at every collection) can add an object to a run
// whose driver goroutines park.
func TestAllocsRepeatExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Parallelism = 1
	run := func() uint64 {
		var progs []*ir.Program
		for _, w := range workload.All() {
			prog, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, prog)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, prog := range progs {
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 3; i++ {
		run() // grow the driver's scratch
	}
	first, second := run(), run()
	t.Logf("scheduling the four proxies: %d and %d allocs", first, second)
	if first != second {
		t.Errorf("two identical runs allocate %d and %d objects", first, second)
	}
}
