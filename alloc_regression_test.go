//go:build !race

// Allocation regression tests. They pin the scheduler's steady-state
// allocation counts so hot-path regressions fail loudly instead of
// showing up months later as throughput erosion.
//
// Updating a ceiling: these are budgets, not measurements. If a change
// legitimately adds allocations (a new pipeline phase, richer stats),
// measure the new steady state with
//
//	go test -run TestSchedulingAllocBudget -v
//
// and set the ceiling to roughly 1.3× the printed value, noting the
// measured number in the commit message. If a change trips a ceiling
// unintentionally, profile first (go test -bench SchedulerThroughput
// -memprofile mem.out) — the usual culprits are fmt formatting on a hot
// path, sort.Slice's reflection, or per-row slice allocation where a
// counted carve would do.
//
// Every measurement runs with the garbage collector off (steadyAllocs):
// a collection inside the measured window drops pooled scheduler state,
// and the refills it causes would make a budget pass or fail on
// unrelated allocation changes.
//
// The file is excluded under -race because the race detector adds its
// own allocations, which would make the budgets meaningless.
package gsched_test

import (
	"context"
	"runtime/debug"
	"testing"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/profile"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// Budgets for the li workload (the paper's headline benchmark),
// sequential, at about 1.3x the highest count measured. The first two
// are the speculative level through the program driver: RunProgramCtx
// with a zero Config (plain scheduling) and with DefaultConfig (the full
// unroll/rotate pipeline). The dup budget covers level=dup with a
// trained edge profile, which adds probability lookups, superblock
// formation and Definition-6 copy bookkeeping on top of the same
// pipeline. Measured 2026-10 with -count=26 -cpu 1,2,4 on a 2-CPU Xeon,
// collector off: 99-149, 99-103 and 168-178 allocs per run.
const (
	maxScheduleAllocs    = 195
	maxPipelineAllocs    = 135
	maxDupPipelineAllocs = 232
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
