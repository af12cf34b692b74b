package exact_test

import (
	"context"
	"testing"

	"gsched/internal/core"
	"gsched/internal/exact"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// TestHeuristicMissRegression promotes the fuzz-corpus seeds where the
// list scheduler misses the true optimum (testdata/fuzz/FuzzSchedule
// seeds 14, 29, 60, 67, 75) into a named regression suite. For each
// seed the program is scheduled twice through the full pipeline on the
// RS6K model — once at level=speculative, once at level=optimal — and
// the test pins, per seed:
//
//   - the heuristic really does miss (improved > 0): these seeds stay
//     witnesses, not accidents of an older scheduler;
//   - exactly which gains the exact tier finds (blocks admitted,
//     blocks improved, cycles saved — the search is deterministic, so
//     these are stable constants);
//   - that after the exact pass every provably-searchable block sits AT
//     its optimum (re-running the search finds nothing further);
//   - that the optimally scheduled program still behaves like the
//     unscheduled one.
func TestHeuristicMissRegression(t *testing.T) {
	tests := []struct {
		seed     int64
		blocks   int // blocks admitted to the exact search
		improved int // blocks where the heuristic missed the optimum
		saved    int // cycles recovered by the exact tier
	}{
		{seed: 14, blocks: 35, improved: 2, saved: 7},
		{seed: 29, blocks: 85, improved: 6, saved: 11},
		{seed: 60, blocks: 102, improved: 9, saved: 11},
		{seed: 67, blocks: 62, improved: 2, saved: 2},
		{seed: 75, blocks: 116, improved: 2, saved: 2},
	}
	mach := machine.RS6K()
	for _, tc := range tests {
		p := progen.New(tc.seed)
		base, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", tc.seed, err)
		}
		bm, err := sim.Load(base)
		if err != nil {
			t.Fatalf("seed %d: load: %v", tc.seed, err)
		}
		want, err := bm.Run(p.Entry, p.Args, nil, sim.Options{MaxInstrs: 20_000_000})
		if err != nil {
			t.Fatalf("seed %d: baseline run: %v", tc.seed, err)
		}

		prog, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", tc.seed, err)
		}
		opts := core.Defaults(mach, core.LevelOptimal)
		opts.Verify = true
		st, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: optimal pipeline: %v", tc.seed, err)
		}
		if st.ExactBlocks != tc.blocks || st.ExactImproved != tc.improved || st.ExactCyclesSaved != tc.saved {
			t.Errorf("seed %d: exact tier blocks=%d improved=%d saved=%d, want %d/%d/%d",
				tc.seed, st.ExactBlocks, st.ExactImproved, st.ExactCyclesSaved,
				tc.blocks, tc.improved, tc.saved)
		}
		if st.ExactImproved == 0 {
			t.Errorf("seed %d: heuristic no longer misses the optimum; seed is not a regression witness", tc.seed)
		}

		// Known-optimal makespan achieved: the exact pass already ran,
		// so a second search over every block must find nothing better.
		for _, f := range prog.Funcs {
			for bi, b := range f.Blocks {
				res, ok := exact.ScheduleBlock(b.Instrs, mach, exact.Limits{})
				if !ok || !res.Proven {
					continue
				}
				if res.Makespan < res.Input {
					t.Errorf("seed %d: %s block %d still %d cycles above its optimum after the exact pass",
						tc.seed, f.Name, bi, res.Input-res.Makespan)
				}
			}
		}

		m, err := sim.Load(prog)
		if err != nil {
			t.Fatalf("seed %d: load scheduled: %v", tc.seed, err)
		}
		got, err := m.Run(p.Entry, p.Args, nil, sim.Options{
			Machine:        mach,
			MaxInstrs:      20_000_000,
			ForgivingLoads: true,
		})
		if err != nil {
			t.Fatalf("seed %d: scheduled run: %v", tc.seed, err)
		}
		if got.Ret != want.Ret || got.PrintedString() != want.PrintedString() {
			t.Errorf("seed %d: optimal schedule changed behaviour: ret=%d/%q want %d/%q",
				tc.seed, got.Ret, got.PrintedString(), want.Ret, want.PrintedString())
		}
	}
}
