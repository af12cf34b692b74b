package gsched_test

import (
	"testing"

	"gsched"
	"gsched/internal/progen"
)

// TestVerifierAcceptsScheduledPrograms is the static-legality half of the
// two-oracle strategy: every schedule the pipeline produces for generated
// programs, at every level, must pass the independent verifier (the
// differential-simulation half lives in internal/progen). Options.Verify
// makes the scheduler snapshot each function and check itself, so a
// violation surfaces as a scheduling error here.
func TestVerifierAcceptsScheduledPrograms(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	levels := []gsched.Level{gsched.LevelNone, gsched.LevelUseful, gsched.LevelSpeculative}
	for seed := 0; seed < seeds; seed++ {
		p := progen.New(int64(seed))
		for _, lv := range levels {
			for _, duplicate := range []bool{false, lv == gsched.LevelSpeculative} {
				prog, err := gsched.CompileC(p.Source)
				if err != nil {
					t.Fatalf("seed %d: compile: %v", seed, err)
				}
				opts := gsched.Defaults(gsched.RS6K(), lv)
				opts.Verify = true
				opts.Duplicate = duplicate
				if _, err := gsched.SchedulePipeline(prog, opts, gsched.DefaultPipeline()); err != nil {
					t.Errorf("seed %d level %v duplicate %v: %v", seed, lv, duplicate, err)
				}
				if err := prog.Validate(); err != nil {
					t.Errorf("seed %d level %v duplicate %v: invalid ir after pipeline: %v", seed, lv, duplicate, err)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestVerifierAcceptsPlainSchedule covers the non-pipeline entry point
// (gsched.Schedule: xform.RunCtx with a zero Config) with the same
// self-check.
func TestVerifierAcceptsPlainSchedule(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	levels := []gsched.Level{gsched.LevelNone, gsched.LevelUseful, gsched.LevelSpeculative}
	for seed := 0; seed < seeds; seed++ {
		p := progen.New(int64(seed))
		for _, lv := range levels {
			prog, err := gsched.CompileC(p.Source)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			opts := gsched.Defaults(gsched.RS6K(), lv)
			opts.Verify = true
			opts.Duplicate = lv == gsched.LevelSpeculative
			if _, err := gsched.Schedule(prog, opts); err != nil {
				t.Errorf("seed %d level %v: %v", seed, lv, err)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
