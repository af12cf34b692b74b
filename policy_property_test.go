package gsched_test

import (
	"context"
	"testing"

	"gsched"
	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/policy"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

// TestDefaultPolicyMatchesBuiltin pins the policy language to the
// paper: the DefaultSource expression must reproduce the built-in §5.2
// decision order byte-for-byte — same assembly, same stats — across the
// progen corpus, two machines, and the useful/speculative/dup levels
// (dup with a trained profile, so the probability-window tier is
// actually exercised). Any drift between the expression engine and
// compareCandidates shows up as a schedule diff here.
func TestDefaultPolicyMatchesBuiltin(t *testing.T) {
	const seeds = 12
	machines := []*machine.Desc{machine.RS6K(), machine.Superscalar(4, 2)}
	levels := []core.Level{core.LevelUseful, core.LevelSpeculative, core.LevelDup}
	pol := policy.MustParse(policy.DefaultSource)
	for seed := int64(0); seed < seeds; seed++ {
		p := progen.New(seed)
		// Train a profile once per program so level=dup runs its
		// probability-gated paths under both comparators.
		base, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		prof := gsched.NewProfile()
		if _, err := gsched.Run(base, p.Entry, p.Args, nil, gsched.RunOptions{MaxInstrs: 20_000_000, Profile: prof}); err != nil {
			t.Fatalf("seed %d: training run: %v", seed, err)
		}
		for _, mach := range machines {
			for _, lv := range levels {
				schedule := func(withPolicy bool) (string, xform.Stats) {
					prog, err := minic.Compile(p.Source)
					if err != nil {
						t.Fatalf("seed %d: compile: %v", seed, err)
					}
					opts := core.Defaults(mach, lv)
					opts.Verify = true
					if lv == core.LevelDup {
						opts.Profile = prof
					}
					if withPolicy {
						opts.Policy = pol
					}
					st, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
					if err != nil {
						t.Fatalf("seed %d %s level=%v policy=%t: %v", seed, mach.Name, lv, withPolicy, err)
					}
					return gsched.PrintAsm(prog), st
				}
				builtinAsm, builtinStats := schedule(false)
				policyAsm, policyStats := schedule(true)
				if policyAsm != builtinAsm {
					t.Errorf("seed %d %s level=%v: default-policy schedule differs from built-in heuristic",
						seed, mach.Name, lv)
				}
				if policyStats != builtinStats {
					t.Errorf("seed %d %s level=%v: stats differ: policy %+v, builtin %+v",
						seed, mach.Name, lv, policyStats, builtinStats)
				}
			}
		}
	}
}

// TestPolicySchedulesVerify sweeps seeded-random policies — weighted
// priorities, sometimes a speculation gate — over generated programs
// with the independent legality verifier armed and the simulator as the
// behaviour oracle: any valid policy may reorder the ready list or veto
// candidates, but it must never produce an illegal or wrong schedule.
func TestPolicySchedulesVerify(t *testing.T) {
	const programs = 6
	const policies = 6
	mach := machine.RS6K()
	for seed := int64(0); seed < programs; seed++ {
		p := progen.New(seed)
		base, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		want, err := gsched.Run(base, p.Entry, p.Args, nil, gsched.RunOptions{MaxInstrs: 20_000_000})
		if err != nil {
			t.Fatalf("seed %d: baseline run: %v", seed, err)
		}
		for ps := int64(1); ps <= policies; ps++ {
			prog, err := minic.Compile(p.Source)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			opts := core.Defaults(mach, core.LevelSpeculative)
			opts.Policy = policy.Random(ps)
			opts.Verify = true
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatalf("seed %d policy %d (%q): %v", seed, ps, opts.Policy.Canonical(), err)
			}
			got, err := gsched.Run(prog, p.Entry, p.Args, nil, gsched.RunOptions{
				Machine: mach, ForgivingLoads: true, MaxInstrs: 20_000_000,
			})
			if err != nil {
				t.Fatalf("seed %d policy %d: scheduled run: %v", seed, ps, err)
			}
			if got.Ret != want.Ret || got.PrintedString() != want.PrintedString() {
				t.Errorf("seed %d policy %d (%q): ret=%d/%q want %d/%q",
					seed, ps, opts.Policy.Canonical(), got.Ret, got.PrintedString(), want.Ret, want.PrintedString())
			}
		}
	}
}

// TestJobsSweepDeterministicPolicy is the byte-determinism sweep with a
// policy installed: the policy comparator and gate read only per-
// candidate state, so schedules must stay identical at any Parallelism,
// exactly like the built-in heuristic's.
func TestJobsSweepDeterministicPolicy(t *testing.T) {
	const seeds = 4
	mach := machine.RS6K()
	// Seed 3's generated policy carries both a reweighted priority and a
	// gate in the current generator; assert nothing about that here —
	// any seeded policy must be deterministic.
	pols := []*policy.Policy{policy.Random(3), policy.Random(7)}
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.New(seed).Source
		for pi, pol := range pols {
			var wantAsm string
			var wantStats xform.Stats
			for k, jobs := range jobsSweep() {
				prog, err := minic.Compile(src)
				if err != nil {
					t.Fatalf("seed %d: compile: %v", seed, err)
				}
				opts := core.Defaults(mach, core.LevelSpeculative)
				opts.Policy = pol
				opts.Parallelism = jobs
				stats, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig())
				if err != nil {
					t.Fatalf("seed %d policy %d jobs=%d: %v", seed, pi, jobs, err)
				}
				asm := gsched.PrintAsm(prog)
				if k == 0 {
					wantAsm, wantStats = asm, stats
					continue
				}
				if asm != wantAsm {
					t.Errorf("seed %d policy %d jobs=%d: schedule differs from jobs=1", seed, pi, jobs)
				}
				if stats != wantStats {
					t.Errorf("seed %d policy %d jobs=%d: stats differ: %+v, want %+v",
						seed, pi, jobs, stats, wantStats)
				}
			}
		}
	}
}
