// Package difftest is a self-contained differential-testing engine for
// the global scheduler. It sweeps seeded-random generated programs
// through a configuration lattice — scheduling level × register
// renaming × parallelism × machine description (presets, degenerate
// corners and seeded-random machines) — and cross-checks every cell
// with three oracles, each independent of the scheduler's own analyses:
//
//  1. differential simulation: the scheduled program must behave
//     exactly like the unscheduled one (return value and print record);
//  2. static legality: the internal/verify checker must accept the
//     schedule against its pre-schedule snapshot;
//  3. exhaustive enumeration: for basic blocks small enough to
//     enumerate, the scheduled order must be one of the
//     dependence-legal permutations of the block, and its makespan must
//     lie between the true optimum and the worst legal schedule.
//
// On any disagreement the engine auto-shrinks the failing
// (program, machine, options) triple to a minimal reproducer and can
// write it to a regression corpus directory.
package difftest

import (
	"fmt"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/policy"
)

// Cell is one point of the configuration lattice: a machine description
// plus the scheduling options swept by the differential tester.
type Cell struct {
	Machine *machine.Desc
	Level   core.Level
	// Rename toggles §4.2 register renaming before scheduling.
	Rename bool
	// Duplicate toggles Definition-6 duplication (only meaningful at
	// LevelSpeculative and above).
	Duplicate bool
	// Profile, when set, hands the scheduler the edge profile the engine
	// trains on each program's baseline run, enabling probability-gated
	// speculation (and probability-aware dup-motion at LevelDup).
	Profile bool
	// MinSpecProb overrides the level default for the probability below
	// which speculative candidates are rejected; 0 keeps the default.
	// Only meaningful with Profile set.
	MinSpecProb float64
	// Parallelism is the scheduler worker count (1 or N; schedules must
	// be identical either way, so sweeping it differentially tests the
	// determinism claim too).
	Parallelism int
	// Policy, when non-empty, installs this scheduling-policy program
	// (internal/policy source, kept in canonical form) in place of the
	// built-in §5.2 priority order. Every oracle must still pass: a
	// policy can only reorder the ready list or veto candidates, never
	// legalise an illegal motion.
	Policy string
}

func (c Cell) String() string {
	s := fmt.Sprintf("%s/%s", c.Machine.Name, c.Level)
	if c.Duplicate {
		s += "+dup"
	}
	if c.Profile {
		s += "+prof"
	}
	if c.MinSpecProb > 0 {
		s += fmt.Sprintf("+p%g", c.MinSpecProb)
	}
	if c.Policy != "" {
		s += "+pol" + policy.MustParse(c.Policy).Hash()[:8]
	}
	if c.Rename {
		s += "/rename"
	}
	return fmt.Sprintf("%s/j%d", s, c.Parallelism)
}

// Options maps the cell to scheduler options. The engine performs
// renaming and verification itself (so that verifier snapshots line up
// with the scheduler's input), hence Rename and Verify are off here.
func (c Cell) Options() core.Options {
	o := core.Defaults(c.Machine, c.Level)
	o.Rename = false
	o.Verify = false
	o.Duplicate = c.Duplicate
	o.Parallelism = c.Parallelism
	if c.MinSpecProb > 0 {
		o.MinSpecProb = c.MinSpecProb
	}
	if c.Policy != "" {
		o.Policy = policy.MustParse(c.Policy)
	}
	return o
}

// latticeMachines returns the machine sweep: the RS6K preset of §2.1, a wider
// superscalar, the degenerate 1-wide and infinitely-wide corners, and
// `randoms` seeded-random machines.
func latticeMachines(seed int64, randoms int) []*machine.Desc {
	ms := []*machine.Desc{
		machine.RS6K(),
		machine.Superscalar(4, 2),
		machine.Scalar(),
		machine.Wide(),
	}
	for i := 0; i < randoms; i++ {
		ms = append(ms, machine.Random(seed+int64(i)))
	}
	return ms
}

// lattice enumerates the full configuration lattice over the given
// machines: {useful, speculative} × {rename off, on} × {1 worker, 4
// workers}, with Definition-6 duplication enabled at the speculative
// level (matching the fuzz harness configuration), plus the
// profile-bearing cells: dup-motion at LevelDup (1 and 4 workers, so
// determinism is differentially tested with a profile in play) and
// probability-gated speculation at p ∈ {0.5, 0.9}. Each machine also
// carries two seeded-random scheduling-policy cells (distinct seeds per
// machine), so the scriptable priority/gate path sweeps through all
// four oracles on every machine shape.
func lattice(machines []*machine.Desc) []Cell {
	var cells []Cell
	for mi, m := range machines {
		for _, lv := range []core.Level{core.LevelUseful, core.LevelSpeculative} {
			for _, ren := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					cells = append(cells, Cell{
						Machine:     m,
						Level:       lv,
						Rename:      ren,
						Duplicate:   lv == core.LevelSpeculative,
						Parallelism: par,
					})
				}
			}
		}
		for _, par := range []int{1, 4} {
			cells = append(cells, Cell{
				Machine:     m,
				Level:       core.LevelDup,
				Duplicate:   true,
				Profile:     true,
				Parallelism: par,
			})
		}
		for _, p := range []float64{0.5, 0.9} {
			cells = append(cells, Cell{
				Machine:     m,
				Level:       core.LevelSpeculative,
				Profile:     true,
				MinSpecProb: p,
				Parallelism: 1,
			})
		}
		// Two random policies per machine, on distinct seeds so no two
		// machines sweep the same heuristic. One cell runs plain, the
		// other stacks renaming and 4 workers on top (policy comparators
		// must stay byte-deterministic under region parallelism too).
		cells = append(cells,
			Cell{
				Machine:     m,
				Level:       core.LevelSpeculative,
				Policy:      policy.Random(2*int64(mi) + 1).Canonical(),
				Parallelism: 1,
			},
			Cell{
				Machine:     m,
				Level:       core.LevelSpeculative,
				Policy:      policy.Random(2*int64(mi) + 2).Canonical(),
				Rename:      true,
				Parallelism: 4,
			},
		)
	}
	return cells
}
