// Package core implements the paper's contribution: the global
// instruction scheduling framework of §5. The top-level process schedules
// region by region (innermost loops first), visits the basic blocks of a
// region in topological order, and for each block runs a cycle-driven
// ready list fed from the candidate blocks C(A) — EQUIV(A) for useful
// scheduling, plus the immediate CSPDG successors of A ∪ EQUIV(A) for
// 1-branch speculative scheduling. Priorities follow §5.2: useful before
// speculative, then the delay heuristic D, then the critical path CP,
// then original program order. Speculative motions respect the
// live-on-exit rule of §5.3 with dynamic updates. A basic block
// scheduler (§5.1's post-pass) runs after global scheduling.
package core

import (
	"fmt"
	"runtime"

	"gsched/internal/machine"
	"gsched/internal/policy"
	"gsched/internal/profile"
	"gsched/internal/verify"
)

// Level selects how much global motion is allowed.
type Level int

const (
	// LevelNone performs no global scheduling: only the basic block
	// post-pass runs. This is the paper's BASE configuration (the XL
	// compiler's own local scheduler).
	LevelNone Level = iota
	// LevelUseful moves instructions only between equivalent blocks
	// (0-branch speculative, Definition 4).
	LevelUseful
	// LevelSpeculative additionally allows 1-branch speculative motion
	// (Definition 7 with n = 1).
	LevelSpeculative
	// LevelDup schedules like LevelSpeculative and additionally enables
	// the restricted scheduling-with-duplication of Definition 6 (the
	// Duplicate option) — the code-motion kind the paper explicitly left
	// out ("no duplication of code is allowed"). With a Profile present,
	// the §6 pipeline also forms superblocks first: hot join blocks are
	// tail-duplicated so the frequent trace loses its side entrances and
	// useful motion applies along it.
	LevelDup
	// LevelOptimal schedules like LevelSpeculative, then runs the exact
	// branch-and-bound block scheduler (internal/exact) over every block
	// the size gate admits, substituting the exact order where it
	// strictly beats the heuristic one. Global motion is unchanged —
	// only within-block order improves — so every >= LevelSpeculative
	// property (speculation rules, forgiving loads) still holds.
	LevelOptimal
)

// levelNames are the user-facing level names, indexed by Level.
var levelNames = [...]string{
	LevelNone:        "none",
	LevelUseful:      "useful",
	LevelSpeculative: "speculative",
	LevelDup:         "dup",
	LevelOptimal:     "optimal",
}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return "level?"
	}
	return levelNames[l]
}

// ParseLevel returns the level whose String is name.
func ParseLevel(name string) (Level, error) {
	for l, n := range levelNames {
		if n == name {
			return Level(l), nil
		}
	}
	return 0, fmt.Errorf("unknown level %q (want none, useful, speculative, dup or optimal)", name)
}

// Options configures the scheduler. The zero value is not useful; start
// from Defaults.
type Options struct {
	// Machine is the parametric machine description (required).
	Machine *machine.Desc
	// Level is the global scheduling level.
	Level Level
	// LocalPass runs the basic block scheduler after global scheduling
	// (§5.1: "the basic block scheduler is applied to every single
	// basic block of a program after the global scheduling").
	LocalPass bool
	// Rename runs register renaming before scheduling (§4.2's
	// SSA-like renaming that removes anti and output dependences).
	Rename bool
	// SpecDegree is the maximum number of branches to gamble on
	// (Definition 7). The paper's prototype supports 1; larger values
	// implement its stated future work of "more aggressive speculative
	// scheduling". Ignored below LevelSpeculative.
	SpecDegree int
	// Profile, when non-nil, supplies branch direction counts. The
	// scheduler then skips speculative candidates whose estimated
	// execution probability falls below MinSpecProb, and prefers more
	// probable speculative candidates among equals (§1: global
	// scheduling "is capable of taking advantage of the branch
	// probabilities, whenever available").
	Profile *profile.Profile
	// MinSpecProb is the execution probability below which speculative
	// candidates are rejected when a Profile is present.
	MinSpecProb float64
	// Duplicate enables the restricted scheduling-with-duplication of
	// Definition 6 (the paper's other future-work item): an
	// instruction may move from a join block into ALL of the join's
	// predecessors — the copy placed in the session's block fills its
	// delay slots, the other copies ride along at the ends of their
	// blocks. Off by default, matching the paper's stated limitation
	// ("no duplication of code is allowed").
	Duplicate bool
	// Policy, when non-nil, replaces the built-in §5.2 priority order
	// with the policy's compiled priority expression — in the global
	// sessions and the basic block post-pass alike — and, when the
	// policy defines a gate, additionally filters speculative and
	// duplication candidates through it. Dropping candidates and
	// reordering the ready list are both always legal (the §5.3 motion
	// rules still apply at pick time), so any valid policy yields a
	// verifiable schedule. Nil keeps the paper's fixed heuristic at
	// zero overhead.
	Policy *policy.Policy
	// SpeculateLoads permits loads to be scheduled speculatively. The
	// simulated machine's loads cannot trap on speculation gone wrong
	// paths within allocated symbols, matching the paper's
	// compile-time-analysis stance; disable for the conservative
	// variant.
	SpeculateLoads bool

	// ExactMaxBlock and ExactNodes gate and budget the exact block
	// scheduler at LevelOptimal: the largest block admitted to the
	// branch-and-bound search and its search-node budget. Zero means
	// the internal/exact package defaults (20 instructions, 200k
	// nodes); both are ignored below LevelOptimal.
	ExactMaxBlock int
	ExactNodes    int

	// Region limits of §6: only "small" reducible regions are
	// scheduled, and only two nesting levels (inner regions and outer
	// regions that directly contain them).
	MaxRegionBlocks int
	MaxRegionInstrs int
	MaxRegionLevels int

	// Parallelism bounds two worker pools: the program driver
	// (xform.RunProgramCtx) schedules up to this many functions at
	// once, and within a function up to this many independent region
	// groups are scheduled at once. Values <= 1 schedule sequentially.
	// The emitted schedules and merged Stats are identical at every
	// setting; only wall-clock time changes.
	Parallelism int

	// Verify snapshots every function before scheduling and checks the
	// result with the independent legality verifier (internal/verify):
	// instruction accounting, dependence order on every path, and the
	// §3 motion rules. Scheduling fails with a precise diagnostic if
	// any check trips. Intended for debugging and property tests; adds
	// one snapshot plus one check per scheduling pass. A check of a
	// function with B blocks, N instructions, D dependent instruction
	// pairs and M cross-block motions costs O(B²/64 + N + D +
	// M·(B + occurrences of the moved register)), plus D log D only
	// when it finds a violation; a check after a pass that moved
	// nothing across blocks costs O(N + same-block D); see
	// verify.(*Verifier).Check. Each driver worker keeps one Verifier,
	// so once it has seen a function as large, a snapshot allocates
	// nothing and a check of a legal schedule allocates nothing.
	Verify bool

	// Trace, when non-nil, accumulates wall-clock time per scheduling
	// phase (rename, PDG build, region scheduling, local pass, verify,
	// loop transforms). It is safe to share one Trace across concurrent
	// schedules; the serving daemon exports the totals as metrics. Nil
	// disables timing entirely.
	Trace *Trace
}

// VerifyRules maps the scheduling options to the legality rules the
// verifier should enforce on the resulting schedule.
func (o *Options) VerifyRules() verify.Rules {
	r := verify.Rules{
		CrossBlock:     o.Level > LevelNone,
		SpeculateLoads: o.SpeculateLoads,
	}
	if o.Level >= LevelSpeculative {
		r.MaxSpecDepth = o.SpecDegree
		if r.MaxSpecDepth < 1 {
			r.MaxSpecDepth = 1
		}
		r.AllowDuplication = o.Duplicate
	}
	return r
}

// Defaults returns the configuration used for the paper's experiments at
// the given level. Functions are scheduled concurrently (one worker per
// CPU); this cannot change any schedule — see Parallelism — so it is on
// by default. Set Parallelism to 1 for a strictly sequential run.
func Defaults(m *machine.Desc, level Level) Options {
	return Options{
		Machine:         m,
		Level:           level,
		LocalPass:       true,
		Rename:          true,
		SpeculateLoads:  true,
		SpecDegree:      1,
		MinSpecProb:     0.1,
		Duplicate:       level == LevelDup,
		MaxRegionBlocks: 64,
		MaxRegionInstrs: 256,
		MaxRegionLevels: 2,
		Parallelism:     runtime.NumCPU(),
	}
}

// Stats reports what the scheduler did to one function.
type Stats struct {
	RegionsScheduled int
	// RegionsSkipped counts what global scheduling declined: every
	// region over MaxRegionBlocks or MaxRegionInstrs, or whose PDG
	// cannot be built, once per scheduling pass that selects it (an
	// inner loop is selected again after rotation), and every
	// irreducible function once. Regions beyond MaxRegionLevels are
	// outside §6's scope and are not counted.
	RegionsSkipped   int
	UsefulMoves      int
	SpeculativeMoves int
	DuplicatedMoves  int
	RenamedWebs      int
	LocalBlocks      int

	// Exact-tier counters (LevelOptimal only). ExactBlocks counts
	// blocks admitted to the branch-and-bound search, ExactImproved
	// those where the exact order strictly beat the heuristic one, and
	// ExactCyclesSaved the summed per-block makespan improvement.
	ExactBlocks      int
	ExactImproved    int
	ExactCyclesSaved int
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.RegionsScheduled += o.RegionsScheduled
	s.RegionsSkipped += o.RegionsSkipped
	s.UsefulMoves += o.UsefulMoves
	s.SpeculativeMoves += o.SpeculativeMoves
	s.DuplicatedMoves += o.DuplicatedMoves
	s.RenamedWebs += o.RenamedWebs
	s.LocalBlocks += o.LocalBlocks
	s.ExactBlocks += o.ExactBlocks
	s.ExactImproved += o.ExactImproved
	s.ExactCyclesSaved += o.ExactCyclesSaved
}
