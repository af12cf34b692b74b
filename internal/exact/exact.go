// Package exact is an exact basic-block scheduler: given the
// instructions of one block and a machine description, it finds an
// instruction order of provably minimal makespan under the simulator's
// issue model (in-order issue, n_t starts per unit type per cycle, the
// k + t + d rule of §2). It places and takes back instructions through
// internal/schedmodel's block replay, the one Makespan runs, which
// issues through the simulator's machine.Pipe.
//
// Where internal/difftest's enumeration oracle walks all O(n!)
// dependence-legal orders, this package runs a branch-and-bound search
// over ready-sets: depth-first over "which ready instruction issues
// next", pruned by a critical-path plus resource lower bound against the
// best schedule found so far, and by dominance memoization on the
// canonical ready-state (scheduled-set bitmask plus the normalized
// pipeline state a continuation can observe). That handles blocks of
// ~20–30 instructions in the default node budget where enumeration
// stops being feasible around 10.
//
// The searcher is deterministic: equal inputs produce equal orders, so
// the exact tier slots into the byte-identical serving pipeline like
// every other pass.
package exact

import (
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/schedmodel"
)

// hardMaxBlock is the largest block the searcher can represent (the
// scheduled set is a 64-bit mask).
const hardMaxBlock = 64

// Limits gates and budgets one block's search.
type Limits struct {
	// MaxBlock is the largest block (instruction count, terminator
	// included) admitted to the search; larger blocks are declined
	// (default 20, hard cap 64).
	MaxBlock int
	// MaxNodes is the search-node budget. When it is exhausted the best
	// schedule found so far is returned with Proven false
	// (default 200000).
	MaxNodes int
}

func (l *Limits) defaults() {
	if l.MaxBlock <= 0 {
		l.MaxBlock = 20
	}
	if l.MaxBlock > hardMaxBlock {
		l.MaxBlock = hardMaxBlock
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = 200_000
	}
}

// Result reports one block's search.
type Result struct {
	// Order is the best schedule found: the input order when nothing
	// better exists, otherwise a strictly cheaper legal permutation.
	Order []*ir.Instr
	// Makespan is Order's cost under the issue model.
	Makespan int
	// Input is the makespan of the order the block arrived in.
	Input int
	// Proven reports that the search ran to completion, so Makespan is
	// the true optimum over all dependence-legal orders. When false
	// (node budget exhausted) Makespan is still a valid upper bound
	// achieved by Order.
	Proven bool
	// Nodes is the number of search nodes expanded.
	Nodes int
}

// ScheduleBlock searches for a minimal-makespan order of instrs. It
// returns ok=false — and no Result — when the block is outside the size
// gate; blocks of fewer than two instructions are trivially optimal and
// returned as-is with ok=true. instrs is never modified.
func ScheduleBlock(instrs []*ir.Instr, mach *machine.Desc, lim Limits) (Result, bool) {
	lim.defaults()
	n := len(instrs)
	if n > lim.MaxBlock {
		return Result{}, false
	}
	input := schedmodel.Makespan(instrs, mach)
	if n < 2 {
		return Result{
			Order:    append([]*ir.Instr(nil), instrs...),
			Makespan: input,
			Input:    input,
			Proven:   true,
		}, true
	}

	s := newSearcher(instrs, mach, lim)
	s.run()

	return Result{
		Order:    s.bestOrder,
		Makespan: s.best,
		Input:    input,
		Proven:   !s.exhausted,
		Nodes:    s.nodes,
	}, true
}
