//go:build !race

// Excluded under -race: the race detector adds its own allocations.

package dataflow

import (
	"slices"
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/paperex"
)

// TestLivenessUpdateAllocs pins the steady state of Update at zero
// allocations: the scheduler calls it after every speculative motion.
func TestLivenessUpdateAllocs(t *testing.T) {
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	var a Analyzer
	a.Compute(f, g)
	// Move the first instruction of BL1 (a load defining u) to the end
	// of BL2 and back, updating after each move.
	src, dst := f.Blocks[1], f.Blocks[2]
	i := src.Instrs[0]
	dirty := []int{1, 2}
	allocs := testing.AllocsPerRun(100, func() {
		src.Remove(i)
		insertBefore(dst, i)
		a.Update(dirty)
		dst.Remove(i)
		src.Instrs = slices.Insert(src.Instrs, 0, i)
		a.Update(dirty)
	})
	if allocs != 0 {
		t.Errorf("Update allocates %.1f times per call pair, want 0", allocs)
	}
}
