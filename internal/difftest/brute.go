package difftest

import (
	"fmt"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/schedmodel"
)

// The exhaustive-schedule oracle. For a basic block small enough to
// enumerate, every permutation of its instructions that respects the
// block's data dependences (internal/schedmodel's §4.2 pair rule, the
// verifier's own, derived independently of internal/pdg) is generated
// and costed with schedmodel's block replay, which issues through the
// simulator's issue rule. The scheduled
// order must be one of those permutations — an independent legality
// proof for the block — and its makespan must lie within
// [optimum, worst legal].

// BruteStats reports one block's enumeration.
type BruteStats struct {
	Enumerated int  // number of legal orders
	Cost       int  // makespan of the scheduled order
	Best       int  // minimum makespan over all legal orders
	Worst      int  // maximum makespan over all legal orders
	Optimal    bool // the scheduled order achieves Best
}

// BruteCheckBlock cross-checks one block: ref is the block's
// pre-schedule instruction order (after renaming), final its scheduled
// order. The two must hold the same instructions; the caller skips
// blocks touched by cross-block motion. Returns the enumeration stats
// and the first oracle violation, or nil.
func BruteCheckBlock(ref, final []*ir.Instr, mach *machine.Desc) (BruteStats, error) {
	var st BruteStats
	n := len(ref)
	if n != len(final) {
		return st, fmt.Errorf("brute: block size changed %d -> %d", n, len(final))
	}
	if n == 0 {
		st.Enumerated = 1
		st.Optimal = true
		return st, nil
	}

	// Dependence matrix over ref positions, with everything ordered
	// before the terminator.
	dep := schedmodel.DepMatrix(ref)

	// Position of each ref instruction in the final order.
	posOf := make(map[int]int, n)
	for k, i := range final {
		posOf[i.ID] = k
	}
	finalPos := make([]int, n)
	for k, i := range ref {
		p, ok := posOf[i.ID]
		if !ok {
			return st, fmt.Errorf("brute: instruction id %d (%s) missing from scheduled block", i.ID, i)
		}
		finalPos[k] = p
	}

	// Independent legality: the scheduled order must respect every
	// derived dependence.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dep[i][j] && finalPos[i] >= finalPos[j] {
				return st, fmt.Errorf("brute: scheduled order reverses dependence %q -> %q", ref[i], ref[j])
			}
		}
	}

	st.Cost = schedmodel.Makespan(final, mach)

	// Exhaustive enumeration of dependence-legal orders.
	order := make([]*ir.Instr, 0, n)
	placed := make([]bool, n)
	st.Best, st.Worst = -1, -1
	var walk func()
	walk = func() {
		if len(order) == n {
			c := schedmodel.Makespan(order, mach)
			st.Enumerated++
			if st.Best < 0 || c < st.Best {
				st.Best = c
			}
			if c > st.Worst {
				st.Worst = c
			}
			return
		}
		for k := 0; k < n; k++ {
			if placed[k] {
				continue
			}
			ok := true
			for j := 0; j < n; j++ {
				if dep[j][k] && !placed[j] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			placed[k] = true
			order = append(order, ref[k])
			walk()
			order = order[:len(order)-1]
			placed[k] = false
		}
	}
	walk()

	if st.Enumerated == 0 {
		return st, fmt.Errorf("brute: dependence relation admits no order (cycle?)")
	}
	if st.Cost < st.Best {
		return st, fmt.Errorf("brute: scheduled makespan %d beats the exhaustive optimum %d", st.Cost, st.Best)
	}
	if st.Cost > st.Worst {
		return st, fmt.Errorf("brute: scheduled makespan %d exceeds the worst legal schedule %d", st.Cost, st.Worst)
	}
	st.Optimal = st.Cost == st.Best
	return st, nil
}
