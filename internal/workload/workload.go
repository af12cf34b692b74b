// Package workload provides the four benchmark programs standing in for
// the paper's SPEC suite (§6: LI, EQNTOTT, ESPRESSO, GCC). The originals
// need inputs and a C toolchain we cannot ship, so each proxy is a mini-C
// program with the same *character* as the hot code of its namesake:
//
//   - LI: a bytecode interpreter dispatch loop — many small basic blocks
//     terminated by unpredictable branches (the paper's Unix-type code).
//   - EQNTOTT: bit-vector term comparison driving a sort (the cmppt
//     routine dominates the original), compare-heavy with early exits.
//   - ESPRESSO: boolean cube containment over a cover — tight bitwise
//     loops with data-dependent breaks.
//   - GCC: a table-driven scanner with a peephole window — branchy
//     classification code with medium-size blocks.
//
// Inputs are generated deterministically (a fixed-seed LCG), so every
// run, schedule, and machine sees identical work.
package workload

import (
	"fmt"

	"gsched/internal/ir"
	"gsched/internal/minic"
)

// Workload is one benchmark: source, entry point and input data.
type Workload struct {
	Name   string
	Desc   string
	Source string
	Entry  string
	Args   []int64
	// Data overrides global symbols with generated input.
	Data map[string][]int64
}

// Compile builds the workload's ir program.
func (w *Workload) Compile() (*ir.Program, error) {
	p, err := minic.Compile(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return p, nil
}

// All returns the four proxies in the paper's order.
func All() []*Workload {
	return []*Workload{li(), eqntott(), espresso(), gcc()}
}

// ByName returns the named workload or nil.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// lcg is a deterministic 64-bit linear congruential generator.
type lcg uint64

func newLCG(seed uint64) *lcg { l := lcg(seed); return &l }

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// intn returns a value in [0, n).
func (l *lcg) intn(n int64) int64 {
	return int64((l.next() >> 16) % uint64(n))
}
