package exact_test

import (
	"context"
	"fmt"
	"testing"

	"gsched/internal/core"
	"gsched/internal/difftest"
	"gsched/internal/exact"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/schedmodel"
	"gsched/internal/verify"
	"gsched/internal/xform"
)

// propertyMachines mirrors the difftest lattice's spread: the RS6K
// presets plus seeded-random machines with adversarial unit counts and
// delays.
func propertyMachines() []*machine.Desc {
	return []*machine.Desc{
		machine.RS6K(),
		machine.Scalar(),
		machine.Wide(),
		machine.Random(3),
		machine.Random(4),
	}
}

// TestExactProperties sweeps a corpus of generated programs, scheduled
// with the heuristic pipeline, across several machines and checks the
// exact scheduler's contract on every block:
//
//   - the exact makespan never exceeds the list-schedule makespan, and
//     the returned order really costs what Result claims;
//   - the order is a dependence-legal permutation (via the shared
//     dependence model) of the block;
//   - on blocks small enough to enumerate, a proven search lands
//     exactly on the brute-force optimum.
func TestExactProperties(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sz := progen.SmallSize()
		p := progen.NewSized(seed, sz)
		for _, mach := range propertyMachines() {
			prog, err := minic.Compile(p.Source)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			opts := core.Defaults(mach, core.LevelSpeculative)
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatalf("seed %d %s: schedule: %v", seed, mach.Name, err)
			}
			for _, f := range prog.Funcs {
				for bi, b := range f.Blocks {
					res, ok := exact.ScheduleBlock(b.Instrs, mach, exact.Limits{})
					if !ok {
						continue
					}
					if res.Makespan > res.Input {
						t.Errorf("seed %d %s %s block %d: exact makespan %d exceeds list-schedule %d",
							seed, mach.Name, f.Name, bi, res.Makespan, res.Input)
					}
					if got := schedmodel.Makespan(res.Order, mach); got != res.Makespan {
						t.Errorf("seed %d %s %s block %d: order costs %d, Result claims %d",
							seed, mach.Name, f.Name, bi, got, res.Makespan)
					}
					if err := checkLegalOrder(b.Instrs, res.Order); err != nil {
						t.Errorf("seed %d %s %s block %d: %v", seed, mach.Name, f.Name, bi, err)
					}
					if len(b.Instrs) <= 8 && res.Proven {
						st, err := difftest.BruteCheckBlock(b.Instrs, b.Instrs, mach)
						if err != nil {
							t.Fatalf("seed %d %s %s block %d: brute: %v", seed, mach.Name, f.Name, bi, err)
						}
						if res.Makespan != st.Best {
							t.Errorf("seed %d %s %s block %d: exact optimum %d != enumerated optimum %d",
								seed, mach.Name, f.Name, bi, res.Makespan, st.Best)
						}
					}
				}
			}
		}
	}
}

// checkLegalOrder verifies order is a permutation of ref respecting
// every dependence the shared model derives.
func checkLegalOrder(ref, order []*ir.Instr) error {
	if len(ref) != len(order) {
		return fmt.Errorf("order holds %d instructions, want %d", len(order), len(ref))
	}
	pos := make(map[int]int, len(order))
	for k, i := range order {
		pos[i.ID] = k
	}
	if len(pos) != len(ref) {
		return fmt.Errorf("order holds %d distinct instructions, want %d", len(pos), len(ref))
	}
	dep := schedmodel.DepMatrix(ref)
	for i := range ref {
		pi, ok := pos[ref[i].ID]
		if !ok {
			return fmt.Errorf("instruction id %d missing from order", ref[i].ID)
		}
		for j := i + 1; j < len(ref); j++ {
			if dep[i][j] && pi >= pos[ref[j].ID] {
				return fmt.Errorf("order reverses dependence %q -> %q", ref[i], ref[j])
			}
		}
	}
	return nil
}

// TestExactSchedulesPassVerify applies the exact order to every block
// of a heuristically scheduled function and runs the independent
// legality verifier over the result: within-block permutation under the
// shared dependence model must always satisfy verify's rules.
func TestExactSchedulesPassVerify(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		p := progen.NewSized(seed, progen.SmallSize())
		for _, mach := range propertyMachines()[:3] {
			prog, err := minic.Compile(p.Source)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			opts := core.Defaults(mach, core.LevelSpeculative)
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatalf("seed %d %s: schedule: %v", seed, mach.Name, err)
			}
			for _, f := range prog.Funcs {
				ver := new(verify.Verifier)
				ver.Capture(f)
				changed := false
				for _, b := range f.Blocks {
					res, ok := exact.ScheduleBlock(b.Instrs, mach, exact.Limits{})
					if !ok {
						continue
					}
					if res.Makespan < res.Input {
						copy(b.Instrs, res.Order)
						changed = true
					}
				}
				if !changed {
					continue
				}
				if err := ver.Check(f, verify.Rules{}); err != nil {
					t.Errorf("seed %d %s %s: exact schedule fails verify: %v", seed, mach.Name, f.Name, err)
				}
			}
		}
	}
}

// TestScheduleBlockGates pins the size-gate and trivial-block contract.
func TestScheduleBlockGates(t *testing.T) {
	mach := machine.RS6K()
	p := progen.NewSized(9, progen.SmallSize())
	prog, err := minic.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	b := prog.Funcs[0].Blocks[0]

	if _, ok := exact.ScheduleBlock(b.Instrs, mach, exact.Limits{MaxBlock: 1}); ok && len(b.Instrs) > 1 {
		t.Errorf("size gate admitted a %d-instruction block with MaxBlock=1", len(b.Instrs))
	}
	res, ok := exact.ScheduleBlock(b.Instrs[:1], mach, exact.Limits{})
	if !ok || !res.Proven || len(res.Order) != 1 {
		t.Errorf("single-instruction block: ok=%v proven=%v len=%d", ok, res.Proven, len(res.Order))
	}
	res0, ok := exact.ScheduleBlock(nil, mach, exact.Limits{})
	if !ok || !res0.Proven || res0.Makespan != 0 {
		t.Errorf("empty block: ok=%v proven=%v makespan=%d", ok, res0.Proven, res0.Makespan)
	}
}

// TestExactDeterministic pins byte-determinism: equal inputs produce
// equal orders, and a block already at its optimum keeps its input
// order verbatim.
func TestExactDeterministic(t *testing.T) {
	mach := machine.RS6K()
	p := progen.NewSized(11, progen.SmallSize())
	prog, err := minic.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(mach, core.LevelSpeculative)
	if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			r1, ok1 := exact.ScheduleBlock(b.Instrs, mach, exact.Limits{})
			r2, ok2 := exact.ScheduleBlock(b.Instrs, mach, exact.Limits{})
			if ok1 != ok2 {
				t.Fatalf("%s block %d: gate flapped", f.Name, bi)
			}
			if !ok1 {
				continue
			}
			if r1.Makespan != r2.Makespan || r1.Nodes != r2.Nodes || len(r1.Order) != len(r2.Order) {
				t.Fatalf("%s block %d: runs differ: %+v vs %+v", f.Name, bi, r1, r2)
			}
			for k := range r1.Order {
				if r1.Order[k] != r2.Order[k] {
					t.Fatalf("%s block %d: orders differ at %d", f.Name, bi, k)
				}
			}
			if r1.Makespan == r1.Input {
				for k := range r1.Order {
					if r1.Order[k] != b.Instrs[k] {
						t.Fatalf("%s block %d: no improvement but order changed at %d", f.Name, bi, k)
					}
				}
			}
		}
	}
}
