// Package machine provides the parametric superscalar machine description
// of §2 of the paper: a collection of functional units of m types with
// n_1..n_m units each, per-instruction execution times, and integer
// delays on data dependence edges. The RS6K preset models the IBM RISC
// System/6000 of §2.1; wider presets support the paper's closing remark
// that larger payoffs are expected on machines with more units.
package machine

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gsched/internal/ir"
)

// UnitType classifies functional units.
type UnitType uint8

const (
	// Fixed is the fixed point (integer) unit type.
	Fixed UnitType = iota
	// Float is the floating point unit type. The instruction set in
	// package ir is fixed-point only (as in the paper's evaluation),
	// but the parameters are retained for completeness.
	Float
	// Branch is the branch unit type.
	Branch

	// NumUnitTypes is the number of functional unit types (the
	// paper's m).
	NumUnitTypes = 3
)

func (t UnitType) String() string {
	switch t {
	case Fixed:
		return "fixed"
	case Float:
		return "float"
	case Branch:
		return "branch"
	}
	return fmt.Sprintf("unit(%d)", uint8(t))
}

// Desc is the parametric description of a machine.
type Desc struct {
	Name string

	// NumUnits[t] is the number of functional units of type t (the
	// paper's n_1..n_m). Each unit issues at most one instruction per
	// cycle.
	NumUnits [NumUnitTypes]int

	// Execution times in cycles. Most instructions take one cycle;
	// multiply and divide are multi-cycle as on the RS/6000.
	MulTime int
	DivTime int

	// The four delay kinds of §2.1, in cycles:
	LoadDelay           int // load result -> any use of the loaded value
	CmpBranchDelay      int // fixed point compare -> dependent branch
	FloatDelay          int // floating point op -> use of its result
	FloatCmpBranchDelay int // floating point compare -> dependent branch

	// TakenOnlyBranchDelay switches the simulator to the machine's
	// actual behaviour described in the paper's footnote 2: "usually
	// the three cycle delay between a fixed point compare and the
	// respective branch instruction is encountered only when the
	// branch is taken". The default (false) charges the delay whether
	// the branch is taken or not, which is the simplification the
	// paper adopts for its estimates. The scheduler always plans with
	// the simplified model; this flag only changes measurement.
	TakenOnlyBranchDelay bool
}

// Validate checks that d describes a machine the model can realise:
// at least one unit of every type (§2 requires n_t >= 1 for each of the
// m unit types), execution times of at least one cycle (§2's t >= 1),
// and non-negative pipeline delays (§2's d >= 0). It returns the first
// violated constraint.
func (d *Desc) Validate() error {
	for t := UnitType(0); t < NumUnitTypes; t++ {
		if d.NumUnits[t] < 1 {
			return fmt.Errorf("machine %q: %d %s units, want >= 1", d.Name, d.NumUnits[t], t)
		}
	}
	if d.MulTime < 1 {
		return fmt.Errorf("machine %q: multiply time %d, want >= 1", d.Name, d.MulTime)
	}
	if d.DivTime < 1 {
		return fmt.Errorf("machine %q: divide time %d, want >= 1", d.Name, d.DivTime)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"load", d.LoadDelay},
		{"compare-to-branch", d.CmpBranchDelay},
		{"float", d.FloatDelay},
		{"float compare-to-branch", d.FloatCmpBranchDelay},
	} {
		if c.v < 0 {
			return fmt.Errorf("machine %q: negative %s delay %d", d.Name, c.name, c.v)
		}
	}
	return nil
}

// mustValidate backs the preset constructors: an invalid preset is a
// programming error, not an input error.
func mustValidate(d *Desc) *Desc {
	if err := d.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	return d
}

// RS6K returns the RISC System/6000 model of §2.1: one fixed point, one
// floating point and one branch unit; delayed loads of one cycle; a
// three cycle compare-to-branch delay (charged whether the branch is
// taken or not, per the paper's footnote 2).
func RS6K() *Desc {
	return mustValidate(&Desc{
		Name:                "rs6k",
		NumUnits:            [NumUnitTypes]int{Fixed: 1, Float: 1, Branch: 1},
		MulTime:             5,
		DivTime:             19,
		LoadDelay:           1,
		CmpBranchDelay:      3,
		FloatDelay:          1,
		FloatCmpBranchDelay: 5,
	})
}

// Superscalar returns an RS6K-delay machine with nFixed fixed point units
// and nBranch branch units, for the "larger number of computational
// units" experiments.
func Superscalar(nFixed, nBranch int) *Desc {
	d := RS6K()
	d.Name = fmt.Sprintf("ss%dx%d", nFixed, nBranch)
	d.NumUnits[Fixed] = nFixed
	d.NumUnits[Branch] = nBranch
	return mustValidate(d)
}

// Scalar returns the degenerate 1-wide corner: one unit of each type,
// single-cycle execution and no pipeline delays, so instruction order
// barely matters. Schedules that only stay correct by accident of the
// RS6K delay shape tend to fail differential tests here.
func Scalar() *Desc {
	return mustValidate(&Desc{
		Name:     "scalar",
		NumUnits: [NumUnitTypes]int{Fixed: 1, Float: 1, Branch: 1},
		MulTime:  1,
		DivTime:  1,
	})
}

// Wide returns the degenerate infinitely-wide corner: RS6K execution
// times and delays but effectively unlimited units of every type, so
// issue is constrained by dependences alone (the paper's closing remark
// about machines with more computational units, taken to its limit).
func Wide() *Desc {
	d := RS6K()
	d.Name = "wide"
	for t := range d.NumUnits {
		d.NumUnits[t] = 64
	}
	return mustValidate(d)
}

// ByName returns the machine a user-facing name selects: "rs6k",
// "scalar", "wide", or "NxM" for Superscalar(N, M).
func ByName(name string) (*Desc, error) {
	switch name {
	case "rs6k":
		return RS6K(), nil
	case "scalar":
		return Scalar(), nil
	case "wide":
		return Wide(), nil
	}
	if nf, nb, ok := strings.Cut(name, "x"); ok {
		f, err1 := strconv.Atoi(nf)
		b, err2 := strconv.Atoi(nb)
		if err1 == nil && err2 == nil && f > 0 && b > 0 {
			return Superscalar(f, b), nil
		}
	}
	return nil, fmt.Errorf("unknown machine %q (want rs6k, scalar, wide or NxM)", name)
}

// Random returns a seeded-random but always valid machine description:
// unit counts, execution times and the four delay kinds are drawn from
// ranges that bracket the RS6K values on both sides (including the
// no-delay and heavily-delayed corners). The draw space deliberately
// includes unit mixes with zero units of a type — machines that cannot
// issue some opcodes at all — which Desc.Validate rejects; Random keeps
// drawing from the same seeded stream until a realisable machine
// appears. Equal seeds give equal machines, so differential-test
// failures replay exactly.
func Random(seed int64) *Desc {
	r := rand.New(rand.NewSource(seed))
	for {
		d := randomDraw(r, seed)
		if d.Validate() == nil {
			return d
		}
	}
}

// randomDraw makes one draw from the widened descriptor space the
// auto-tuner searches. Unit counts start at zero, so a single draw may
// describe an unissuable machine; callers must Validate and re-draw
// (see Random). Keeping the invalid corners in the space — rather than
// clamping each field — means tuner mutations around the boundary stay
// unbiased: a mutation that lands on zero branch units is rejected and
// re-drawn instead of silently pinned to one.
func randomDraw(r *rand.Rand, seed int64) *Desc {
	return &Desc{
		Name: fmt.Sprintf("rand%d", seed),
		NumUnits: [NumUnitTypes]int{
			Fixed:  r.Intn(5),
			Float:  r.Intn(4),
			Branch: r.Intn(3),
		},
		MulTime:             1 + r.Intn(8),
		DivTime:             1 + r.Intn(24),
		LoadDelay:           r.Intn(4),
		CmpBranchDelay:      r.Intn(6),
		FloatDelay:          r.Intn(4),
		FloatCmpBranchDelay: r.Intn(9),
	}
}

// Unit returns the functional unit type that executes op.
func (d *Desc) Unit(op ir.Op) UnitType {
	if op.IsBranch() || op == ir.OpRet {
		return Branch
	}
	if op.IsFloat() {
		return Float
	}
	return Fixed
}

// Exec returns the execution time of op in cycles (the paper's t >= 1).
func (d *Desc) Exec(op ir.Op) int {
	switch op {
	case ir.OpMul, ir.OpMulI:
		return d.MulTime
	case ir.OpDiv, ir.OpRem, ir.OpFDiv:
		return d.DivTime
	}
	return 1
}

// Delay returns the pipeline delay d >= 0 assigned to the flow dependence
// edge from prod to cons through register r (§2: if prod starts at k and
// takes t cycles, cons must not start before k + t + Delay). Only
// definition-to-use edges carry non-zero delays.
func (d *Desc) Delay(prod, cons *ir.Instr, r ir.Reg) int {
	if prod.Op == ir.OpFCmp && cons.Op == ir.OpBC {
		return d.FloatCmpBranchDelay
	}
	if prod.Op.IsFloat() && prod.Op != ir.OpFStore {
		// A floating point result (including a float load) reaches its
		// consumer after the float delay (§2.1's third delay kind).
		return d.FloatDelay
	}
	if prod.Op.IsLoad() && r == prod.Def {
		// The delayed load applies to the loaded value; the updated
		// base register of LU is available without extra delay.
		return d.LoadDelay
	}
	if prod.Op.IsCompare() && cons.Op == ir.OpBC {
		return d.CmpBranchDelay
	}
	return 0
}

// MaxDelay returns an upper bound on any delay the machine can impose,
// used to size lookahead windows.
func (d *Desc) MaxDelay() int {
	m := d.LoadDelay
	for _, v := range []int{d.CmpBranchDelay, d.FloatDelay, d.FloatCmpBranchDelay} {
		if v > m {
			m = v
		}
	}
	return m
}

func (d *Desc) String() string {
	return fmt.Sprintf("%s(fixed=%d float=%d branch=%d load+%d cmp->br+%d)",
		d.Name, d.NumUnits[Fixed], d.NumUnits[Float], d.NumUnits[Branch],
		d.LoadDelay, d.CmpBranchDelay)
}
