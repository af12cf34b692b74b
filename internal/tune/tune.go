// Package tune is the machine-space and policy-space auto-tuner: a
// seeded hill-climb over scheduling-policy weight vectors (see
// policy.Weighted) and/or machine descriptors (the widened space
// machine.Random draws from), scored by total simulated cycles of a
// workload set compiled through the full §6 pipeline. Everything is
// deterministic in the seed — equal Configs give equal Results — so a
// tuning run is a reproducible experiment table (Table, behind
// cmd/experiments -fig tuned), not a timing.
package tune

import (
	"context"
	"fmt"
	"math/rand"

	"gsched/internal/core"
	"gsched/internal/eval"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/policy"
	"gsched/internal/workload"
)

// Mode names for searchConfig.Mode.
const (
	modePolicy  = "policy"  // search policy weight vectors on a fixed machine
	modeMachine = "machine" // search machine descriptors under the built-in order
	modeBoth    = "both"    // alternate: even iterations mutate the policy, odd the machine
)

// searchConfig parameterizes one tuning run. The zero value searches policy
// space on the RS6K at the speculative level over the four workload
// proxies.
type searchConfig struct {
	// Seed anchors every random choice (default 1; 0 means 1 so the
	// zero searchConfig is deterministic rather than time-dependent).
	Seed int64
	// Iters is the number of candidate evaluations (default 24). Each
	// candidate compiles and simulates every workload, so the run costs
	// Iters+1 full pipeline sweeps.
	Iters int
	// Mode is modePolicy (default), modeMachine or modeBoth.
	Mode string
	// Machine is the baseline descriptor: the fixed machine in policy
	// mode, the hill-climb start in machine mode (default RS6K).
	Machine *machine.Desc
	// Level is the scheduling level (default speculative).
	Level core.Level
	// Workloads is the scoring set (default workload.All()).
	Workloads []*workload.Workload
}

// workloadScore is one workload's baseline-vs-best cycle counts.
type workloadScore struct {
	Workload string `json:"workload"`
	Baseline int64  `json:"baseline_cycles"`
	Best     int64  `json:"best_cycles"`
}

// searchResult is the outcome of a tuning run: the best (policy, machine)
// pair found and how it compares to the baseline (built-in §5.2 order
// on searchConfig.Machine). BestCycles <= BaselineCycles always — the search
// starts from the baseline and only adopts improvements.
type searchResult struct {
	Mode string `json:"mode"`
	// Policy is the winning policy in canonical form; empty means the
	// built-in order was never beaten (or machine mode never searched
	// policies).
	Policy  string        `json:"policy,omitempty"`
	Machine *machine.Desc `json:"machine"`
	// Cycle totals over the workload set.
	BaselineCycles int64   `json:"baseline_cycles"`
	BestCycles     int64   `json:"best_cycles"`
	ImprovedPct    float64 `json:"improved_pct"`
	// Evaluated counts candidate evaluations, including rejected and
	// compile-failed candidates.
	Evaluated int             `json:"evaluated"`
	Workloads []workloadScore `json:"workloads"`
}

func (c *searchConfig) defaults() error {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Iters <= 0 {
		c.Iters = 24
	}
	if c.Mode == "" {
		c.Mode = modePolicy
	}
	switch c.Mode {
	case modePolicy, modeMachine, modeBoth:
	default:
		return fmt.Errorf("tune: unknown mode %q (want policy, machine or both)", c.Mode)
	}
	if c.Machine == nil {
		c.Machine = machine.RS6K()
	}
	if c.Level == core.LevelNone {
		c.Level = core.LevelSpeculative
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.All()
	}
	return nil
}

// machineField describes one mutable descriptor dimension; the ranges
// mirror the widened space machine.Random draws from, so the hill-climb
// explores exactly the descriptor space the difftest lattice sweeps.
type machineField struct {
	get      func(*machine.Desc) int
	set      func(*machine.Desc, int)
	min, max int // inclusive
}

func machineFields() []machineField {
	unit := func(t ir.Unit, max int) machineField {
		return machineField{
			get: func(d *machine.Desc) int { return d.NumUnits[t] },
			set: func(d *machine.Desc, v int) { d.NumUnits[t] = v },
			min: 0, max: max,
		}
	}
	return []machineField{
		unit(ir.UnitFixed, 4),
		unit(ir.UnitFloat, 3),
		unit(ir.UnitBranch, 2),
		{func(d *machine.Desc) int { return d.MulTime }, func(d *machine.Desc, v int) { d.MulTime = v }, 1, 8},
		{func(d *machine.Desc) int { return d.DivTime }, func(d *machine.Desc, v int) { d.DivTime = v }, 1, 24},
		{func(d *machine.Desc) int { return d.LoadDelay }, func(d *machine.Desc, v int) { d.LoadDelay = v }, 0, 3},
		{func(d *machine.Desc) int { return d.CmpBranchDelay }, func(d *machine.Desc, v int) { d.CmpBranchDelay = v }, 0, 5},
		{func(d *machine.Desc) int { return d.FloatDelay }, func(d *machine.Desc, v int) { d.FloatDelay = v }, 0, 3},
		{func(d *machine.Desc) int { return d.FloatCmpBranchDelay }, func(d *machine.Desc, v int) { d.FloatCmpBranchDelay = v }, 0, 8},
	}
}

// mutateMachine resamples one descriptor field, re-drawing until the
// result validates (the ranges include unissuable unit mixes on
// purpose, exactly like machine.Random — rejection keeps boundary
// exploration unbiased instead of clamping).
func mutateMachine(r *rand.Rand, base *machine.Desc) *machine.Desc {
	fields := machineFields()
	for {
		d := *base
		d.Name = "tuned"
		f := fields[r.Intn(len(fields))]
		f.set(&d, f.min+r.Intn(f.max-f.min+1))
		if d.Validate() == nil {
			return &d
		}
	}
}

// mutateWeights tweaks one or two weights by a quarter-step in [-1, 1],
// or (one draw in four) resamples the whole vector the way
// policy.Random weights its terms — the exploration kick that keeps the
// climb out of the first local minimum.
func mutateWeights(r *rand.Rand, base []float64) []float64 {
	w := append([]float64(nil), base...)
	if r.Intn(4) == 0 {
		for i := range w {
			if r.Intn(3) == 0 {
				w[i] = 0
				continue
			}
			w[i] = float64(1+r.Intn(16)) / 4
		}
		return w
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		i := r.Intn(len(w))
		w[i] += float64(r.Intn(9)-4) / 4
		if w[i] < -4 {
			w[i] = -4
		}
		if w[i] > 4 {
			w[i] = 4
		}
	}
	return w
}

// search executes the search: score the baseline (built-in §5.2 order on
// searchConfig.Machine), then Iters seeded mutations, adopting any candidate
// with a strictly lower cycle total. The context bounds the whole run;
// cancellation returns ctx.Err().
func search(ctx context.Context, cfg searchConfig) (*searchResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	score := func(pol *policy.Policy, mach *machine.Desc) (int64, []int64, error) {
		var total int64
		per := make([]int64, len(cfg.Workloads))
		for i, w := range cfg.Workloads {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			opts := core.Defaults(mach, cfg.Level)
			opts.Policy = pol
			prog, err := eval.CompileGlobalOpts(w, opts)
			if err != nil {
				return 0, nil, err
			}
			c, err := eval.Cycles(w, prog, mach)
			if err != nil {
				return 0, nil, err
			}
			per[i] = c
			total += c
		}
		return total, per, nil
	}

	baseTotal, basePer, err := score(nil, cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("tune: baseline: %w", err)
	}

	// Hill-climb state. The weight vector starts at a tiered-order
	// approximation of §5.2 (D dominant, CP next); the policy itself
	// starts as nil (the built-in order) so a search that never improves
	// reports exactly the baseline pair.
	weights := make([]float64, policy.NumWeights())
	weights[0], weights[1] = 4, 2 // x.d - y.d, x.cp - y.cp
	var bestPol *policy.Policy
	bestMach := cfg.Machine
	bestTotal, bestPer := baseTotal, basePer
	evaluated := 0

	for i := 0; i < cfg.Iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		candPol, candMach, candWeights := bestPol, bestMach, weights
		tunePolicy := cfg.Mode == modePolicy || (cfg.Mode == modeBoth && i%2 == 0)
		if tunePolicy {
			candWeights = mutateWeights(r, weights)
			p, err := policy.Weighted(candWeights)
			if err != nil {
				return nil, fmt.Errorf("tune: %w", err)
			}
			candPol = p
		} else {
			candMach = mutateMachine(r, bestMach)
		}
		evaluated++
		total, per, err := score(candPol, candMach)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue // candidate failed to compile or run: reject
		}
		if total < bestTotal {
			bestTotal, bestPer = total, per
			bestPol, bestMach = candPol, candMach
			if tunePolicy {
				weights = candWeights
			}
		}
	}

	res := &searchResult{
		Mode:           cfg.Mode,
		Machine:        bestMach,
		BaselineCycles: baseTotal,
		BestCycles:     bestTotal,
		ImprovedPct:    float64(baseTotal-bestTotal) / float64(baseTotal) * 100,
		Evaluated:      evaluated,
	}
	if bestPol != nil {
		res.Policy = bestPol.Canonical()
	}
	for i, w := range cfg.Workloads {
		res.Workloads = append(res.Workloads, workloadScore{Workload: w.Name, Baseline: basePer[i], Best: bestPer[i]})
	}
	return res, nil
}

// Table runs one seeded mode=both search per workload (seed 1, iters
// candidate evaluations each) and tabulates baseline → tuned cycles:
// the best (policy, machine) pair found against the built-in §5.2
// order on the stock RS6K.
func Table(ctx context.Context, ws []*workload.Workload, iters int) (*eval.Table, error) {
	t := &eval.Table{
		Title:  "Auto-tuned policies and machines — simulated cycles, baseline → tuned",
		Header: []string{"PROGRAM", "baseline", "tuned", "improvement"},
		Notes: []string{
			fmt.Sprintf("one hill-climb per program: seed 1, %d candidate evaluations, mode=both", iters),
			"(policy weight vectors and machine descriptors), from the built-in order on the RS6K.",
		},
	}
	for _, w := range ws {
		res, err := search(ctx, searchConfig{Seed: 1, Iters: iters, Mode: modeBoth, Workloads: []*workload.Workload{w}})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		t.Add(w.Name, fmt.Sprint(res.BaselineCycles), fmt.Sprint(res.BestCycles), fmt.Sprintf("%.1f%%", res.ImprovedPct))
	}
	return t, nil
}
