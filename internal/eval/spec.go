package eval

import (
	"context"
	"fmt"
	"time"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// CompileBase builds a workload the way the paper's BASE compiler does:
// front end, machine-independent optimisation, and the local basic block
// scheduler (with renaming, which the XL compiler performs regardless).
func CompileBase(w *workload.Workload, mach *machine.Desc) (*ir.Program, error) {
	prog, err := minic.Compile(w.Source)
	if err != nil {
		return nil, err
	}
	opt.Program(prog)
	_, err = xform.RunProgramCtx(context.TODO(), prog, core.Defaults(mach, core.LevelNone), xform.Config{})
	return prog, err
}

// CompileGlobal builds a workload with the machine-independent optimiser
// and the full §6 pipeline at the given level (unroll, global schedule,
// rotate, global schedule, local pass).
func CompileGlobal(w *workload.Workload, mach *machine.Desc, level core.Level) (*ir.Program, error) {
	prog, err := minic.Compile(w.Source)
	if err != nil {
		return nil, err
	}
	opt.Program(prog)
	_, err = xform.RunProgramCtx(context.TODO(), prog, core.Defaults(mach, level), xform.DefaultConfig())
	return prog, err
}

// CompileGlobalOpts builds a workload with the machine-independent
// optimiser and the full §6 pipeline under explicit scheduling options
// (the auto-tuner threads candidate policies and machines through
// here; CompileGlobal is the options-default special case).
func CompileGlobalOpts(w *workload.Workload, opts core.Options) (*ir.Program, error) {
	prog, err := minic.Compile(w.Source)
	if err != nil {
		return nil, err
	}
	opt.Program(prog)
	_, err = xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig())
	return prog, err
}

// Cycles runs a compiled workload on the machine and returns simulated
// cycles.
func Cycles(w *workload.Workload, prog *ir.Program, mach *machine.Desc) (int64, error) {
	m, err := sim.Load(prog)
	if err != nil {
		return 0, err
	}
	res, err := m.Run(w.Entry, w.Args, w.Data, sim.Options{Machine: mach, ForgivingLoads: true})
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// timeIt reports the fastest of reps timings of fn (min reduces noise,
// matching how compile-time overheads are usually quoted).
func timeIt(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Figure7 reproduces the compile-time overhead table: BASE compile time
// and the percentage increase when the full global scheduling pipeline
// runs. reps controls timing repetitions.
func Figure7(ws []*workload.Workload, reps int) (*Table, error) {
	mach := machine.RS6K()
	t := &Table{
		Title:  "Figure 7 — compile-time overhead of global scheduling",
		Header: []string{"PROGRAM", "BASE", "CTO", "paper CTO"},
		Notes: []string{
			"BASE is the front end + local scheduling only; the paper's XL base compiler",
			"runs many more machine-independent optimisations, so its overhead (12-17%)",
			"is measured against a much larger denominator. The shape to check: the",
			"overhead is modest and uniform across the four programs.",
		},
	}
	paper := map[string]string{"li": "13%", "eqntott": "17%", "espresso": "12%", "gcc": "13%"}
	for _, w := range ws {
		base, err := timeIt(reps, func() error {
			_, err := CompileBase(w, mach)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		global, err := timeIt(reps, func() error {
			_, err := CompileGlobal(w, mach, core.LevelSpeculative)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		cto := float64(global-base) / float64(base) * 100
		t.Add(w.Name, base.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.0f%%", cto), paper[w.Name])
	}
	return t, nil
}

// Figure8 reproduces the run-time improvement table: simulated cycles
// under BASE, and the improvement of useful-only and useful+speculative
// global scheduling, in percent.
func Figure8(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	t := &Table{
		Title:  "Figure 8 — run-time improvement over BASE (simulated cycles)",
		Header: []string{"PROGRAM", "BASE cycles", "USEFUL", "SPECULATIVE", "paper U/S"},
	}
	paper := map[string]string{
		"li": "2.0% / 6.9%", "eqntott": "7.1% / 7.3%",
		"espresso": "-0.5% / 0%", "gcc": "-1.5% / 0%",
	}
	for _, w := range ws {
		progBase, err := CompileBase(w, mach)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		base, err := Cycles(w, progBase, mach)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rti := func(level core.Level) (float64, error) {
			prog, err := CompileGlobal(w, mach, level)
			if err != nil {
				return 0, err
			}
			c, err := Cycles(w, prog, mach)
			if err != nil {
				return 0, err
			}
			return float64(base-c) / float64(base) * 100, nil
		}
		useful, err := rti(core.LevelUseful)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		spec, err := rti(core.LevelSpeculative)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		t.Add(w.Name, fmt.Sprint(base),
			fmt.Sprintf("%.1f%%", useful), fmt.Sprintf("%.1f%%", spec), paper[w.Name])
	}
	return t, nil
}

// WiderMachines projects the §6 closing remark ("we may expect even
// bigger payoffs in machines with a larger number of computational
// units"): speculative-level improvement over BASE on wider machines.
func WiderMachines(ws []*workload.Workload) (*Table, error) {
	t := &Table{
		Title:  "§6 projection — speculative RTI on wider machines",
		Header: []string{"PROGRAM", "rs6k", "2xfixed", "4xfixed+2br"},
	}
	machines := []*machine.Desc{
		machine.RS6K(),
		machine.Superscalar(2, 1),
		machine.Superscalar(4, 2),
	}
	for _, w := range ws {
		row := []string{w.Name}
		for _, mach := range machines {
			progBase, err := CompileBase(w, mach)
			if err != nil {
				return nil, err
			}
			base, err := Cycles(w, progBase, mach)
			if err != nil {
				return nil, err
			}
			prog, err := CompileGlobal(w, mach, core.LevelSpeculative)
			if err != nil {
				return nil, err
			}
			c, err := Cycles(w, prog, mach)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f%%", float64(base-c)/float64(base)*100))
		}
		t.Add(row...)
	}
	return t, nil
}
