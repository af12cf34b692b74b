package eval

import (
	"context"
	"fmt"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/regalloc"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// ScheduleOrder compares the paper's phase order (§2/§3: global
// scheduling on unbounded symbolic registers, register allocation
// afterwards) against the reverse (allocate first, then schedule the
// 32-register code without renaming, since renaming would undo the
// allocation). The paper notes it "prefers to invoke the global
// scheduling algorithm before the register allocation is done"; the
// table quantifies why — allocated code carries anti and output
// dependences that block motion.
func ScheduleOrder(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	lim := regalloc.RS6K()
	t := &Table{
		Title:  "Phase order — cycles with scheduling before vs after register allocation",
		Header: []string{"PROGRAM", "sched-then-alloc", "alloc-then-sched", "penalty"},
		Notes: []string{
			"both columns end fully allocated to 32 GPRs / 8 CRs; the penalty is the",
			"cycle increase from scheduling second (reuse-induced false dependences).",
		},
	}
	for _, w := range ws {
		pre, err := cyclesOrdered(w, mach, lim, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		post, err := cyclesOrdered(w, mach, lim, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		t.Add(w.Name, fmt.Sprint(pre), fmt.Sprint(post),
			fmt.Sprintf("%+.1f%%", float64(post-pre)/float64(pre)*100))
	}
	return t, nil
}

func cyclesOrdered(w *workload.Workload, mach *machine.Desc, lim regalloc.Limits, scheduleFirst bool) (int64, error) {
	prog, err := minic.Compile(w.Source)
	if err != nil {
		return 0, err
	}
	opt.Program(prog)
	opts := core.Defaults(mach, core.LevelSpeculative)
	if scheduleFirst {
		if _, err := xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig()); err != nil {
			return 0, err
		}
		if _, err := regalloc.Program(prog, lim); err != nil {
			return 0, err
		}
	} else {
		if _, err := regalloc.Program(prog, lim); err != nil {
			return 0, err
		}
		opts.Rename = false // renaming would undo the allocation
		if _, err := xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig()); err != nil {
			return 0, err
		}
	}
	if err := validateAllocated(prog, lim); err != nil {
		return 0, err
	}
	return Cycles(w, prog, mach)
}

// validateAllocated confirms every register stays within the machine
// file — scheduling after allocation must not manufacture new registers.
func validateAllocated(p *ir.Program, lim regalloc.Limits) error {
	for _, f := range p.Funcs {
		var bad error
		var regs []ir.Reg
		limOf := func(r ir.Reg) int {
			if r.Class == ir.ClassGPR {
				return lim.GPRs
			}
			return lim.CRs
		}
		f.Instrs(func(_ *ir.Block, i *ir.Instr) {
			for _, r := range append(i.Uses(regs[:0]), i.Defs(nil)...) {
				if int(r.Num) >= limOf(r) {
					bad = fmt.Errorf("%s: register %s exceeds the machine file after scheduling", f.Name, r)
				}
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
