package eval

import (
	"context"
	"fmt"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// ablationConfig names one compiler configuration of the ablation study.
type ablationConfig struct {
	name  string
	build func(w *workload.Workload, mach *machine.Desc) (*ir.Program, error)
}

func ablationConfigs() []ablationConfig {
	full := func(level core.Level, mod func(*core.Options)) func(*workload.Workload, *machine.Desc) (*ir.Program, error) {
		return func(w *workload.Workload, mach *machine.Desc) (*ir.Program, error) {
			prog, err := minic.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			opt.Program(prog)
			opts := core.Defaults(mach, level)
			if mod != nil {
				mod(&opts)
			}
			_, err = xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig())
			return prog, err
		}
	}
	return []ablationConfig{
		{"base", func(w *workload.Workload, mach *machine.Desc) (*ir.Program, error) {
			return CompileBase(w, mach)
		}},
		// BASE plus [GR90]-style replication: unroll+rotate with local
		// scheduling only. The paper's base compiler had this, which is
		// why its Figure 8 deltas are small — this config quantifies
		// the overlap.
		{"base+replic", func(w *workload.Workload, mach *machine.Desc) (*ir.Program, error) {
			prog, err := minic.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			opt.Program(prog)
			xform.TransformOnlyProgram(prog, xform.DefaultConfig())
			_, err = xform.RunProgramCtx(context.TODO(), prog, core.Defaults(mach, core.LevelNone), xform.Config{})
			return prog, err
		}},
		{"useful", full(core.LevelUseful, nil)},
		{"speculative", full(core.LevelSpeculative, nil)},
		{"spec-norename", full(core.LevelSpeculative, func(o *core.Options) { o.Rename = false })},
		{"spec-nolocal", full(core.LevelSpeculative, func(o *core.Options) { o.LocalPass = false })},
		{"spec-noloads", full(core.LevelSpeculative, func(o *core.Options) { o.SpeculateLoads = false })},
		// Scheduling with duplication (Definition 6), the paper's other
		// future-work extension.
		{"spec+dup", full(core.LevelSpeculative, func(o *core.Options) { o.Duplicate = true })},
	}
}

// Ablation measures every configuration against BASE on the RS6K model:
// run-time improvement in percent (negative = slower than BASE).
func Ablation(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	cfgs := ablationConfigs()
	t := &Table{
		Title:  "Ablation — RTI over BASE per configuration (RS6K model)",
		Header: []string{"PROGRAM"},
		Notes: []string{
			"base+replic isolates the [GR90]-style unroll/rotate replication the paper's",
			"BASE compiler already performed; the useful/speculative columns therefore",
			"overstate the paper's deltas by roughly the base+replic column.",
		},
	}
	for _, c := range cfgs[1:] {
		t.Header = append(t.Header, c.name)
	}
	for _, w := range ws {
		progBase, err := cfgs[0].build(w, mach)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, cfgs[0].name, err)
		}
		base, err := Cycles(w, progBase, mach)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, cfgs[0].name, err)
		}
		row := []string{w.Name}
		for _, c := range cfgs[1:] {
			prog, err := c.build(w, mach)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, c.name, err)
			}
			cyc, err := Cycles(w, prog, mach)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, c.name, err)
			}
			row = append(row, fmt.Sprintf("%.1f%%", float64(base-cyc)/float64(base)*100))
		}
		t.Add(row...)
	}
	return t, nil
}

// Figure8Realistic measures Figure 8 under the machine's actual branch
// behaviour (footnote 2: the compare-to-branch delay is charged only for
// taken branches). The scheduler still plans with the simplified model,
// exactly as the paper's prototype did.
func Figure8Realistic(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	mach.TakenOnlyBranchDelay = true
	t := &Table{
		Title:  "Figure 8 under taken-only branch delays (footnote 2 hardware model)",
		Header: []string{"PROGRAM", "BASE cycles", "USEFUL", "SPECULATIVE", "paper U/S"},
		Notes: []string{
			"closer to the real RS/6000 than the paper's simplified accounting;",
			"improvements shrink because fall-through branches hide no delay slots.",
		},
	}
	paper := map[string]string{
		"li": "2.0% / 6.9%", "eqntott": "7.1% / 7.3%",
		"espresso": "-0.5% / 0%", "gcc": "-1.5% / 0%",
	}
	for _, w := range ws {
		progBase, err := CompileBase(w, mach)
		if err != nil {
			return nil, err
		}
		base, err := Cycles(w, progBase, mach)
		if err != nil {
			return nil, err
		}
		row := []string{w.Name, fmt.Sprint(base)}
		for _, level := range []core.Level{core.LevelUseful, core.LevelSpeculative} {
			prog, err := CompileGlobal(w, mach, level)
			if err != nil {
				return nil, err
			}
			c, err := Cycles(w, prog, mach)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f%%", float64(base-c)/float64(base)*100))
		}
		row = append(row, paper[w.Name])
		t.Add(row...)
	}
	return t, nil
}
