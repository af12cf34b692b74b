package eval

import (
	"context"
	"fmt"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/profile"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// ProfileGuided evaluates §1's branch-probability remark: each workload
// is compiled, run once to gather an edge profile, recompiled with the
// profile steering speculation, and measured again. The self-training
// methodology mirrors how the paper's contemporaries evaluated
// profile-guided compilation.
func ProfileGuided(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	t := &Table{
		Title:  "Profile-guided speculation — RTI over BASE without and with an edge profile",
		Header: []string{"PROGRAM", "speculative", "spec+profile"},
		Notes: []string{
			"the profile filters speculation into improbable blocks and prefers probable",
			"candidates; trained and measured on the same input (self-training).",
		},
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

		plain, err := CompileGlobal(w, mach, core.LevelSpeculative)
		if err != nil {
			return nil, err
		}
		plainCycles, err := Cycles(w, plain, mach)
		if err != nil {
			return nil, err
		}

		// Train: run the BASE program once collecting the profile.
		// Instruction IDs are stable under scheduling, so a profile
		// gathered on the base build guides the scheduled build.
		prof := profile.New()
		m, err := sim.Load(progBase)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(w.Entry, w.Args, w.Data,
			sim.Options{Machine: mach, ForgivingLoads: true, Profile: prof}); err != nil {
			return nil, err
		}

		guided, err := compileWithProfile(w, mach, prof)
		if err != nil {
			return nil, err
		}
		guidedCycles, err := Cycles(w, guided, mach)
		if err != nil {
			return nil, err
		}

		rti := func(c int64) string {
			return fmt.Sprintf("%.1f%%", float64(base-c)/float64(base)*100)
		}
		t.Add(w.Name, rti(plainCycles), rti(guidedCycles))
	}
	return t, nil
}

func compileWithProfile(w *workload.Workload, mach *machine.Desc, prof *profile.Profile) (*ir.Program, error) {
	prog, err := minic.Compile(w.Source)
	if err != nil {
		return nil, err
	}
	opt.Program(prog)
	opts := core.Defaults(mach, core.LevelSpeculative)
	opts.Profile = prof
	opts.MinSpecProb = 0.4
	_, err = xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig())
	return prog, err
}

// CodeCharacter contrasts the paper's §1 claim that Unix-type programs
// (small blocks, unpredictable branches) need global scheduling while
// scientific code (large branch-free blocks) is served by the local
// scheduler: the four SPEC proxies against the LINPACK-style kernel.
func CodeCharacter() (*Table, error) {
	mach := machine.RS6K()
	t := &Table{
		Title:  "§1 code character — speculative RTI and block sizes",
		Header: []string{"PROGRAM", "avg block", "max block", "RTI"},
		Notes: []string{
			"the paper: small-block Unix-type code profits from global scheduling;",
			"scientific code with large basic blocks is already served locally.",
		},
	}
	ws := append(workload.All(), workload.SCIENTIFIC())
	for _, w := range ws {
		prog, err := minic.Compile(w.Source)
		if err != nil {
			return nil, err
		}
		opt.Program(prog)
		instrs, blocks, maxBlock := 0, 0, 0
		for _, f := range prog.Funcs {
			blocks += len(f.Blocks)
			instrs += f.NumInstrs()
			for _, b := range f.Blocks {
				if len(b.Instrs) > maxBlock {
					maxBlock = len(b.Instrs)
				}
			}
		}
		progBase, err := CompileBase(w, mach)
		if err != nil {
			return nil, err
		}
		base, err := Cycles(w, progBase, mach)
		if err != nil {
			return nil, err
		}
		progG, err := CompileGlobal(w, mach, core.LevelSpeculative)
		if err != nil {
			return nil, err
		}
		c, err := Cycles(w, progG, mach)
		if err != nil {
			return nil, err
		}
		t.Add(w.Name, fmt.Sprintf("%.1f", float64(instrs)/float64(blocks)),
			fmt.Sprint(maxBlock),
			fmt.Sprintf("%.1f%%", float64(base-c)/float64(base)*100))
	}
	return t, nil
}

// RegionCaps sweeps the §6 "small regions" limits, measuring both the
// compile-time cost and the run-time benefit of scheduling larger
// regions.
func RegionCaps(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	caps := []int{64, 128, 256, 1024}
	t := &Table{
		Title:  "§6 region size caps — RTI over BASE by MaxRegionInstrs",
		Header: []string{"PROGRAM"},
	}
	for _, c := range caps {
		t.Header = append(t.Header, fmt.Sprintf("cap %d", c))
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
		row := []string{w.Name}
		for _, cap := range caps {
			prog, err := minic.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			opt.Program(prog)
			opts := core.Defaults(mach, core.LevelSpeculative)
			opts.MaxRegionInstrs = cap
			if _, err := xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig()); err != nil {
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

// SpecDegrees sweeps the n-branch speculation degree (Definition 7),
// the paper's "more aggressive speculative scheduling" future work.
func SpecDegrees(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	degrees := []int{1, 2, 3}
	t := &Table{
		Title:  "n-branch speculation — RTI over BASE by speculation degree",
		Header: []string{"PROGRAM"},
	}
	for _, d := range degrees {
		t.Header = append(t.Header, fmt.Sprintf("degree %d", d))
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
		row := []string{w.Name}
		for _, d := range degrees {
			prog, err := minic.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			opt.Program(prog)
			opts := core.Defaults(mach, core.LevelSpeculative)
			opts.SpecDegree = d
			if _, err := xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig()); err != nil {
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
