// Duplication and profile-gated speculation experiments (level=dup):
// the speedup-vs-speculation-depth curve and the Definition-6
// duplication table. Both self-train an edge profile by running the
// BASE build once — instruction IDs are stable under scheduling, so a
// profile gathered on the base build guides the scheduled build.
package eval

import (
	"context"
	"fmt"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/profile"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// trainProfile runs the BASE build of w once and returns its edge
// profile.
func trainProfile(w *workload.Workload, mach *machine.Desc) (*profile.Profile, error) {
	progBase, err := CompileBase(w, mach)
	if err != nil {
		return nil, err
	}
	prof := profile.New()
	m, err := sim.Load(progBase)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(w.Entry, w.Args, w.Data,
		sim.Options{Machine: mach, ForgivingLoads: true, Profile: prof}); err != nil {
		return nil, err
	}
	return prof, nil
}

// compileDup compiles w through the full pipeline at the given level
// with an optional profile, speculation degree and probability gate.
func compileDup(w *workload.Workload, mach *machine.Desc, level core.Level,
	prof *profile.Profile, degree int, minProb float64) (int64, xform.Stats, error) {
	prog, err := minic.Compile(w.Source)
	if err != nil {
		return 0, xform.Stats{}, err
	}
	opt.Program(prog)
	opts := core.Defaults(mach, level)
	opts.Profile = prof
	if degree > 0 {
		opts.SpecDegree = degree
	}
	if minProb > 0 {
		opts.MinSpecProb = minProb
	}
	st, err := xform.RunProgramCtx(context.TODO(), prog, opts, xform.DefaultConfig())
	if err != nil {
		return 0, xform.Stats{}, err
	}
	c, err := Cycles(w, prog, mach)
	return c, st, err
}

// SpeedupVsDepth sweeps the speculation degree (Definition 7) crossed
// with the probability gate: ungated speculation, and level=dup with
// the trained profile at MinSpecProb 0.5 and 0.9.
func SpeedupVsDepth(ws []*workload.Workload) (*Table, error) {
	mach := machine.RS6K()
	degrees := []int{1, 2, 3}
	gates := []struct {
		name    string
		level   core.Level
		prof    bool
		minProb float64
	}{
		{"none", core.LevelSpeculative, false, 0},
		{"p0.5", core.LevelDup, true, 0.5},
		{"p0.9", core.LevelDup, true, 0.9},
	}
	t := &Table{
		Title:  "Speedup vs speculation depth — RTI over BASE by degree × probability gate",
		Header: []string{"PROGRAM"},
		Notes: []string{
			"\"none\" is ungated speculation; p0.5/p0.9 are level=dup with a self-trained",
			"edge profile, where candidates whose path probability falls below the gate",
			"stay home and Definition-6 duplication plus superblock formation are on.",
			"The paper's conjecture: deeper speculation helps only when the profile says",
			"the gamble is likely to pay, so the gated columns should degrade gracefully",
			"with depth while ungated speculation can regress.",
		},
	}
	for _, d := range degrees {
		for _, g := range gates {
			t.Header = append(t.Header, fmt.Sprintf("d%d/%s", d, g.name))
		}
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
		prof, err := trainProfile(w, mach)
		if err != nil {
			return nil, fmt.Errorf("%s: train: %w", w.Name, err)
		}
		row := []string{w.Name}
		for _, d := range degrees {
			for _, g := range gates {
				p := prof
				if !g.prof {
					p = nil
				}
				c, _, err := compileDup(w, mach, g.level, p, d, g.minProb)
				if err != nil {
					return nil, fmt.Errorf("%s d%d/%s: %w", w.Name, d, g.name, err)
				}
				rti := float64(base-c) / float64(base) * 100
				row = append(row, fmt.Sprintf("%.1f%%", rti))
			}
		}
		t.Add(row...)
	}
	return t, nil
}

// DupMotion isolates what Definition-6 duplication buys over the
// paper's published levels: useful-only, speculative, and level=dup
// with the trained profile, on the RS/6000 model and the wider
// 4-fixed/2-branch machine where duplicated code has more free slots to
// hide in. The dup column also reports how much duplication actually
// happened (Definition-6 moves + tail-duplicated superblock joins), so
// a win can be traced to the mechanism rather than to gating noise.
func DupMotion(ws []*workload.Workload) (*Table, error) {
	machines := []struct {
		name string
		m    *machine.Desc
	}{
		{"rs6k", machine.RS6K()},
		{"4xfixed+2br", machine.Superscalar(4, 2)},
	}
	t := &Table{
		Title:  "Definition-6 duplication — RTI over BASE by level and machine",
		Header: []string{"PROGRAM", "MACHINE", "USEFUL", "SPECULATIVE", "DUP", "dup moves", "tail dup"},
		Notes: []string{
			"DUP is level=dup with a self-trained profile: probability-gated speculation",
			"plus duplication-based motion and superblock formation along hot paths.",
		},
	}
	for _, w := range ws {
		for _, mc := range machines {
			progBase, err := CompileBase(w, mc.m)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, mc.name, err)
			}
			base, err := Cycles(w, progBase, mc.m)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, mc.name, err)
			}
			prof, err := trainProfile(w, mc.m)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: train: %w", w.Name, mc.name, err)
			}
			rti := func(c int64) string {
				return fmt.Sprintf("%.1f%%", float64(base-c)/float64(base)*100)
			}
			cu, _, err := compileDup(w, mc.m, core.LevelUseful, nil, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s useful: %w", w.Name, mc.name, err)
			}
			cs, _, err := compileDup(w, mc.m, core.LevelSpeculative, nil, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s speculative: %w", w.Name, mc.name, err)
			}
			cd, std, err := compileDup(w, mc.m, core.LevelDup, prof, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s dup: %w", w.Name, mc.name, err)
			}
			t.Add(w.Name, mc.name, rti(cu), rti(cs), rti(cd),
				fmt.Sprint(std.DuplicatedMoves), fmt.Sprint(std.TailDuplicated))
		}
	}
	return t, nil
}
