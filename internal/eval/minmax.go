package eval

import (
	"context"
	"fmt"

	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/paperex"
	"gsched/internal/pdg"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// minMaxInput builds the array driving the Figure 2 loop through the
// chosen number of min/max updates per iteration (0, 1 or 2).
func minMaxInput(updates, iters int) []int64 {
	var a []int64
	switch updates {
	case 0:
		a = append(a, 7)
		for k := 0; k < iters; k++ {
			a = append(a, 7, 7)
		}
	case 1:
		a = append(a, 1)
		v := int64(2)
		for k := 0; k < iters; k++ {
			a = append(a, v+1, v)
			v += 2
		}
	case 2:
		a = append(a, 0)
		hi, lo := int64(1), int64(-1)
		for k := 0; k < iters; k++ {
			a = append(a, hi, lo)
			hi++
			lo--
		}
	default:
		panic("updates must be 0..2")
	}
	return a
}

// MinMaxCycles schedules the Figure 2 program at the given level and
// returns the steady-state cycles per iteration for each update count.
func MinMaxCycles(level core.Level) ([3]int64, *ir.Func, error) {
	var out [3]int64
	var fOut *ir.Func
	for updates := 0; updates <= 2; updates++ {
		prog, f := paperex.MinMax()
		if _, err := xform.RunCtx(context.TODO(), f, core.Defaults(machine.RS6K(), level), xform.Config{}); err != nil {
			return out, nil, err
		}
		fOut = f
		m, err := sim.Load(prog)
		if err != nil {
			return out, nil, err
		}
		a := minMaxInput(updates, 40)
		lo, _ := paperex.LoopBlocks()
		res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a},
			sim.Options{Machine: machine.RS6K(), ForgivingLoads: true,
				Watch: &sim.WatchPoint{Func: "minmax", Block: lo}})
		if err != nil {
			return out, nil, err
		}
		iters := res.IterationCycles()
		if len(iters) < 3 {
			return out, nil, fmt.Errorf("eval: too few iterations recorded")
		}
		out[updates] = iters[len(iters)-1]
	}
	return out, fOut, nil
}

// Figures256 reproduces the per-iteration cycle counts of Figures 2, 5
// and 6.
func Figures256() (*Table, error) {
	t := &Table{
		Title:  "Figures 2/5/6 — minmax loop, cycles per iteration (0/1/2 updates)",
		Header: []string{"schedule", "0 updates", "1 update", "2 updates", "paper"},
	}
	paper := map[core.Level]string{
		core.LevelNone:        "20-22",
		core.LevelUseful:      "12-13",
		core.LevelSpeculative: "11-12",
	}
	for _, level := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
		c, _, err := MinMaxCycles(level)
		if err != nil {
			return nil, err
		}
		t.Add(level.String(),
			fmt.Sprint(c[0]), fmt.Sprint(c[1]), fmt.Sprint(c[2]), paper[level])
	}
	return t, nil
}

// ScheduledListing returns the scheduled loop body in the style of
// Figures 5 and 6.
func ScheduledListing(level core.Level) (string, error) {
	_, f, err := MinMaxCycles(level)
	if err != nil {
		return "", err
	}
	var sb []byte
	lo, hi := paperex.LoopBlocks()
	for _, b := range f.Blocks[lo:hi] {
		if b.Label != "" {
			sb = append(sb, (b.Label + ":\n")...)
		}
		for _, i := range b.Instrs {
			sb = append(sb, ("\t" + i.String() + "\n")...)
		}
	}
	return string(sb), nil
}

// CounterRegister measures the paper's footnote 3: the RS/6000 keeps
// loop counters in a special register, closing counted loops with a
// single decrement-and-branch; the paper disabled it for the Figure 2
// example. This re-enables it (xform.CounterLoops) and reports cycles
// per iteration with and without.
func CounterRegister() (*Table, error) {
	t := &Table{
		Title:  "Footnote 3 — minmax cycles/iteration with the counter register enabled",
		Header: []string{"schedule", "without", "with counter"},
		Notes: []string{
			"the counter register removes the paper's I18/I19 and the 3-cycle",
			"compare-to-branch delay at the loop close (footnote 3).",
		},
	}
	for _, level := range []core.Level{core.LevelNone, core.LevelUseful, core.LevelSpeculative} {
		measure := func(counter bool) (int64, error) {
			prog, f := paperex.MinMax()
			if counter {
				if xform.CounterLoops(f) != 1 {
					return 0, fmt.Errorf("eval: counter conversion failed")
				}
			}
			if _, err := xform.RunCtx(context.TODO(), f, core.Defaults(machine.RS6K(), level), xform.Config{}); err != nil {
				return 0, err
			}
			m, err := sim.Load(prog)
			if err != nil {
				return 0, err
			}
			a := minMaxInput(1, 40)
			// The preheader shifts the loop header by one block when
			// the counter is enabled.
			lo, _ := paperex.LoopBlocks()
			if counter {
				lo++
			}
			res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a},
				sim.Options{Machine: machine.RS6K(), ForgivingLoads: true,
					Watch: &sim.WatchPoint{Func: "minmax", Block: lo}})
			if err != nil {
				return 0, err
			}
			iters := res.IterationCycles()
			return iters[len(iters)-1], nil
		}
		without, err := measure(false)
		if err != nil {
			return nil, err
		}
		with, err := measure(true)
		if err != nil {
			return nil, err
		}
		t.Add(level.String(), fmt.Sprint(without), fmt.Sprint(with))
	}
	return t, nil
}

// Figure3 renders the control flow graph of the minmax loop (Figure 3).
func Figure3() string {
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	return g.String()
}

// Figure4 renders the CSPDG of the minmax loop (Figure 4).
func Figure4() (string, error) {
	_, f := paperex.MinMax()
	g := cfg.Build(f)
	li := cfg.FindLoops(g)
	p, err := pdg.Build(f, g, li, li.Root.Inner[0], machine.RS6K())
	if err != nil {
		return "", err
	}
	return p.CDG.String(), nil
}
