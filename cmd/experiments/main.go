// Command experiments regenerates every table and figure of the paper's
// evaluation (and this reproduction's extensions):
//
//	experiments -fig all        # everything, in the order below
//	experiments -fig 256        # Figures 2/5/6 cycle counts
//	experiments -fig 3          # Figure 3: minmax control flow graph
//	experiments -fig 4          # Figure 4: minmax CSPDG
//	experiments -fig 5          # the useful-only scheduled listing
//	experiments -fig 6          # the speculative scheduled listing
//	experiments -fig 7          # compile-time overheads
//	experiments -fig 8          # run-time improvements
//	experiments -fig 8r         # Figure 8 under taken-only branch delays
//	experiments -fig wider      # wider-machine projection (§6 remark)
//	experiments -fig ablation   # design-choice ablations
//	experiments -fig order      # scheduling before vs after register allocation
//	experiments -fig profile    # profile-guided speculation (§1 remark)
//	experiments -fig degree     # n-branch speculation degrees
//	experiments -fig depth      # speedup vs speculation depth × probability gate
//	experiments -fig dup        # Definition-6 duplication vs the published levels
//	experiments -fig character  # Unix-type vs scientific code (§1)
//	experiments -fig caps       # region size caps (§6)
//	experiments -fig counter    # counter register (footnote 3)
//	experiments -fig tuned      # auto-tuned policies and machines
//
// An unknown figure name is an error that lists the valid ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gsched/internal/core"
	"gsched/internal/eval"
	"gsched/internal/tune"
	"gsched/internal/workload"
)

// figure is one selectable table: its -fig name, the header printed
// above it, and the function that renders it.
type figure struct {
	name, title string
	render      func() (fmt.Stringer, error)
}

// table adapts the common eval signature over the workload proxies.
func table(f func([]*workload.Workload) (*eval.Table, error)) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) { return f(workload.All()) }
}

// text adapts a figure rendered as plain text.
type text string

func (t text) String() string { return string(t) }

func listing(level core.Level) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		s, err := eval.ScheduledListing(level)
		return text(s), err
	}
}

var figures = []figure{
	{"256", "Figures 2/5/6: minmax cycles per iteration", func() (fmt.Stringer, error) { return eval.Figures256() }},
	{"3", "Figure 3: control flow graph of the minmax loop (function block numbering)",
		func() (fmt.Stringer, error) { return text(eval.Figure3()), nil }},
	{"4", "Figure 4: forward control dependences of the minmax loop", func() (fmt.Stringer, error) {
		s, err := eval.Figure4()
		return text(s), err
	}},
	{"5", "Figure 5: minmax loop after useful-only global scheduling", listing(core.LevelUseful)},
	{"6", "Figure 6: minmax loop after useful + speculative scheduling", listing(core.LevelSpeculative)},
	{"7", "Figure 7: compile-time overhead", func() (fmt.Stringer, error) { return eval.Figure7(workload.All(), *reps) }},
	{"8", "Figure 8: run-time improvement", table(eval.Figure8)},
	{"8r", "Figure 8 under the taken-only branch delay model", table(eval.Figure8Realistic)},
	{"wider", "Wider machines (§6 closing remark)", table(eval.WiderMachines)},
	{"ablation", "Ablations", table(eval.Ablation)},
	{"order", "Phase order: scheduling before vs after register allocation", table(eval.ScheduleOrder)},
	{"profile", "Profile-guided speculation (§1 branch probabilities)", table(eval.ProfileGuided)},
	{"degree", "n-branch speculation degrees (Definition 7 / future work)", table(eval.SpecDegrees)},
	{"depth", "Speedup vs speculation depth (degree × probability gate)", table(eval.SpeedupVsDepth)},
	{"dup", "Definition-6 duplication (level=dup vs the published levels)", table(eval.DupMotion)},
	{"character", "Code character: Unix-type vs scientific (§1)", func() (fmt.Stringer, error) { return eval.CodeCharacter() }},
	{"caps", "Region size caps (§6)", table(eval.RegionCaps)},
	{"counter", "Counter register (footnote 3)", func() (fmt.Stringer, error) { return eval.CounterRegister() }},
	{"tuned", "Auto-tuned policies and machines (design-space exploration)", func() (fmt.Stringer, error) {
		return tune.Table(context.Background(), workload.All(), 32)
	}},
}

// figureNames is the -fig vocabulary: "all" and every figure's name.
func figureNames() string {
	names := []string{"all"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(names, ", ")
}

var (
	fig  = flag.String("fig", "all", "which figure to regenerate: "+figureNames())
	reps = flag.Int("reps", 3, "timing repetitions for Figure 7")
)

func main() {
	flag.Parse()
	if err := run(*fig); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(which string) error {
	found := false
	for _, f := range figures {
		if which != "all" && which != f.name {
			continue
		}
		found = true
		fmt.Printf("\n==== %s ====\n\n", f.title)
		s, err := f.render()
		if err != nil {
			return err
		}
		fmt.Print(s)
	}
	if !found {
		return fmt.Errorf("unknown figure %q (want one of %s)", which, figureNames())
	}
	return nil
}
