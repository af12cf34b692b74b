// Command gsched compiles a mini-C or assembly source file, schedules it
// at the requested level, and optionally runs it on the simulated
// machine.
//
// Usage:
//
//	gsched [flags] file.(c|s)
//
// Examples:
//
//	gsched -level speculative -print prog.c
//	gsched -level useful -run main -args 100 prog.c
//	gsched -machine 4x2 -pipeline -run vm prog.s
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"gsched"
	"gsched/internal/asm"
	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/stream"
)

var (
	level    = flag.String("level", "speculative", "scheduling level: none, useful, speculative, dup, optimal")
	machineF = flag.String("machine", "rs6k", "machine model: rs6k, scalar, wide, or NxM for N fixed and M branch units")
	pipeline = flag.Bool("pipeline", true, "run the full §6 pipeline (unroll/rotate) instead of plain scheduling")
	printAsm = flag.Bool("print", false, "print the scheduled program as assembly")
	run      = flag.String("run", "", "run this function after scheduling")
	argsF    = flag.String("args", "", "comma-separated integer arguments for -run")
	stats    = flag.Bool("stats", false, "print scheduling statistics")
	lang     = flag.String("lang", "", "input language: c, or asm or s (default: by file extension)")
	dot      = flag.String("dot", "", "emit the Graphviz CFG of this function to stdout")
	trace    = flag.Int64("trace", 0, "with -run: print the issue trace of the first N instructions")
	verifyF  = flag.Bool("verify", false, "check every schedule with the independent legality verifier; fail on violations")
	jobs     = flag.Int("jobs", runtime.NumCPU(), "schedule this many functions concurrently (1 = sequential); schedules are identical at any setting")
	profIn   = flag.String("profile", "", "edge profile file (gsched-profile v1) guiding speculation and, at -level dup, superblock formation")
	profOut  = flag.String("profile-out", "", "with -run: write the run's edge profile to this file")
	policyF  = flag.String("policy", "", "scheduling policy expression replacing the §5.2 priority order (or @file to read one); 'default' names the built-in order")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gsched [flags] file.(c|s)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsched:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gsched:", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	err := realMain(flag.Arg(0))
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if perr := writeHeapProfile(*memProf); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsched:", err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func realMain(path string) error {
	if *profOut != "" && *run == "" {
		return fmt.Errorf("-profile-out requires -run")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	l := *lang
	if l == "" {
		l = "asm"
		if strings.HasSuffix(path, ".c") {
			l = "c"
		}
	}
	dialect, err := stream.DialectFor(l)
	if err != nil {
		return err
	}
	mach, err := machine.ByName(*machineF)
	if err != nil {
		return err
	}
	lv, err := core.ParseLevel(*level)
	if err != nil {
		return err
	}
	opts := gsched.Defaults(mach, lv)
	opts.Verify = *verifyF
	opts.Parallelism = *jobs
	if *profIn != "" {
		data, err := os.ReadFile(*profIn)
		if err != nil {
			return err
		}
		prof, err := gsched.ParseProfile(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", *profIn, err)
		}
		opts.Profile = prof
	}
	if *policyF != "" {
		src := *policyF
		switch {
		case src == "default":
			src = gsched.DefaultPolicySource
		case strings.HasPrefix(src, "@"):
			data, err := os.ReadFile(src[1:])
			if err != nil {
				return err
			}
			src = string(data)
		}
		pol, err := gsched.ParsePolicy(src)
		if err != nil {
			return err
		}
		opts.Policy = pol
	}

	// The simulator and the CFG dump need the whole program in memory;
	// everything else streams, scheduling functions as the parser
	// yields them. Both go through the same program driver and print
	// identical bytes.
	if *run == "" && *dot == "" {
		cfg := gsched.StreamConfig{Opts: opts, Jobs: *jobs}
		if *pipeline {
			cfg.Pipeline, cfg.UsePipeline = gsched.DefaultPipeline(), true
		}
		bw := bufio.NewWriter(os.Stdout)
		var out io.Writer
		if *printAsm {
			out = bw
		}
		res, err := gsched.ScheduleStream(context.Background(), l, string(src), cfg, out)
		if err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		printStats(res.Stats)
		return nil
	}

	prog, err := asm.ReadProgram(dialect, string(src))
	if err != nil {
		return err
	}
	var st gsched.PipelineStats
	if *pipeline {
		st, err = gsched.SchedulePipeline(prog, opts, gsched.DefaultPipeline())
	} else {
		st.Stats, err = gsched.Schedule(prog, opts)
	}
	if err != nil {
		return err
	}
	printStats(st)
	if *printAsm {
		fmt.Print(gsched.PrintAsm(prog))
	}
	if *dot != "" {
		f := prog.Func(*dot)
		if f == nil {
			return fmt.Errorf("no function %q", *dot)
		}
		g := cfg.Build(f)
		li := cfg.FindLoops(g)
		fmt.Print(g.DOT(f.Name, li))
	}
	if *run != "" {
		var args []int64
		if *argsF != "" {
			for _, tok := range strings.Split(*argsF, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
				if err != nil {
					return fmt.Errorf("bad argument %q", tok)
				}
				args = append(args, v)
			}
		}
		ropts := gsched.RunOptions{Machine: mach, ForgivingLoads: lv >= gsched.LevelSpeculative}
		if *trace > 0 {
			ropts.Trace = os.Stdout
			ropts.TraceLimit = *trace
		}
		var outProf *gsched.Profile
		if *profOut != "" {
			outProf = gsched.NewProfile()
			ropts.Profile = outProf
		}
		res, err := gsched.Run(prog, *run, args, nil, ropts)
		if err != nil {
			return err
		}
		fmt.Printf("%s(%v) = %d\n", *run, args, res.Ret)
		fmt.Printf("cycles %d, instructions %d\n", res.Cycles, res.Instrs)
		if len(res.Printed) > 0 {
			fmt.Printf("printed: %s\n", res.PrintedString())
		}
		if outProf != nil {
			if err := os.WriteFile(*profOut, []byte(outProf.Canonical()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func printStats(st gsched.PipelineStats) {
	if !*stats {
		return
	}
	fmt.Printf("regions scheduled %d, skipped %d; moves: %d useful, %d speculative, %d duplicated; webs renamed %d; loops unrolled %d, rotated %d; blocks tail-duplicated %d\n",
		st.RegionsScheduled, st.RegionsSkipped, st.UsefulMoves, st.SpeculativeMoves, st.DuplicatedMoves,
		st.RenamedWebs, st.LoopsUnrolled, st.LoopsRotated, st.TailDuplicated)
	if st.ExactBlocks > 0 {
		fmt.Printf("exact: %d blocks searched, %d improved, %d cycles saved\n",
			st.ExactBlocks, st.ExactImproved, st.ExactCyclesSaved)
	}
}
