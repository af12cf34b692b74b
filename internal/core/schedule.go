package core

import (
	"context"
	"fmt"
	"sync"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/rename"
	"gsched/internal/verify"
)

// ScheduleFunc runs the full scheduling pipeline on one function:
// optional register renaming, global scheduling of every eligible region
// (innermost first), and the basic block post-pass.
func ScheduleFunc(f *ir.Func, opts Options) (Stats, error) {
	return ScheduleFuncCtx(context.Background(), f, opts)
}

// ScheduleFuncCtx is ScheduleFunc under a context. Cancellation is
// checked between phases and between regions, so a timed-out schedule
// returns promptly with an error wrapping ctx.Err(); the function may
// be left partially scheduled (still legal code — every completed
// motion is legal on its own — but not the final schedule).
func ScheduleFuncCtx(ctx context.Context, f *ir.Func, opts Options) (Stats, error) {
	var st Stats
	if opts.Machine == nil {
		return st, fmt.Errorf("core: Options.Machine is required")
	}
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("core: schedule cancelled: %w", err)
	}
	g := cfg.Build(f)

	pl := getPipeline()
	defer putPipeline(pl)

	if opts.Rename {
		done := opts.Trace.TimePhase(PhaseRename)
		st.RenamedWebs = rename.Run(f, g)
		done()
	}

	var snap *verify.Snapshot
	if opts.Verify {
		done := opts.Trace.TimePhase(PhaseVerify)
		snap = verify.Capture(f)
		done()
	}

	if opts.Level > LevelNone {
		li := cfg.FindLoops(g)
		if !li.Irreducible {
			if err := scheduleRegionTree(ctx, pl, f, g, li, &opts, &st, nil); err != nil {
				return st, err
			}
		} else {
			st.RegionsSkipped++
		}
	}

	if opts.LocalPass {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("core: schedule cancelled: %w", err)
		}
		done := opts.Trace.TimePhase(PhaseLocal)
		for _, b := range f.Blocks {
			pl.scheduleBlockLocal(b, opts.Machine, opts.Policy)
			st.LocalBlocks++
		}
		done()
	}

	if opts.Level >= LevelOptimal {
		done := opts.Trace.TimePhase(PhaseExact)
		err := ExactPassCtx(ctx, f, &opts, &st)
		done()
		if err != nil {
			return st, err
		}
	}

	if opts.Verify {
		done := opts.Trace.TimePhase(PhaseVerify)
		err := verify.Check(snap, f, opts.VerifyRules())
		done()
		if err != nil {
			return st, fmt.Errorf("core: illegal schedule: %w", err)
		}
	}
	return st, nil
}

// ScheduleProgram schedules every function of p. Functions are
// independent compilation units, so with opts.Parallelism > 1 they are
// scheduled concurrently by a bounded worker pool. Results are
// deterministic either way: each function's schedule depends only on
// that function, and per-function Stats are merged in program order
// after all workers finish.
func ScheduleProgram(p *ir.Program, opts Options) (Stats, error) {
	return ScheduleProgramCtx(context.Background(), p, opts)
}

// ScheduleProgramCtx is ScheduleProgram under a context: per-request
// timeouts and cancellation propagate into every function's schedule.
func ScheduleProgramCtx(ctx context.Context, p *ir.Program, opts Options) (Stats, error) {
	var st Stats
	if opts.Parallelism > 1 && len(p.Funcs) > 1 {
		stats := make([]Stats, len(p.Funcs))
		errs := make([]error, len(p.Funcs))
		runFuncsParallel(len(p.Funcs), opts.Parallelism, func(i int) {
			stats[i], errs[i] = ScheduleFuncCtx(ctx, p.Funcs[i], opts)
		})
		for i, err := range errs {
			if err != nil {
				return st, fmt.Errorf("%s: %w", p.Funcs[i].Name, err)
			}
			st.Add(stats[i])
		}
		return st, nil
	}
	for _, f := range p.Funcs {
		s, err := ScheduleFuncCtx(ctx, f, opts)
		if err != nil {
			return st, fmt.Errorf("%s: %w", f.Name, err)
		}
		st.Add(s)
	}
	return st, nil
}

// RunFuncsParallel runs fn(i) for every i in [0, n) on min(workers, n)
// goroutines and waits for all of them. It is the worker pool shared by
// ScheduleProgram and the xform pipeline driver; fn must only touch
// state owned by index i.
func RunFuncsParallel(n, workers int, fn func(i int)) {
	runFuncsParallel(n, workers, fn)
}

func runFuncsParallel(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ScheduleRegion schedules one region with the global framework, on a
// pooled pipeline with whole-function liveness. It is exported for
// callers that schedule single regions outside the tree walk (e.g. the
// minmax evaluation experiments).
func ScheduleRegion(f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region, opts *Options, st *Stats) error {
	pl := getPipeline()
	defer putPipeline(pl)
	return pl.scheduleRegion(f, g, li, r, opts, st, nil, nil)
}
