package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/rename"
	"gsched/internal/verify"
)

// ScheduleFuncCtx runs the full scheduling pipeline on one function:
// optional register renaming, global scheduling of every eligible region
// (innermost first), and the basic block post-pass. Cancellation is
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

// WorkerPanic is a panic raised on a pool worker goroutine and raised
// again on the goroutine that started the pool, once every worker has
// stopped. Stack is the worker's stack at the original panic, which the
// second panic would otherwise lose.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Recovered wraps v, a value recovered on a worker goroutine. A value
// that is already a WorkerPanic (a nested pool's) keeps its innermost
// stack. Call it from the worker's deferred recover, where debug.Stack
// still sees the panicking frames.
func Recovered(v any) *WorkerPanic {
	if wp, ok := v.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: v, Stack: debug.Stack()}
}

// runFuncsParallel runs fn(i) for every i in [0, n) on min(workers, n)
// goroutines and waits for all of them; fn must only touch state owned
// by index i. A panic in fn stops its worker and is raised again, as a
// *WorkerPanic, once every worker has stopped.
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
	var next atomic.Int64 // the next index to hand out
	panics := make([]*WorkerPanic, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range panics {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[w] = Recovered(v)
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
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
