package xform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"gsched/internal/asm"
	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/rename"
	"gsched/internal/verify"
)

// Config selects which parts of the §6 pipeline run.
type Config struct {
	// Unroll inner loops of at most UnrollMaxBlocks blocks once before
	// the first scheduling pass.
	Unroll          bool
	UnrollMaxBlocks int
	// Rotate inner loops of at most RotateMaxBlocks blocks after the
	// first pass and schedule them again.
	Rotate          bool
	RotateMaxBlocks int
	// Superblock enables profile-driven tail duplication before the
	// first scheduling pass. It only fires when the scheduling options
	// both allow duplication (Options.Duplicate, i.e. level=dup) and
	// carry an edge profile; the thresholds are DefaultSuperblock's.
	Superblock bool
}

// DefaultConfig mirrors the paper's prototype: unroll and rotate inner
// loops with up to 4 basic blocks, plus superblock formation when a
// profile is available at level=dup.
func DefaultConfig() Config {
	return Config{
		Unroll: true, UnrollMaxBlocks: 4,
		Rotate: true, RotateMaxBlocks: 4,
		Superblock: true,
	}
}

// Stats extends the scheduler's statistics with transformation counts.
type Stats struct {
	core.Stats
	LoopsUnrolled  int
	LoopsRotated   int
	TailDuplicated int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Stats.Add(o.Stats)
	s.LoopsUnrolled += o.LoopsUnrolled
	s.LoopsRotated += o.LoopsRotated
	s.TailDuplicated += o.TailDuplicated
}

// RunCtx is the per-function pass: the general flow of the global
// scheduling prototype (§6). 1. certain inner loops are unrolled; 2.
// global scheduling is applied to the inner regions; 3. certain inner
// loops are rotated; 4. global scheduling is applied a second time to
// the rotated inner loops and the outer regions; finally the basic
// block scheduler runs on every block. A zero Config transforms
// nothing, which is plain scheduling: every region below
// opts.MaxRegionLevels, innermost first, then the post-pass.
// Cancellation is checked between the pipeline's stages and between
// regions within each scheduling pass, so a timed-out request aborts
// promptly with an error wrapping ctx.Err(). f is validated before and
// after the pass: malformed IR built through the API (an instruction ID
// used twice, a branch to a missing label) is an error, never a pass
// that cannot terminate. Every error names f once.
func RunCtx(ctx context.Context, f *ir.Func, opts core.Options, cfgX Config) (Stats, error) {
	if err := f.Validate(); err != nil {
		return Stats{}, err // its errors already start with f.Name
	}
	st, err := run(ctx, f, opts, cfgX)
	if err != nil {
		return st, fmt.Errorf("%s: %w", f.Name, err)
	}
	return st, f.Validate() // its errors already start with f.Name
}

// run is RunCtx without validation and without the function name on
// its errors.
func run(ctx context.Context, f *ir.Func, opts core.Options, cfgX Config) (Stats, error) {
	var st Stats
	if opts.Machine == nil {
		return st, errors.New("xform: Options.Machine is required")
	}
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("xform: cancelled: %w", err)
	}
	// One flow analysis serves the whole pass. Renaming and scheduling
	// never change the block skeleton, so it is refilled only after a
	// transform that does.
	fl := flowPool.Get().(*cfg.Flow)
	defer flowPool.Put(fl)
	if opts.Rename || opts.Level > core.LevelNone {
		fl.Refill(f)
	}
	if opts.Rename {
		done := opts.Trace.TimePhase(core.PhaseRename)
		st.RenamedWebs += rename.Run(f, &fl.G)
		done()
		opts.Rename = false // done once
	}

	// With opts.Verify set, every scheduling pass is bracketed by a
	// snapshot and an independent legality check, both timed as
	// PhaseVerify. Unrolling and rotation restructure the flow graph, so
	// each bracket snapshots after them: within a bracket the block
	// skeleton is invariant, which is what the verifier relies on.
	capture := func() *verify.Snapshot {
		if !opts.Verify {
			return nil
		}
		done := opts.Trace.TimePhase(core.PhaseVerify)
		defer done()
		return verify.Capture(f)
	}
	check := func(snap *verify.Snapshot, rules verify.Rules) error {
		if snap == nil {
			return nil
		}
		done := opts.Trace.TimePhase(core.PhaseVerify)
		err := verify.Check(snap, f, rules)
		done()
		if err != nil {
			return fmt.Errorf("xform: illegal schedule: %w", err)
		}
		return nil
	}

	if opts.Level > core.LevelNone {
		if cfgX.Superblock && opts.Duplicate && opts.Profile != nil {
			done := opts.Trace.TimePhase(core.PhaseXform)
			st.TailDuplicated = FormSuperblocks(f, opts.Profile, DefaultSuperblock())
			if st.TailDuplicated > 0 {
				fl.Refill(f)
			}
			done()
		}
		if cfgX.Unroll {
			done := opts.Trace.TimePhase(core.PhaseXform)
			st.LoopsUnrolled = transformInnerLoops(f, fl, cfgX.UnrollMaxBlocks, UnrollOnce)
			done()
		}
		snap := capture()
		// First pass: inner regions only.
		irreducible, err := scheduleFiltered(ctx, f, fl, &opts, &st.Stats, func(r *cfg.Region, height int) bool {
			return r.IsLoop && height == 0
		})
		if err != nil {
			return st, err
		}
		if err := check(snap, opts.VerifyRules()); err != nil {
			return st, err
		}
		rotated := 0
		if cfgX.Rotate {
			done := opts.Trace.TimePhase(core.PhaseXform)
			rotated = transformInnerLoops(f, fl, cfgX.RotateMaxBlocks, Rotate)
			done()
			st.LoopsRotated = rotated
		}
		snap = capture()
		// Second pass: rotated inner loops (now fresh regions) and the
		// outer regions.
		irreducible2, err := scheduleFiltered(ctx, f, fl, &opts, &st.Stats, func(r *cfg.Region, height int) bool {
			if height >= opts.MaxRegionLevels {
				return false
			}
			if r.IsLoop && height == 0 {
				return rotated > 0 // inner loops again only if rotation changed them
			}
			return true
		})
		if err != nil {
			return st, err
		}
		if irreducible || irreducible2 {
			st.RegionsSkipped++ // once per function, not once per pass
		}
		if err := check(snap, opts.VerifyRules()); err != nil {
			return st, err
		}
	}

	if opts.LocalPass {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("xform: cancelled: %w", err)
		}
		snap := capture()
		mach := opts.Machine
		done := opts.Trace.TimePhase(core.PhaseLocal)
		for _, b := range f.Blocks {
			if err := core.ScheduleBlockLocalPolicy(b, mach, opts.Policy); err != nil {
				done()
				return st, err
			}
			st.LocalBlocks++
		}
		done()
		// The basic block post-pass may not move anything across blocks.
		if err := check(snap, verify.Rules{}); err != nil {
			return st, err
		}
	}

	if opts.Level >= core.LevelOptimal {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("xform: cancelled: %w", err)
		}
		snap := capture()
		done := opts.Trace.TimePhase(core.PhaseExact)
		err := core.ExactPassCtx(ctx, f, &opts, &st.Stats)
		done()
		if err != nil {
			return st, err
		}
		// The exact tier only permutes within blocks, like the post-pass.
		if err := check(snap, verify.Rules{}); err != nil {
			return st, err
		}
	}
	return st, nil
}

// RunProgramCtx applies RunCtx to every function of p in place, up to
// opts.Parallelism at a time (see Drive).
func RunProgramCtx(ctx context.Context, p *ir.Program, opts core.Options, cfgX Config) (Stats, error) {
	res, err := Drive(ctx, asm.ProgramReader(p), opts, cfgX, opts.Parallelism, nil)
	return res.Stats, err
}

// Result aggregates what flowed through Drive.
type Result struct {
	Stats  Stats // scheduling stats merged in source order
	Funcs  int   // functions scheduled
	Instrs int   // input instructions (counted before scheduling)
}

// task carries one function through Drive. The worker fills st, buf
// and err (a *core.WorkerPanic if scheduling panicked), then closes
// done; the emitter consumes tasks strictly in source order.
type task struct {
	f    *ir.Func
	st   Stats
	buf  []byte
	err  error
	done chan struct{}
}

// Drive is the program driver: it schedules every function r yields
// with RunCtx under cfgX and writes the scheduled program to out (data
// directives first, then each function as soon as it and all its
// predecessors are done). A nil out discards the text but still
// schedules everything.
//
// Functions are independent compilation units, so up to jobs (min 1)
// are scheduled concurrently while r parses the next ones; at most
// 2·jobs are in flight, so memory stays proportional to jobs times the
// largest function. A single emitter merges stats and output in source
// order, so both are identical at every jobs setting.
//
// The first failure in source order stops the pool. A reader (parse)
// error wins over scheduling errors; otherwise the earliest function's
// scheduling or write error is returned. A panic in a worker is raised
// again on the caller's goroutine, as a *core.WorkerPanic carrying the
// worker's stack, after every goroutine Drive started has exited.
func Drive(ctx context.Context, r asm.FuncReader, opts core.Options, cfgX Config, jobs int, out io.Writer) (Result, error) {
	var res Result
	if jobs < 1 {
		jobs = 1
	}
	if out != nil {
		var buf []byte
		for _, s := range r.Prog().Syms {
			buf = s.AppendString(buf)
		}
		if _, err := out.Write(buf); err != nil {
			return res, err
		}
	}

	work := make(chan *task, jobs)
	order := make(chan *task, 2*jobs) // bounds functions in flight
	abort := make(chan struct{})      // closed by the emitter on first failure

	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for t := range work {
				t.run(ctx, opts, cfgX, out != nil)
			}
		}()
	}

	var emitErr error
	emitDone := make(chan struct{})
	go func() {
		defer close(emitDone)
		for t := range order {
			<-t.done
			if emitErr != nil {
				continue // draining after failure
			}
			if emitErr = t.err; emitErr == nil {
				res.Stats.Add(t.st)
				if out != nil {
					_, emitErr = out.Write(t.buf)
				}
			}
			if emitErr != nil {
				close(abort)
			}
		}
	}()

	// The sends below cannot block for good: the emitter drains order
	// to the end, and workers drain work without blocking.
	var parseErr error
parse:
	for {
		select {
		case <-abort:
			break parse
		default:
		}
		f, err := r.ParseFunc()
		if err == io.EOF {
			break
		}
		if err != nil {
			parseErr = err
			break
		}
		res.Funcs++
		res.Instrs += f.NumInstrs()
		t := &task{f: f, done: make(chan struct{})}
		order <- t
		work <- t
	}
	close(work)
	close(order)
	wg.Wait()
	<-emitDone

	if wp, ok := emitErr.(*core.WorkerPanic); ok {
		panic(wp)
	}
	if parseErr != nil {
		return res, parseErr
	}
	return res, emitErr
}

// run schedules and prints one function on a worker goroutine.
func (t *task) run(ctx context.Context, opts core.Options, cfgX Config, print bool) {
	defer close(t.done)
	defer func() {
		if v := recover(); v != nil {
			t.err = core.Recovered(v)
		}
	}()
	t.st, t.err = RunCtx(ctx, t.f, opts, cfgX)
	if t.err == nil && print {
		t.buf = t.f.AppendString(t.buf)
	}
}

// TransformOnly applies unrolling and rotation without any global
// scheduling. It approximates the code replication techniques [GR90] that
// the paper's BASE compiler already contained ("a set of code replication
// techniques that solve certain loop-closing delay problems"), and is
// used by the ablation experiments to separate the transformation's
// contribution from the global scheduler's.
func TransformOnly(f *ir.Func, cfgX Config) Stats {
	var st Stats
	var fl cfg.Flow
	fl.Refill(f)
	if cfgX.Unroll {
		st.LoopsUnrolled = transformInnerLoops(f, &fl, cfgX.UnrollMaxBlocks, UnrollOnce)
	}
	if cfgX.Rotate {
		st.LoopsRotated = transformInnerLoops(f, &fl, cfgX.RotateMaxBlocks, Rotate)
	}
	return st
}

// TransformOnlyProgram applies TransformOnly to every function.
func TransformOnlyProgram(p *ir.Program, cfgX Config) Stats {
	var st Stats
	for _, f := range p.Funcs {
		st.Add(TransformOnly(f, cfgX))
	}
	return st
}

// flowPool recycles the flow analysis of RunCtx: a Drive worker takes
// one for the duration of a function, so its storage is sized by the
// largest function the worker has seen.
var flowPool = sync.Pool{New: func() any { return new(cfg.Flow) }}

// transformInnerLoops repeatedly finds an untouched inner loop of at most
// maxBlocks blocks and applies xf to it. fl must be f's current flow
// analysis, and is again on return: it is refilled after each successful
// transformation. A refused loop leaves f untouched (the transforms
// check eligibility before mutating), so the scan continues on the same
// analysis. Returns the number of successful transformations.
func transformInnerLoops(f *ir.Func, fl *cfg.Flow, maxBlocks int,
	xf func(*ir.Func, *cfg.Graph, *cfg.LoopInfo, *cfg.Region) bool) int {

	var done map[*ir.Block]bool // headers already tried
	count := 0
	li := &fl.Loops
	for {
		if li.Irreducible {
			return count
		}
		var target *cfg.Region
		li.Root.Walk(func(r *cfg.Region) {
			if target != nil || !r.IsLoop || !r.IsInner() {
				return
			}
			if len(r.Blocks) > maxBlocks {
				return
			}
			if done[f.Blocks[r.Header]] {
				return
			}
			target = r
		})
		if target == nil {
			return count
		}
		if done == nil {
			done = make(map[*ir.Block]bool)
		}
		done[f.Blocks[target.Header]] = true
		if xf(f, &fl.G, li, target) {
			count++
			fl.Refill(f)
		}
	}
}

// scheduleFiltered schedules the regions selected by keep (given the
// region and its nesting height), innermost first, honouring the size
// caps in opts, and reports whether f is irreducible, in which case
// nothing is scheduled. fl is f's current flow analysis; scheduling
// moves instructions only within the block skeleton, so fl stays valid.
// The walk, its region-level parallelism, and its cancellation
// behaviour live in core.ScheduleRegionTree.
func scheduleFiltered(ctx context.Context, f *ir.Func, fl *cfg.Flow, opts *core.Options, st *core.Stats,
	keep func(r *cfg.Region, height int) bool) (irreducible bool, err error) {

	if fl.Loops.Irreducible {
		return true, nil
	}
	return false, core.ScheduleRegionTree(ctx, f, &fl.G, &fl.Loops, opts, st, keep)
}
