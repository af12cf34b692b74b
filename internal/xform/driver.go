package xform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"gsched/internal/asm"
	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/rename"
	"gsched/internal/verify"
)

// Config selects which stages of the §6 pipeline run.
type Config struct {
	// Unroll inner loops of at most maxLoopBlocks blocks once before
	// the first scheduling pass.
	Unroll bool
	// Rotate inner loops of at most maxLoopBlocks blocks after the
	// first pass and schedule them again.
	Rotate bool
	// Superblock enables profile-driven tail duplication before the
	// first scheduling pass. It only fires when the scheduling options
	// both allow duplication (Options.Duplicate, i.e. level=dup) and
	// carry an edge profile; see formSuperblocks for the thresholds.
	Superblock bool
}

// maxLoopBlocks is the largest inner loop, in basic blocks, that the
// pipeline unrolls or rotates: the paper's prototype transforms inner
// loops of up to four basic blocks.
const maxLoopBlocks = 4

// DefaultConfig mirrors the paper's prototype: unroll and rotate inner
// loops with up to 4 basic blocks, plus superblock formation when a
// profile is available at level=dup.
func DefaultConfig() Config {
	return Config{Unroll: true, Rotate: true, Superblock: true}
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
	sc := takeScratch()
	defer sc.giveBack()
	return sc.runFunc(ctx, f, opts, cfgX)
}

// runFunc is RunCtx on sc.
func (sc *scratch) runFunc(ctx context.Context, f *ir.Func, opts core.Options, cfgX Config) (Stats, error) {
	if err := f.Validate(); err != nil {
		return Stats{}, err // its errors already start with f.Name
	}
	st, err := sc.run(ctx, f, opts, cfgX, transformInnerLoops)
	if err != nil {
		return st, fmt.Errorf("%s: %w", f.Name, err)
	}
	return st, f.Validate() // its errors already start with f.Name
}

// run is runFunc without validation and without the function name on
// its errors, transforming loops with sweep.
func (sc *scratch) run(ctx context.Context, f *ir.Func, opts core.Options, cfgX Config, sweep loopSweep) (Stats, error) {
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
	fl := &sc.fl
	if opts.Rename || opts.Level > core.LevelNone {
		fl.Refill(f)
	}
	if opts.Rename {
		done := opts.Trace.TimePhase(core.PhaseRename)
		st.RenamedWebs += sc.renamer.Run(f, &fl.G)
		done()
		opts.Rename = false // done once
	}

	// With opts.Verify set, every scheduling pass is bracketed by a
	// snapshot and an independent legality check, both timed as
	// PhaseVerify. Unrolling and rotation restructure the flow graph, so
	// each bracket snapshots after them: within a bracket the block
	// skeleton is invariant, which is what the verifier relies on.
	capture := func() {
		if opts.Verify {
			done := opts.Trace.TimePhase(core.PhaseVerify)
			sc.verifier.Capture(f)
			done()
		}
	}
	check := func(rules verify.Rules) error {
		if !opts.Verify {
			return nil
		}
		done := opts.Trace.TimePhase(core.PhaseVerify)
		err := sc.verifier.Check(f, rules)
		done()
		if err != nil {
			return fmt.Errorf("xform: illegal schedule: %w", err)
		}
		return nil
	}

	if opts.Level > core.LevelNone {
		if cfgX.Superblock && opts.Duplicate && opts.Profile != nil {
			done := opts.Trace.TimePhase(core.PhaseXform)
			st.TailDuplicated = formSuperblocks(f, opts.Profile)
			if st.TailDuplicated > 0 {
				fl.Refill(f)
			}
			done()
		}
		if cfgX.Unroll {
			done := opts.Trace.TimePhase(core.PhaseXform)
			st.LoopsUnrolled = sweep(f, fl, unrollOnce)
			done()
		}
		capture()
		// First pass: inner regions only.
		irreducible, err := sc.scheduleFiltered(ctx, f, &opts, &st.Stats, func(r *cfg.Region, height int) bool {
			return r.IsLoop && height == 0
		})
		if err != nil {
			return st, err
		}
		if err := check(opts.VerifyRules()); err != nil {
			return st, err
		}
		rotated := 0
		if cfgX.Rotate {
			done := opts.Trace.TimePhase(core.PhaseXform)
			rotated = sweep(f, fl, rotate)
			done()
			st.LoopsRotated = rotated
		}
		capture()
		// Second pass: rotated inner loops (now fresh regions) and the
		// outer regions.
		irreducible2, err := sc.scheduleFiltered(ctx, f, &opts, &st.Stats, func(r *cfg.Region, height int) bool {
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
		if err := check(opts.VerifyRules()); err != nil {
			return st, err
		}
	}

	if opts.LocalPass {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("xform: cancelled: %w", err)
		}
		capture()
		mach := opts.Machine
		done := opts.Trace.TimePhase(core.PhaseLocal)
		for _, b := range f.Blocks {
			if err := sc.core.ScheduleBlockLocalPolicy(b, mach, opts.Policy); err != nil {
				done()
				return st, err
			}
			st.LocalBlocks++
		}
		done()
		// The basic block post-pass may not move anything across blocks.
		if err := check(verify.Rules{}); err != nil {
			return st, err
		}
	}

	if opts.Level >= core.LevelOptimal {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("xform: cancelled: %w", err)
		}
		capture()
		done := opts.Trace.TimePhase(core.PhaseExact)
		err := core.ExactPassCtx(ctx, f, &opts, &st.Stats)
		done()
		if err != nil {
			return st, err
		}
		// The exact tier only permutes within blocks, like the post-pass.
		if err := check(verify.Rules{}); err != nil {
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
			sc := takeScratch()
			defer sc.giveBack()
			for t := range work {
				t.run(ctx, sc, opts, cfgX, out != nil)
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

// run schedules and prints one function on a worker goroutine, whose
// scratch is sc.
func (t *task) run(ctx context.Context, sc *scratch, opts core.Options, cfgX Config, print bool) {
	defer close(t.done)
	defer func() {
		if v := recover(); v != nil {
			t.err = core.Recovered(v)
		}
	}()
	t.st, t.err = sc.runFunc(ctx, t.f, opts, cfgX)
	if t.err == nil && print {
		t.buf = t.f.AppendString(t.buf)
	}
}

// TransformOnlyProgram applies unrolling and rotation to every function
// of p without any global scheduling. It approximates the code
// replication techniques [GR90] that the paper's BASE compiler already
// contained ("a set of code replication techniques that solve certain
// loop-closing delay problems"), and is used by the ablation
// experiments to separate the transformation's contribution from the
// global scheduler's.
func TransformOnlyProgram(p *ir.Program, cfgX Config) Stats {
	var st Stats
	for _, f := range p.Funcs {
		st.Add(transformOnly(f, cfgX, transformInnerLoops))
	}
	return st
}

// transformOnly is TransformOnlyProgram on one function, transforming
// loops with sweep.
func transformOnly(f *ir.Func, cfgX Config, sweep loopSweep) Stats {
	var st Stats
	var fl cfg.Flow
	fl.Refill(f)
	if cfgX.Unroll {
		st.LoopsUnrolled = sweep(f, &fl, unrollOnce)
	}
	if cfgX.Rotate {
		st.LoopsRotated = sweep(f, &fl, rotate)
	}
	return st
}

// scratch is the storage one Drive worker keeps for a whole call: the
// flow analysis of the function in hand, the scheduler's pipelines, the
// renaming tables and the verifier. Each is sized by the largest
// function the scratch has served, so only a worker's first functions
// grow it.
type scratch struct {
	fl       cfg.Flow
	core     core.Scratch
	renamer  rename.Renamer
	verifier verify.Verifier
}

// scratches keeps the scratch of finished calls for the next ones. It
// is a free list and not a sync.Pool because a collection empties a
// pool: a verified compile of a 1000-instruction function allocates
// enough to run the collector several times, and each run would throw
// away the storage the next function needs. It holds at most
// GOMAXPROCS scratches, as many as can run at once.
var scratches struct {
	sync.Mutex
	free []*scratch
}

// takeScratch returns a kept scratch, or a new one when none is free.
func takeScratch() *scratch {
	scratches.Lock()
	defer scratches.Unlock()
	if n := len(scratches.free); n > 0 {
		sc := scratches.free[n-1]
		scratches.free[n-1] = nil
		scratches.free = scratches.free[:n-1]
		return sc
	}
	return new(scratch)
}

// giveBack drops sc's references to the functions it served and keeps
// it for a later call, unless GOMAXPROCS scratches are kept already.
func (sc *scratch) giveBack() {
	sc.fl.Release()
	sc.core.Release()
	scratches.Lock()
	defer scratches.Unlock()
	if len(scratches.free) < runtime.GOMAXPROCS(0) {
		scratches.free = append(scratches.free, sc)
	}
}

// A loopTransform rewrites the inner loop l of f in place, inserting
// every new block right after l's last block, and reports whether it
// changed f; a refusal leaves f untouched. exposed reports that the
// rewrite may have made a new loop eligible that a sweep's candidate
// list does not hold (see rotate).
type loopTransform func(f *ir.Func, l loop) (changed, exposed bool)

// A loopSweep applies xf to the inner loops of at most maxLoopBlocks
// blocks of f, whose current flow analysis is fl, and returns the number
// it changed; fl is current again on return.
type loopSweep func(f *ir.Func, fl *cfg.Flow, xf loopTransform) int

// transformInnerLoops applies xf once to every inner loop of at most
// maxLoopBlocks blocks, in region-tree walk order, and returns the number of
// loops it changed. fl must be f's current flow analysis, and is again
// on return.
//
// Inner loops are disjoint and a transform only inserts blocks right
// after its own loop, so one walk lists the candidates: each is
// transformed in turn, the block indices of the others shifted past the
// blocks it inserted, and fl is refilled once at the end. The result is what refilling and walking again after every
// transformed loop would give, down to labels and instruction IDs. The
// one exception is a transform that exposes a new candidate: then fl is
// refilled and the tree walked again at once, skipping every header
// already tried, so the new loop is tried where a fresh walk puts it.
func transformInnerLoops(f *ir.Func, fl *cfg.Flow, xf loopTransform) int {
	var done map[*ir.Block]bool // headers tried before a walk again
	var loops []loop
	var backing []int
	count := 0
	for {
		if fl.Loops.Irreducible {
			return count
		}
		loops, backing = loops[:0], backing[:0]
		fl.Loops.Root.Walk(func(r *cfg.Region) {
			if r.IsLoop && r.IsInner() && len(r.Blocks) <= maxLoopBlocks && !done[f.Blocks[r.Header]] {
				var l loop
				l, backing = readLoop(backing, &fl.Loops, r)
				loops = append(loops, l)
			}
		})
		changed, again := false, false
		for k, l := range loops {
			n := len(f.Blocks)
			ok, exposed := xf(f, l)
			if !ok {
				continue
			}
			count++
			changed = true
			if exposed {
				if done == nil {
					done = make(map[*ir.Block]bool)
				}
				for _, t := range loops[:k+1] {
					done[f.Blocks[t.header]] = true
				}
				again = true
				break
			}
			// Walk order need not be layout order, so every other
			// candidate is renumbered, tried or not.
			hi, grew := l.blocks[len(l.blocks)-1], len(f.Blocks)-n
			for x := range loops {
				if x != k {
					loops[x].shift(hi, grew)
				}
			}
		}
		if changed {
			fl.Refill(f)
		}
		if !again {
			return count
		}
	}
}

// shift renumbers l's blocks after grew blocks were inserted right after
// block hi, which is not one of l's.
func (l *loop) shift(hi, grew int) {
	if l.header > hi {
		l.header += grew
	}
	for _, rows := range [2][]int{l.blocks, l.backs} {
		for x, b := range rows {
			if b > hi {
				rows[x] = b + grew
			}
		}
	}
}

// scheduleFiltered schedules the regions selected by keep (given the
// region and its nesting height), innermost first, honouring the size
// caps in opts, and reports whether f is irreducible, in which case
// nothing is scheduled. sc.fl is f's current flow analysis; scheduling
// moves instructions only within the block skeleton, so it stays valid.
// The walk, its region-level parallelism, and its cancellation
// behaviour live in core.(*Scratch).ScheduleRegionTree.
func (sc *scratch) scheduleFiltered(ctx context.Context, f *ir.Func, opts *core.Options, st *core.Stats,
	keep func(r *cfg.Region, height int) bool) (irreducible bool, err error) {

	if sc.fl.Loops.Irreducible {
		return true, nil
	}
	return false, sc.core.ScheduleRegionTree(ctx, f, &sc.fl.G, &sc.fl.Loops, opts, st, keep)
}
