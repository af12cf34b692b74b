package core

import (
	"context"
	"fmt"
	"sync"

	"gsched/internal/cfg"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
	"gsched/internal/pdg"
)

// pipeline is the per-worker scratch arena of the scheduling pipeline.
// One pipeline serves one goroutine at a time; callers take one from
// pipelinePool for the duration of a function (or region) and put it
// back, so a steady stream of scheduled functions reuses the same DDG
// arenas, liveness bitsets, candidate storage, ready lists, and
// local-scheduler buffers instead of reallocating them per region.
type pipeline struct {
	ddgb *pdg.Builder

	// The §5.3 liveness of the current scope: the whole function, or
	// one region group's blocks against a frozen baseline (see
	// dataflow.ComputeScoped). It lives across the scope's regions and
	// is "updated dynamically" as the paper asks: noteEdit records every
	// block a motion edits, refreshLiveness marks a refresh point, and
	// the next query folds the edits in with Analyzer.Update. lv is nil
	// until the scope's first query.
	live      dataflow.Analyzer
	lv        *dataflow.Liveness
	liveStale bool
	dirty     []int

	// Dense per-instruction tables, indexed by ir.Instr.ID.
	scheduled []bool
	cycleOf   []int
	blockOf   []int
	pos       []int
	// Dense per-block tables.
	own       []bool
	processed []bool
	// Session scratch.
	done     []bool
	cands    []*candidate
	ready    []*candidate
	viable   []*candidate
	newOrder []*ir.Instr
	dupJoins []int

	// Candidate arena: chunked so pointers stay stable while it grows.
	// candHigh is the last chunk handed out since the last release.
	candChunks [][]candidate
	candChunk  int
	candUsed   int
	candHigh   int

	// regionUsed reports that scheduleRegion ran since the last
	// release, so the session scratch and the arena hold instructions.
	regionUsed bool

	// Per-block priority caches, invalidated by bumping stamp (which
	// only ever increases, so stale entries from earlier regions or
	// functions can never match). maxCP caches the per-block maximum
	// critical path for the policy slack feature; it is only filled
	// when a policy is installed.
	heights     []pdg.HeightVals
	heightStamp []int
	maxCP       []int
	maxCPStamp  []int
	stamp       int

	local localScratch
}

var pipelinePool = sync.Pool{
	New: func() any { return &pipeline{ddgb: pdg.NewBuilder()} },
}

func getPipeline() *pipeline { return pipelinePool.Get().(*pipeline) }

// putPipeline releases pl and returns it to the pool.
func putPipeline(pl *pipeline) {
	pl.release()
	pipelinePool.Put(pl)
}

// release drops the pipeline's references into the function it last
// worked on — its IR, flow graph and liveness baseline — keeping every
// buffer's capacity, so a pooled pipeline does not keep a finished
// function reachable until its next use. The local scheduler takes a
// pipeline per block, so the region scratch is cleared only after
// region work.
func (pl *pipeline) release() {
	pl.ddgb.Release()
	pl.live.Release()
	pl.lv, pl.dirty = nil, pl.dirty[:0]
	if pl.regionUsed {
		for _, s := range [...][]*candidate{pl.cands, pl.ready, pl.viable} {
			clear(s[:cap(s)])
		}
		clear(pl.newOrder[:cap(pl.newOrder)])
		for _, chunk := range pl.candChunks[:min(pl.candHigh+1, len(pl.candChunks))] {
			for k := range chunk {
				chunk[k].instr = nil
			}
		}
		pl.candHigh, pl.regionUsed = 0, false
	}
	pl.local.release()
}

// grown returns s resized to n elements, all zero. The backing array is
// reused when it is large enough.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeNoClear returns s resized to n elements, keeping existing
// elements (so e.g. HeightVals rows retain their allocated arrays).
func resizeNoClear[T any](s []T, n int) []T {
	if cap(s) < n {
		s2 := make([]T, n)
		copy(s2, s)
		return s2
	}
	return s[:n]
}

const candChunkSize = 128

func (pl *pipeline) resetCands() { pl.candChunk, pl.candUsed = 0, 0 }

// newCand hands out a candidate from the arena. Chunks are fixed-size so
// earlier pointers survive growth.
func (pl *pipeline) newCand() *candidate {
	if pl.candChunk < len(pl.candChunks) && pl.candUsed == candChunkSize {
		pl.candChunk++
		pl.candUsed = 0
	}
	if pl.candChunk == len(pl.candChunks) {
		pl.candChunks = append(pl.candChunks, make([]candidate, candChunkSize))
	}
	c := &pl.candChunks[pl.candChunk][pl.candUsed]
	pl.candUsed++
	pl.candHigh = max(pl.candHigh, pl.candChunk)
	return c
}

// resetLive starts a liveness scope. Its first query solves it from
// scratch, so edits made before the reset, or to another function, are
// never folded in.
func (pl *pipeline) resetLive() {
	pl.lv, pl.liveStale, pl.dirty = nil, false, pl.dirty[:0]
}

// noteEdit records that the instructions of block b changed.
func (pl *pipeline) noteEdit(b int) { pl.dirty = append(pl.dirty, b) }

// refreshLiveness marks a refresh point after a code motion; the update
// happens lazily at the next query. Several motions between two queries
// then cost one update instead of one each, and the values seen at every
// query are exactly those of an eager recomputation at the last refresh
// point.
func (pl *pipeline) refreshLiveness() { pl.liveStale = true }

// liveness returns the analysis of the scope (scope and base, as for
// ComputeScoped) as of the last refresh point.
func (pl *pipeline) liveness(f *ir.Func, g *cfg.Graph, scope []bool, base *dataflow.Liveness) *dataflow.Liveness {
	switch {
	case pl.lv == nil:
		pl.lv = pl.live.ComputeScoped(f, g, scope, base)
	case pl.liveStale:
		pl.lv = pl.live.Update(pl.dirty)
	default:
		return pl.lv // edits since the last refresh point wait for the next
	}
	pl.liveStale, pl.dirty = false, pl.dirty[:0]
	return pl.lv
}

// scheduleRegion schedules one region on this pipeline's arenas. scope
// and base carry the liveness scoping of region-parallel waves (nil for
// whole-function liveness); the caller resets the pipeline's liveness
// whenever they change. A region whose PDG cannot be built is skipped
// and counted; an error means scheduling could not finish.
func (pl *pipeline) scheduleRegion(f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region,
	opts *Options, st *Stats, scope []bool, base *dataflow.Liveness) error {

	pl.regionUsed = true
	donePDG := opts.Trace.TimePhase(PhasePDG)
	p, err := pdg.BuildWith(pl.ddgb, f, g, li, r, opts.Machine)
	donePDG()
	if err != nil {
		st.RegionsSkipped++
		return nil
	}
	n := f.NumInstrIDs()
	nb := len(f.Blocks)
	pl.scheduled = grown(pl.scheduled, n)
	pl.cycleOf = grown(pl.cycleOf, n)
	pl.blockOf = grown(pl.blockOf, n)
	pl.pos = regionPositions(pl.pos, f, r)
	pl.own = grown(pl.own, nb)
	pl.processed = grown(pl.processed, nb)
	pl.heights = resizeNoClear(pl.heights, nb)
	pl.heightStamp = resizeNoClear(pl.heightStamp, nb)
	pl.maxCP = resizeNoClear(pl.maxCP, nb)
	pl.maxCPStamp = resizeNoClear(pl.maxCPStamp, nb)
	rs := &regionScheduler{
		f: f, g: g, p: p, opts: opts, st: st, pl: pl,
		scheduled: pl.scheduled,
		cycleOf:   pl.cycleOf,
		blockOf:   pl.blockOf,
		pos:       pl.pos,
		own:       pl.own,
		processed: pl.processed,
		scope:     scope,
		liveBase:  base,
	}
	doneRun := opts.Trace.TimePhase(PhaseRegion)
	err = rs.run()
	doneRun()
	if err != nil {
		return err
	}
	// Duplication may have grown the ID-indexed tables; keep the larger
	// backing for the next region.
	pl.scheduled, pl.cycleOf, pl.blockOf, pl.pos = rs.scheduled, rs.cycleOf, rs.blockOf, rs.pos
	st.RegionsScheduled++
	return nil
}

// regionPositions fills pos (ID-indexed, resized as needed) with the
// rank of each of the region's instructions in the current layout, for
// the §5.2 final tie-break ("pick an instruction that occurred in the
// code first"). Ranks are region-relative: candidates compared in a
// session all live in the region, and region blocks are visited in
// layout order, so relative order — the only thing the tie-break reads —
// matches whole-function positions while never reading blocks outside
// the region (which a concurrent wave may be mutating).
func regionPositions(pos []int, f *ir.Func, r *cfg.Region) []int {
	pos = grown(pos, f.NumInstrIDs())
	n := 0
	for _, bi := range r.Blocks {
		for _, i := range f.Blocks[bi].Instrs {
			pos[i.ID] = n
			n++
		}
	}
	return pos
}

// ScheduleRegionTree schedules every region of the tree selected by keep
// (given the region and its nesting height), children before parents,
// honouring the size caps in opts. A region keep rejects is not
// counted; one over MaxRegionBlocks or MaxRegionInstrs, or whose PDG
// cannot be built, counts in RegionsSkipped.
//
// With opts.Parallelism > 1, top-level subtrees of the region tree are
// partitioned into groups with pairwise-disjoint register footprints and
// the groups are scheduled concurrently; the root region runs after all
// of them. Sequential runs use the identical partition and per-group
// scoped liveness, so the schedule is byte-identical at any parallelism
// setting.
func ScheduleRegionTree(ctx context.Context, f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo,
	opts *Options, st *Stats, keep func(r *cfg.Region, height int) bool) error {

	pl := getPipeline()
	defer putPipeline(pl)
	pl.resetLive()

	// scheduleOne applies the eligibility filters and size caps to one
	// region and schedules it on worker pipeline wpl.
	scheduleOne := func(wpl *pipeline, r *cfg.Region, wst *Stats, scope []bool, base *dataflow.Liveness) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: schedule cancelled: %w", err)
		}
		if !keep(r, r.Height) {
			return nil
		}
		if opts.MaxRegionBlocks > 0 && len(r.Blocks) > opts.MaxRegionBlocks {
			wst.RegionsSkipped++
			return nil
		}
		if opts.MaxRegionInstrs > 0 {
			n := 0
			for _, b := range r.Blocks {
				n += len(f.Blocks[b].Instrs)
			}
			if n > opts.MaxRegionInstrs {
				wst.RegionsSkipped++
				return nil
			}
		}
		return wpl.scheduleRegion(f, g, li, r, opts, wst, scope, base)
	}
	// scheduleSubtree schedules the regions of the tree rooted at r,
	// children first, sequentially.
	var scheduleSubtree func(wpl *pipeline, r *cfg.Region, wst *Stats, scope []bool, base *dataflow.Liveness) error
	scheduleSubtree = func(wpl *pipeline, r *cfg.Region, wst *Stats, scope []bool, base *dataflow.Liveness) error {
		for _, in := range r.Inner {
			if err := scheduleSubtree(wpl, in, wst, scope, base); err != nil {
				return err
			}
		}
		return scheduleOne(wpl, r, wst, scope, base)
	}

	subtrees := li.Root.Inner
	if len(subtrees) > 0 {
		comps := partitionSubtrees(f, subtrees)
		// The frozen liveness baseline every group's scoped analysis
		// hangs off (see dataflow.ComputeScoped). Computed before any
		// motion, on the walker's own pipeline, whose analyzer is not
		// reused until the root region's first query (pl.lv is still
		// nil, so that query solves the whole function afresh).
		base := pl.live.Compute(f, g)
		scopes := make([][]bool, len(comps))
		for ci, comp := range comps {
			scope := make([]bool, len(f.Blocks))
			for _, si := range comp {
				for _, b := range subtrees[si].Blocks {
					scope[b] = true
				}
			}
			scopes[ci] = scope
		}
		stats := make([]Stats, len(comps))
		errs := make([]error, len(comps))
		runFuncsParallel(len(comps), opts.Parallelism, func(ci int) {
			wpl := getPipeline()
			defer putPipeline(wpl)
			wpl.resetLive()
			for _, si := range comps[ci] {
				if errs[ci] = scheduleSubtree(wpl, subtrees[si], &stats[ci], scopes[ci], base); errs[ci] != nil {
					return
				}
			}
		})
		for ci := range comps {
			if errs[ci] != nil {
				return errs[ci]
			}
			st.Add(stats[ci])
		}
	}
	// The root region sees the whole function, so it runs alone with
	// unscoped liveness, after every subtree has settled.
	return scheduleOne(pl, li.Root, st, nil, nil)
}

// partitionSubtrees groups the top-level subtrees of the region tree
// into components whose register footprints are pairwise disjoint
// across components (union-find over touch-set intersection). Subtrees
// in different components cannot observe each other's motions through
// any liveness query the scheduler makes, so components are safe to
// schedule concurrently; within a component original sibling order is
// preserved. The grouping is a pure function of the untouched layout,
// so every parallelism setting sees the same partition.
func partitionSubtrees(f *ir.Func, subtrees []*cfg.Region) [][]int {
	k := len(subtrees)
	if k == 1 {
		return [][]int{{0}}
	}
	touch := make([]*dataflow.RegSet, k)
	var buf [8]ir.Reg
	for i, r := range subtrees {
		s := &dataflow.RegSet{}
		for _, bi := range r.Blocks {
			for _, ins := range f.Blocks[bi].Instrs {
				for _, rg := range ins.Uses(buf[:0]) {
					s.Add(rg)
				}
				for _, rg := range ins.Defs(buf[:0]) {
					s.Add(rg)
				}
			}
		}
		touch[i] = s
	}
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if find(i) != find(j) && touch[i].Intersects(touch[j]) {
				parent[find(j)] = find(i)
			}
		}
	}
	var comps [][]int
	compOf := make(map[int]int, k)
	for i := 0; i < k; i++ {
		root := find(i)
		ci, ok := compOf[root]
		if !ok {
			ci = len(comps)
			compOf[root] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], i)
	}
	return comps
}
