package core

import (
	"fmt"
	"slices"
	"strings"

	"gsched/internal/cfg"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
	"gsched/internal/pdg"
	"gsched/internal/policy"
)

// homeOf locates the block an instruction currently lives in (debugging).
func (rs *regionScheduler) homeOf(i *ir.Instr) int {
	for bi, b := range rs.f.Blocks {
		for _, in := range b.Instrs {
			if in == i {
				return bi
			}
		}
	}
	return -1
}

// candidate describes one instruction considered for scheduling into the
// current block.
type candidate struct {
	instr *ir.Instr
	home  int     // block index the instruction currently lives in
	spec  bool    // true when scheduling it here is speculative
	dup   bool    // true when scheduling it here requires duplication
	pos   int     // original program position, for the final tie-break
	d, cp int     // §5.2 heuristics, computed in the home block
	prob  float64 // execution probability of home given the target (1 without profile)

	// feat is the policy feature vector, filled only when a policy is
	// installed (Options.Policy); otherwise it stays zero and costs
	// nothing beyond its arena footprint.
	feat policy.Features
}

// class ranks the §5.2 candidate classes: useful before speculative
// before duplication (the paper's conservative ordering in §1).
func (c *candidate) class() int {
	switch {
	case c.dup:
		return 2
	case c.spec:
		return 1
	}
	return 0
}

// regionScheduler carries the state of scheduling one region. All of
// its tables are borrowed from the pipeline pl, so back-to-back regions
// on one worker reuse the same memory.
type regionScheduler struct {
	f    *ir.Func
	g    *cfg.Graph
	p    *pdg.PDG
	opts *Options
	st   *Stats
	pl   *pipeline

	// scheduled marks instruction IDs placed at their final position.
	// All per-instruction state is dense, indexed by instruction ID
	// (bounded by f.NumInstrIDs(), grown by ensureID when duplication
	// clones instructions mid-region).
	scheduled []bool
	// cycleOf/blockOf record the session cycle and final block of
	// scheduled instructions (cycleOf only meaningful within the
	// session that placed them).
	cycleOf []int
	blockOf []int
	// pos is the region-relative program position of every instruction.
	pos []int
	// own marks the region's own blocks (not part of any nested
	// region), indexed by block. Only they run sessions and only they
	// contribute candidates: instructions never move in or out of a
	// region.
	own []bool
	// scope and liveBase restrict liveness to the scope's blocks
	// against the frozen baseline liveBase (region-parallel waves; see
	// ScheduleRegionTree). Both are nil for whole-function liveness.
	scope    []bool
	liveBase *dataflow.Liveness
	// processed marks blocks whose sessions have completed (or that
	// were pinned and passed) in this region walk, indexed by block.
	processed []bool
}

// ensureID grows the per-instruction tables to cover id (needed when
// duplication clones instructions after the tables were sized).
func (rs *regionScheduler) ensureID(id int) {
	for id >= len(rs.scheduled) {
		rs.scheduled = append(rs.scheduled, false)
		rs.cycleOf = append(rs.cycleOf, 0)
		rs.blockOf = append(rs.blockOf, 0)
		rs.pos = append(rs.pos, 0)
	}
}

// run schedules every own block of the region in topological order. An
// error is internal: a session that cannot finish on malformed IR.
func (rs *regionScheduler) run() error {
	// Own blocks = the region's blocks minus every nested region's,
	// marked in place (OwnBlocks would allocate a map and slice per
	// region).
	for _, b := range rs.p.Region.Blocks {
		rs.own[b] = true
	}
	for _, in := range rs.p.Region.Inner {
		for _, b := range in.Blocks {
			rs.own[b] = false
		}
	}
	for _, a := range rs.p.Topo {
		// Mark instructions of pinned (nested-region) blocks as
		// externally complete once passed in topological order; their
		// own sessions never run.
		if !rs.own[a] {
			for _, i := range rs.f.Blocks[a].Instrs {
				rs.scheduled[i.ID] = true
				rs.blockOf[i.ID] = a
				rs.cycleOf[i.ID] = -1
			}
			rs.processed[a] = true
			continue
		}
		if err := rs.scheduleBlock(a); err != nil {
			return err
		}
		rs.processed[a] = true
	}
	return nil
}

// heightsOf returns the §5.2 priority values (D, CP) of block b's
// instructions, computed once per session and cached on the pipeline.
// Stale cache rows from earlier sessions, regions, or functions can
// never match: the stamp only ever increases.
func (rs *regionScheduler) heightsOf(b int) *pdg.HeightVals {
	pl := rs.pl
	h := &pl.heights[b]
	if pl.heightStamp[b] != pl.stamp {
		pdg.HeightsInto(h, rs.f.Blocks[b], rs.p.DDG, rs.opts.Machine)
		pl.heightStamp[b] = pl.stamp
	}
	return h
}

// gatherCandidates builds the candidate instruction list for block a
// (§5.1's candidate blocks and candidate instructions). Candidates live
// in the pipeline's chunked arena; the returned slice (also pooled) is
// valid until the next session on the same pipeline.
func (rs *regionScheduler) gatherCandidates(a int) []*candidate {
	pl := rs.pl
	pl.stamp++
	pl.resetCands()
	cands := pl.cands[:0]
	pol := rs.opts.Policy
	// specDepth is the Definition-7 degree each speculative candidate
	// block first appears at, for the policy specdeg feature. Zero
	// stays "not speculative"; it is only filled when a policy asks
	// for features and the degree exceeds one.
	var specDepth map[int]int
	// add takes i, the k-th instruction of block home.
	add := func(i *ir.Instr, k, home int, spec, dup bool, prob float64) {
		h := rs.heightsOf(home)
		c := pl.newCand()
		*c = candidate{
			instr: i, home: home, spec: spec, dup: dup, prob: prob,
			pos: rs.pos[i.ID], d: h.D(k), cp: h.CP(k),
		}
		if pol != nil {
			deg := 0
			if spec {
				if deg = specDepth[home]; deg == 0 {
					deg = 1
				}
			}
			rs.fillFeatures(c, deg)
			// The gate only ever drops candidates for motion into a —
			// never a block's own instructions — so any gate is legal.
			if (spec || dup) && !pol.Gate(&c.feat) {
				pl.candUsed-- // return the untouched arena slot
				return
			}
		}
		cands = append(cands, c)
	}
	// The block's own instructions, including its terminator.
	for k, i := range rs.f.Blocks[a].Instrs {
		add(i, k, a, false, false, 1)
	}
	// Useful candidates: bodies of EQUIV(a), minus never-moving
	// instructions (calls, branches). Blocks of nested regions never
	// contribute: their instructions must not leave their region.
	for _, b := range rs.p.Equiv(a) {
		if !rs.own[b] {
			continue
		}
		for k, i := range rs.f.Blocks[b].Instrs {
			if !i.Op.NeverMoves() {
				add(i, k, b, false, false, 1)
			}
		}
	}
	// Speculative candidates up to the configured degree.
	if rs.opts.Level >= LevelSpeculative {
		degree := rs.opts.SpecDegree
		if degree < 1 {
			degree = 1
		}
		if pol != nil && degree > 1 {
			specDepth = make(map[int]int)
			for n := 1; n <= degree; n++ {
				for _, b := range rs.p.SpecCandidatesN(a, n) {
					if _, ok := specDepth[b]; !ok {
						specDepth[b] = n
					}
				}
			}
		}
		for _, b := range rs.p.SpecCandidatesN(a, degree) {
			if !rs.own[b] {
				continue
			}
			prob := 1.0
			if rs.opts.Profile != nil {
				prob = rs.p.ExecProb(a, b, func(t *ir.Instr) float64 {
					return rs.opts.Profile.Branch(rs.f.Name, t.ID).TakenProb()
				})
				if prob < rs.opts.MinSpecProb {
					continue // gambling against the odds
				}
			}
			for k, i := range rs.f.Blocks[b].Instrs {
				if i.Op.NeverMoves() || i.Op.NeverSpeculates() {
					continue
				}
				if i.Op.IsLoad() && !rs.opts.SpeculateLoads {
					continue
				}
				add(i, k, b, true, false, prob)
			}
		}
	}
	// Duplication candidates (Definition 6): join blocks directly below
	// a whose every predecessor can host a copy. The copy placed in a
	// fills its delay slots; the other predecessors get end-of-block
	// copies at pick time.
	if rs.opts.Duplicate && rs.opts.Level >= LevelSpeculative {
		for _, b := range rs.dupJoinsBelow(a) {
			for k, i := range rs.f.Blocks[b].Instrs {
				if i.Op.NeverMoves() || i.Op.NeverSpeculates() {
					continue
				}
				if i.Op.IsLoad() && !rs.opts.SpeculateLoads {
					continue
				}
				add(i, k, b, false, true, 1)
			}
		}
	}
	pl.cands = cands
	return cands
}

// fillFeatures populates the candidate's policy feature vector (zeroed
// by the caller) from the state gatherCandidates already has at hand.
// specdeg is the Definition-7 degree of a speculative candidate (0
// otherwise).
func (rs *regionScheduler) fillFeatures(c *candidate, specdeg int) {
	f := &c.feat
	f[policy.FeatD] = float64(c.d)
	f[policy.FeatCP] = float64(c.cp)
	f[policy.FeatSlack] = rs.maxCPOf(c.home) - float64(c.cp)
	f[policy.FeatPos] = float64(c.pos)
	if c.spec {
		f[policy.FeatSpec] = 1
	}
	if c.dup {
		f[policy.FeatDup] = 1
	}
	f[policy.FeatClass] = float64(c.class())
	f[policy.FeatProb] = c.prob
	f[policy.FeatExec] = float64(rs.opts.Machine.Exec(c.instr.Op))
	f[policy.FeatFanin] = float64(len(rs.p.DDG.PredsOf(c.instr.ID)))
	f[policy.FeatFanout] = float64(len(rs.p.DDG.SuccsOf(c.instr.ID)))
	if c.instr.Op.IsLoad() {
		f[policy.FeatIsLoad] = 1
	}
	if c.instr.Op.IsStore() {
		f[policy.FeatIsStore] = 1
	}
	if c.instr.Op.IsBranch() {
		f[policy.FeatIsBranch] = 1
	}
	if c.instr.Op.IsFloat() {
		f[policy.FeatIsFloat] = 1
	}
	f[policy.FeatSpecDeg] = float64(specdeg)
}

// maxCPOf returns the maximum critical-path height in block b, cached
// per session alongside the heights (the baseline of the policy slack
// feature).
func (rs *regionScheduler) maxCPOf(b int) float64 {
	pl := rs.pl
	if pl.maxCPStamp[b] != pl.stamp {
		h := rs.heightsOf(b)
		m := 0
		for k := range rs.f.Blocks[b].Instrs {
			m = max(m, h.CP(k))
		}
		pl.maxCP[b] = m
		pl.maxCPStamp[b] = pl.stamp
	}
	return float64(pl.maxCP[b])
}

// dupJoinsBelow lists the CFG successors of a that qualify for
// duplication: own blocks with at least two predecessors, all of them
// own blocks too, none reaching b twice via a (a itself must be a direct
// predecessor so its copy covers exactly the paths through a).
func (rs *regionScheduler) dupJoinsBelow(a int) []int {
	out := rs.pl.dupJoins[:0]
	defer func() { rs.pl.dupJoins = out[:0] }()
	for _, b := range rs.g.Succs[a] {
		if b == a || !rs.own[b] || !rs.p.Region.Contains(b) {
			continue
		}
		if rs.p.Equivalent(a, b) {
			continue // useful candidates already cover it
		}
		preds := rs.g.Preds[b]
		if len(preds) < 2 {
			continue
		}
		ok := true
		for _, p := range preds {
			if !rs.own[p] || !rs.p.Region.Contains(p) {
				ok = false // copies may not cross region boundaries
				break
			}
			if rs.p.Dom.Dominates(b, p) {
				// p -> b is a back edge (b dominates p), so b is a loop
				// header — a copy in p would execute downstream of the
				// join it must cover, once per iteration instead of
				// once per entry. Not a Definition-6 shape.
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// allowDuplicate applies the duplication legality checks at pick time:
// for every predecessor P of the join, the instruction's definitions must
// not be consumed by P's terminator nor be live into any other successor
// of P (the copy turns speculative on those paths).
func (rs *regionScheduler) allowDuplicate(a int, join int, i *ir.Instr) bool {
	var defs [2]ir.Reg
	ds := i.Defs(defs[:0])
	live := rs.liveness()
	for _, p := range rs.g.Preds[join] {
		pb := rs.f.Blocks[p]
		if t := pb.Terminator(); t != nil {
			for _, r := range ds {
				if t.UsesReg(r) {
					return false
				}
			}
		}
		for _, s := range rs.g.Succs[p] {
			if s == join {
				continue
			}
			for _, r := range ds {
				if live.In[s].Has(r) {
					return false
				}
			}
		}
	}
	return true
}

// viability removes candidates that transitively depend on instructions
// that are neither already scheduled nor themselves viable candidates
// (e.g. a definition in an intervening block that is processed later).
// The block's own instructions are always viable: their predecessors are
// in the block itself or in topologically earlier blocks.
func (rs *regionScheduler) viability(a int, cands []*candidate) []*candidate {
	rs.pl.viable = grown(rs.pl.viable, rs.f.NumInstrIDs())
	viable := rs.pl.viable
	for _, c := range cands {
		viable[c.instr.ID] = c
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			id := c.instr.ID
			if viable[id] == nil || c.home == a {
				continue
			}
			ok := true
			for _, e := range rs.p.DDG.PredsOf(id) {
				p := e.From.ID
				if p < len(rs.scheduled) && rs.scheduled[p] {
					continue
				}
				if p < len(viable) && viable[p] != nil {
					continue
				}
				ok = false
				break
			}
			if !ok {
				viable[id] = nil
				changed = true
			}
		}
	}
	out := cands[:0]
	for _, c := range cands {
		if viable[c.instr.ID] != nil {
			out = append(out, c)
		}
	}
	return out
}

// better implements the §5.2 decision order between two ready candidates:
// useful before speculative, bigger D, bigger CP, then original order.
// With a profile, a clearly more probable speculative candidate wins
// before the heuristics (the paper's branch-probability remark in §1).
func better(x, y *candidate) bool {
	return compareCandidates(x, y) < 0
}

// compareCandidates is the three-way form of better, suitable for
// slices.SortFunc: negative when x should be tried before y.
func compareCandidates(x, y *candidate) int {
	if cx, cy := x.class(), y.class(); cx != cy {
		return cx - cy
	}
	if x.spec && (x.prob-y.prob > 0.25 || y.prob-x.prob > 0.25) {
		if x.prob > y.prob {
			return -1
		}
		return 1
	}
	if x.d != y.d {
		return y.d - x.d
	}
	if x.cp != y.cp {
		return y.cp - x.cp
	}
	return x.pos - y.pos
}

// scheduleBlock runs one cycle-driven scheduling session for block a.
func (rs *regionScheduler) scheduleBlock(a int) error {
	blk := rs.f.Blocks[a]
	term := blk.Terminator()
	ownLeft := 0
	for range blk.Instrs {
		ownLeft++
	}
	cands := rs.viability(a, rs.gatherCandidates(a))

	// The ready-list order: the built-in §5.2 comparator, or the
	// installed policy's priority expression over the feature vectors
	// gatherCandidates filled in.
	cmp := compareCandidates
	if pol := rs.opts.Policy; pol != nil && pol.HasPriority() {
		cmp = func(x, y *candidate) int { return pol.Compare(&x.feat, &y.feat, x.pos, y.pos) }
	}

	// done marks instructions placed in this session. Duplication can
	// clone instructions mid-session; clone IDs fall outside the table
	// and are never session-placed, so out-of-range reads are false.
	rs.pl.done = grown(rs.pl.done, rs.f.NumInstrIDs())
	done := rs.pl.done
	isDone := func(id int) bool { return id < len(done) && done[id] }
	newOrder := rs.pl.newOrder[:0]
	movedSomething := false

	// earliest returns the first cycle the candidate may start, or -1
	// if some predecessor is not scheduled yet.
	earliest := func(c *candidate) int {
		at := 0
		for _, e := range rs.p.DDG.PredsOf(c.instr.ID) {
			pid := e.From.ID
			if isDone(pid) {
				// Scheduled within this session.
				t := rs.cycleOf[pid] + rs.opts.Machine.Exec(e.From.Op) + e.Delay
				if t > at {
					at = t
				}
				continue
			}
			if pid < len(rs.scheduled) && rs.scheduled[pid] {
				continue // completed in an earlier block
			}
			return -1
		}
		return at
	}

	// A session on well-formed IR places something at least once every
	// stallLimit cycles (see ScheduleBlockLocalPolicy); idle counts the
	// cycles since the last placement.
	cycle, idle, limit := 0, 0, stallLimit(rs.opts.Machine)
	for {
		if term != nil {
			if done[term.ID] {
				break
			}
		} else if ownLeft == 0 {
			break
		}
		if idle > limit {
			var stuck []string
			for _, c := range cands {
				if done[c.instr.ID] || c.home != a {
					continue
				}
				msg := fmt.Sprintf("own %s (id %d) waits on:", c.instr, c.instr.ID)
				for _, e := range rs.p.DDG.PredsOf(c.instr.ID) {
					if !isDone(e.From.ID) && !rs.scheduled[e.From.ID] {
						msg += fmt.Sprintf(" [%s id %d in BL%d kind %s]",
							e.From, e.From.ID, rs.homeOf(e.From), e.Kind)
					}
				}
				stuck = append(stuck, msg)
			}
			return fmt.Errorf("core: scheduling session for block %d did not converge:\n%s",
				a, strings.Join(stuck, "\n"))
		}

		// Collect candidates ready this cycle.
		ready := rs.pl.ready[:0]
		for _, c := range cands {
			if done[c.instr.ID] {
				continue
			}
			// The terminator goes last: eligible only when every other
			// own instruction has been scheduled.
			if c.instr == term && ownLeft > 1 {
				continue
			}
			if at := earliest(c); at >= 0 && at <= cycle {
				ready = append(ready, c)
			}
		}
		slices.SortFunc(ready, cmp)

		var unitsUsed [8]int
		idle++

		var termPick *candidate
		for _, c := range ready {
			if done[c.instr.ID] {
				continue
			}
			t := c.instr.Op.Unit()
			if unitsUsed[t] >= rs.opts.Machine.NumUnits[t] {
				continue
			}
			if c.instr == term {
				// The terminator must be the last instruction of the
				// block: reserve its unit now but append it after the
				// round's other picks.
				unitsUsed[t]++
				termPick = c

				continue
			}
			if c.spec && !rs.allowSpeculative(a, c.instr) {
				continue
			}
			if c.dup && !rs.allowDuplicate(a, c.home, c.instr) {
				continue
			}
			// Place the instruction.
			unitsUsed[t]++
			idle = 0

			done[c.instr.ID] = true
			rs.scheduled[c.instr.ID] = true
			rs.cycleOf[c.instr.ID] = cycle
			rs.blockOf[c.instr.ID] = a
			newOrder = append(newOrder, c.instr)
			if c.home == a {
				ownLeft--
			} else {
				// Physically move it now so liveness updates see it.
				rs.f.Blocks[c.home].Remove(c.instr)
				rs.pl.noteEdit(c.home)
				insertBeforeTerminator(blk, c.instr)
				rs.pl.noteEdit(a)
				movedSomething = true
				switch {
				case c.dup:
					rs.duplicateIntoPreds(a, c)
					rs.st.DuplicatedMoves++
					rs.pl.refreshLiveness()
				case c.spec:
					rs.st.SpeculativeMoves++
					rs.pl.refreshLiveness()
				default:
					rs.st.UsefulMoves++
				}
			}
		}
		if termPick != nil {
			idle = 0
			done[term.ID] = true
			rs.scheduled[term.ID] = true
			rs.cycleOf[term.ID] = cycle
			rs.blockOf[term.ID] = a
			newOrder = append(newOrder, term)
			ownLeft--
		}
		rs.pl.ready = ready
		cycle++
	}

	// newOrder is pooled scratch: copy it into the block's own backing
	// (same length — every own and moved-in instruction was physically
	// placed — so this never allocates).
	blk.Instrs = append(blk.Instrs[:0], newOrder...)
	rs.pl.newOrder = newOrder
	if movedSomething {
		rs.pl.refreshLiveness()
	}
	return nil
}

// duplicateIntoPreds places copies of a duplicated instruction at the
// end of every predecessor of the join except the session's block, then
// rebuilds the dependence graph so later sessions see the copies.
func (rs *regionScheduler) duplicateIntoPreds(a int, c *candidate) {
	for _, p := range rs.g.Preds[c.home] {
		if p == a {
			continue
		}
		clone := rs.f.CloneInstr(c.instr)
		insertBeforeTerminator(rs.f.Blocks[p], clone)
		rs.pl.noteEdit(p)
		rs.ensureID(clone.ID)
		rs.pos[clone.ID] = rs.pos[c.instr.ID]
		if rs.processed[p] {
			// The host block's session already ran; the copy counts as
			// complete for every later dependence check.
			rs.scheduled[clone.ID] = true
			rs.blockOf[clone.ID] = p
			rs.cycleOf[clone.ID] = -1
		}
	}
	rs.p.RebuildDDG(rs.opts.Machine)
}

// allowSpeculative applies the §5.3 rule: a speculative instruction must
// not define a register that is live on exit from the target block.
func (rs *regionScheduler) allowSpeculative(a int, i *ir.Instr) bool {
	var defs [2]ir.Reg
	for _, r := range i.Defs(defs[:0]) {
		if rs.liveness().LiveOnExit(a, r) {
			return false
		}
	}
	return true
}

// liveCheck, when set (by tests only), is called with every liveness
// answer given with no edit pending, which must equal a fresh
// ComputeScoped over the region's scope.
var liveCheck func(f *ir.Func, g *cfg.Graph, scope []bool, base, got *dataflow.Liveness)

func (rs *regionScheduler) liveness() *dataflow.Liveness {
	lv := rs.pl.liveness(rs.f, rs.g, rs.scope, rs.liveBase)
	if liveCheck != nil && len(rs.pl.dirty) == 0 {
		liveCheck(rs.f, rs.g, rs.scope, rs.liveBase, lv)
	}
	return lv
}

// insertBeforeTerminator appends i to blk, keeping the terminator last.
func insertBeforeTerminator(blk *ir.Block, i *ir.Instr) {
	if t := blk.Terminator(); t != nil {
		blk.Instrs = append(blk.Instrs[:len(blk.Instrs)-1], i, t)
	} else {
		blk.Instrs = append(blk.Instrs, i)
	}
}
