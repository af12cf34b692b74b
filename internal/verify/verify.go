// Package verify is an independent static legality checker for global
// instruction scheduling. It snapshots a function before scheduling and
// afterwards re-derives, from the ir alone, everything needed to decide
// whether the schedule is legal under the rules of §3 of the paper:
//
//   - every instruction is accounted for — none lost, none appearing
//     twice, none altered, terminators still terminate their blocks;
//   - every data dependence (flow/anti/output on registers, conservative
//     memory disambiguation) still executes in order on every path;
//   - every cross-block motion is classified and validated: useful
//     motion only between equivalent blocks (Definitions 3–5),
//     speculative motion within the configured branch depth and never an
//     instruction that stores, calls or may fault (Definition 7), with
//     the §5.3 rule that the moved definition must not clobber a
//     register observed on off-paths; duplicated motion must cover every
//     predecessor of the join exactly once (Definition 6);
//   - no instruction changes its loop (region) membership.
//
// The verifier shares no analysis code with internal/pdg or internal/cfg:
// dominators, postdominators, control dependences and natural loops are
// derived here from first principles, and the dependence relation from
// the §4.2 pair rule of internal/schedmodel, which the other oracles
// read too. So it serves as a second, independent oracle next to
// differential simulation.
package verify

import (
	"fmt"
	"slices"
	"strings"

	"gsched/internal/ir"
	"gsched/internal/schedmodel"
)

// Rules configures which motions the checked schedule was allowed to
// perform; it mirrors the scheduling options the transformation ran
// under.
type Rules struct {
	// CrossBlock permits cross-block motion at all (false for pure
	// basic-block scheduling).
	CrossBlock bool
	// MaxSpecDepth is the maximum number of conditional branches a
	// speculative motion may gamble on (0 disables speculation).
	MaxSpecDepth int
	// SpeculateLoads permits loads to move speculatively.
	SpeculateLoads bool
	// AllowDuplication permits motion with duplication into join
	// predecessors.
	AllowDuplication bool
}

// violation describes one broken legality rule with enough context to
// debug it: the rule, the instruction, and the blocks/edge involved.
type violation struct {
	Func  string
	Rule  string
	ID    int    // instruction ID, -1 when not instruction-specific
	Instr string // rendered instruction, "" when not instruction-specific
	Msg   string
}

func (v violation) String() string {
	if v.ID >= 0 {
		return fmt.Sprintf("%s: [%s] id %d %q: %s", v.Func, v.Rule, v.ID, v.Instr, v.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", v.Func, v.Rule, v.Msg)
}

// checkError aggregates every violation found in one function.
type checkError struct {
	Violations []violation
}

func (e *checkError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s)", len(e.Violations))
	for i, v := range e.Violations {
		if i == 12 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// place locates an instruction: block index and position within it.
type place struct{ block, pos int }

// absent marks an ID-indexed place slot that holds no instruction.
var absent = place{-1, -1}

// snapshot is a deep copy of a function's instruction layout taken
// before scheduling. Scheduling moves instructions but never blocks, so
// the snapshot and the scheduled function share one flow graph. Its
// storage is reused by the next capture.
type snapshot struct {
	funcName string
	labels   []string
	order    [][]int     // instruction IDs per block, in pre-schedule order
	instrs   []*ir.Instr // instruction ID -> copy, nil for IDs not in the snapshot
	home     []place     // instruction ID -> pre-schedule location
	ids      []int       // instruction IDs in the snapshot, ascending

	// Backing storage of order and of the copies.
	idSlab   []int
	clones   []ir.Instr
	mems     []ir.Mem
	callArgs []ir.Reg
}

// Verifier checks the schedule of one function against the layout
// Capture recorded before scheduling. It keeps the snapshot, the
// checker's tables and the flow analysis' rows from call to call, so
// once they have grown to the largest function seen, Capture allocates
// nothing and Check allocates nothing for a legal schedule: only a
// violation report, and the copies a duplicating schedule's extra
// instructions need, allocate. A Verifier holds no reference to a
// checked function after Check returns. It serves one goroutine at a
// time; the zero value is ready to use.
type Verifier struct {
	snap snapshot
	c    checker
}

// Capture records the current layout of f, replacing the previous
// capture.
func (v *Verifier) Capture(f *ir.Func) {
	s := &v.snap
	s.funcName = f.Name
	s.labels = zeroed(s.labels, len(f.Blocks))
	s.order = zeroed(s.order, len(f.Blocks))
	size, count, mems, args := f.NumInstrIDs(), 0, 0, 0
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			size = max(size, ins.ID+1)
			count++
			if ins.Mem != nil {
				mems++
			}
			args += len(ins.CallArgs)
		}
	}
	s.instrs = zeroed(s.instrs, size)
	s.home = zeroed(s.home, size)
	s.clones = zeroed(s.clones, count)
	s.mems = zeroed(s.mems, mems)
	s.callArgs = zeroed(s.callArgs, args)
	s.idSlab = zeroed(s.idSlab, count)
	clones, memClones, callArgs, ids := s.clones, s.mems, s.callArgs, s.idSlab
	for bi, b := range f.Blocks {
		s.labels[bi] = b.Label
		s.order[bi], ids = ids[:len(b.Instrs):len(b.Instrs)], ids[len(b.Instrs):]
		for pi, ins := range b.Instrs {
			s.order[bi][pi] = ins.ID
			c := &clones[0]
			clones = clones[1:]
			*c = *ins
			if ins.Mem != nil {
				memClones[0] = *ins.Mem
				c.Mem, memClones = &memClones[0], memClones[1:]
			}
			if ins.CallArgs != nil {
				n := len(ins.CallArgs)
				c.CallArgs, callArgs = callArgs[:n:n], callArgs[n:]
				copy(c.CallArgs, ins.CallArgs)
			}
			s.instrs[ins.ID] = c
			s.home[ins.ID] = place{bi, pi}
		}
	}
	s.ids = s.ids[:0]
	for id, ins := range s.instrs {
		if ins != nil {
			s.ids = append(s.ids, id)
		}
	}
}

// instr returns the snapshot copy of instruction id, nil when the
// snapshot has none.
func (s *snapshot) instr(id int) *ir.Instr {
	if id < len(s.instrs) {
		return s.instrs[id]
	}
	return nil
}

// Check validates the scheduled function f against the layout the last
// Capture recorded, under the given rules. It returns nil for a legal
// schedule and a *checkError listing every violation otherwise.
//
// With B blocks, N instructions, D dependent instruction pairs (sharing
// a register written by one of them, or a store or call and a memory
// access that may alias) and M cross-block motions, a check costs
// O(B²/64 + N + D + M·(B + occurrences of the moved register)): the
// flow analysis works on block bitsets, dependences are enumerated from
// per-register occurrence lists instead of all instruction pairs, and
// each motion's §5.3 liveness visits only the blocks that mention or
// reach its register. Only a check that finds a dependence violation
// pays O(D log D) more, to report violations in the order of a sweep
// over all instruction pairs. When nothing left its block (no extra
// instructions, every surviving one in its home block, as after a
// basic-block pass) only dependence order within each block can be
// broken, and the check is O(N + same-block D) with no flow analysis.
// Registers must lie below ir.MaxRegs, as ir.(*Func).Validate ensures.
func (v *Verifier) Check(f *ir.Func, rules Rules) error {
	c := &v.c
	c.reset(&v.snap, f, rules)
	defer c.release()
	if !c.structure() {
		return c.result()
	}
	c.accounting()
	if !c.buildIndex() {
		return c.result()
	}
	if !c.blockLocal {
		c.needAnalysis()
		c.motions()
	}
	c.depOrder()
	return c.result()
}

type checker struct {
	snap  *snapshot
	f     *ir.Func
	rules Rules
	an    *analysis // nil until needAnalysis, then &anStore

	// blockLocal records that no extra instruction appeared and every
	// surviving instruction sits in its home block: no motion happened,
	// and only dependence order within blocks can be broken.
	blockLocal bool

	// Dense tables indexed by instruction ID, covering the snapshot's
	// and the scheduled function's IDs.
	final      []place     // scheduled location, absent when not scheduled
	finalInstr []*ir.Instr // scheduled instruction
	origin     []int       // duplicate copy -> snapshot ID it copies, -1 otherwise
	placements [][]place   // snapshot ID -> original + copy locations
	dupGroup   []bool      // snapshot IDs verified as duplication groups

	sum  []summary // snapshot ID -> dependence summary
	idx  depIndex
	deps []schedmodel.Dep // scratch for checkPair

	// Scratch for offPathLive, indexed by block.
	liveIn, kill []bool
	work         []int32

	vs []violation

	// Storage kept between checks.
	anStore                analysis
	extras                 []int
	bySig                  map[string][]int
	regs                   []ir.Reg
	ms                     []mention
	next                   []int32
	cands                  []candidate
	predSet, cover, doneAt []bool
}

// reset prepares c to check f against snap, reusing its storage.
func (c *checker) reset(snap *snapshot, f *ir.Func, rules Rules) {
	c.snap, c.f, c.rules, c.an = snap, f, rules, nil
	c.vs = c.vs[:0]
	c.liveIn = zeroed(c.liveIn, len(snap.order))
	c.kill = zeroed(c.kill, len(snap.order))
}

// release drops c's references to the checked function, so a kept
// Verifier does not keep it reachable.
func (c *checker) release() {
	c.f = nil
	clear(c.finalInstr)
}

func (c *checker) violate(rule string, ins *ir.Instr, format string, args ...interface{}) {
	v := violation{Func: c.snap.funcName, Rule: rule, ID: -1, Msg: fmt.Sprintf(format, args...)}
	if ins != nil {
		v.ID = ins.ID
		v.Instr = ins.String()
	}
	c.vs = append(c.vs, v)
}

// needAnalysis computes the flow analysis on first use. Scheduling
// moves instructions but never blocks, so the scheduled function's
// shape serves the snapshot too.
func (c *checker) needAnalysis() {
	if c.an == nil {
		c.an = &c.anStore
		c.an.fill(c.f)
	}
}

// result reports the violations found, in a slice of their own: c's
// is reused by the next check.
func (c *checker) result() error {
	if len(c.vs) == 0 {
		return nil
	}
	return &checkError{Violations: slices.Clone(c.vs)}
}

// structure checks that the block skeleton is untouched: scheduling may
// only permute and move instructions, never blocks. Returns false when
// the skeletons are incomparable and no further checking is possible.
func (c *checker) structure() bool {
	if c.f.Name != c.snap.funcName {
		c.violate("structure", nil, "function %q checked against snapshot of %q", c.f.Name, c.snap.funcName)
		return false
	}
	if len(c.f.Blocks) != len(c.snap.labels) {
		c.violate("structure", nil, "block count changed: %d -> %d", len(c.snap.labels), len(c.f.Blocks))
		return false
	}
	for bi, b := range c.f.Blocks {
		if b.Label != c.snap.labels[bi] {
			c.violate("structure", nil, "block %d label changed: %q -> %q", bi, c.snap.labels[bi], b.Label)
			return false
		}
	}
	return true
}

// accounting indexes the scheduled layout, pairs every surviving
// instruction with its snapshot, matches extra instructions to the
// originals they duplicate, and checks that terminators stayed put.
func (c *checker) accounting() {
	size := len(c.snap.instrs)
	for _, b := range c.f.Blocks {
		for _, ins := range b.Instrs {
			size = max(size, ins.ID+1)
		}
	}
	c.final = zeroed(c.final, size)
	for i := range c.final {
		c.final[i] = absent
	}
	c.finalInstr = zeroed(c.finalInstr, size)
	c.origin = zeroed(c.origin, size)
	c.placements = zeroed(c.placements, size)
	c.dupGroup = zeroed(c.dupGroup, size)

	for bi, b := range c.f.Blocks {
		for pi, ins := range b.Instrs {
			if prev := c.final[ins.ID]; prev != absent {
				c.violate("accounting", ins, "instruction ID appears twice (blocks %d and %d)", prev.block, bi)
				continue
			}
			c.final[ins.ID] = place{bi, pi}
			c.finalInstr[ins.ID] = ins
		}
	}
	c.blockLocal = true
	for _, id := range c.snap.ids {
		switch fin := c.final[id]; {
		case fin == absent:
			c.violate("accounting", c.snap.instrs[id], "instruction lost by scheduling")
		case fin.block != c.snap.home[id].block:
			c.blockLocal = false
		}
	}
	extras := c.extras[:0] // ascending
	for id, ins := range c.finalInstr {
		c.origin[id] = -1
		if ins == nil {
			continue
		}
		if s := c.snap.instr(id); s != nil {
			if !sameInstr(s, ins) {
				c.violate("accounting", s, "instruction altered by scheduling: now %q", ins.String())
			}
			// A one-element window on final: only duplication groups
			// grow past it (and then copy).
			c.placements[id] = c.final[id : id+1 : id+1]
		} else {
			extras = append(extras, id)
		}
	}
	c.extras = extras
	bySig := c.bySig
	clear(bySig)
	if len(extras) > 0 {
		c.blockLocal = false
		c.needAnalysis() // for matchScore
		if bySig == nil {
			bySig = make(map[string][]int)
			c.bySig = bySig
		}
		for _, id := range c.snap.ids {
			s := c.snap.instrs[id].String()
			bySig[s] = append(bySig[s], id) // sorted-id order: deterministic
		}
	}
	for _, e := range extras {
		ins := c.finalInstr[e]
		// Several snapshot instructions can share a printed form (loop
		// unrolling clones whole bodies), so score each candidate by how
		// well it fits the duplication shape instead of taking the first
		// textual match: only an original whose home is a join can have
		// copies at all, and a true copy sits in a predecessor of that
		// join (or strictly upstream, when a later session hoisted it).
		best, bestScore := -1, 0
		for _, cand := range bySig[ins.String()] {
			if c.final[cand] == absent {
				continue // the original itself was lost; do not pair
			}
			if s := c.matchScore(e, cand); s > bestScore {
				best, bestScore = cand, s
			}
		}
		if best < 0 {
			c.violate("accounting", ins, "unknown instruction introduced by scheduling")
			continue
		}
		c.origin[e] = best
		c.placements[best] = append(c.placements[best], c.final[e])
	}
	// Terminators stay the last instruction of their block.
	for bi, b := range c.f.Blocks {
		snapTerm, finalTerm := -1, -1
		if ids := c.snap.order[bi]; len(ids) > 0 {
			if last := c.snap.instrs[ids[len(ids)-1]]; last.Op.IsTerminator() {
				snapTerm = last.ID
			}
		}
		if t := b.Terminator(); t != nil {
			finalTerm = t.ID
		}
		if snapTerm != finalTerm {
			c.violate("terminator", nil, "block %d (%s) terminator changed: id %d -> id %d",
				bi, b.Label, snapTerm, finalTerm)
		}
	}
}

// matchScore ranks snapshot instruction cand as the original of extra
// copy e: 3 when e sits in a predecessor of cand's home join, 2 when it
// sits strictly upstream of that join, 1 as a last resort, ties broken
// by the caller's ascending candidate order.
func (c *checker) matchScore(e, cand int) int {
	J := c.snap.home[cand].block
	fb := c.final[e].block
	if len(c.an.preds[J]) >= 2 {
		for _, p := range c.an.preds[J] {
			if p == fb {
				return 3
			}
		}
		if fb != J && c.an.forwardReach(fb, J) {
			return 2
		}
	}
	return 1
}

// motions classifies and validates every cross-block motion.
func (c *checker) motions() {
	for _, id := range c.snap.ids {
		fin := c.final[id]
		if fin == absent {
			continue // already reported as lost
		}
		home := c.snap.home[id]
		if len(c.placements[id]) > 1 {
			c.checkDuplication(id)
			continue
		}
		if fin.block != home.block {
			c.classifyMotion(id, home, fin)
		}
	}
}

// classifyMotion validates a single-copy motion from home to fin as
// either useful (equivalent blocks) or speculative (§3's n-branch
// motion).
func (c *checker) classifyMotion(id int, home, fin place) {
	ins := c.snap.instrs[id]
	H, B := home.block, fin.block
	if ins.Op.NeverMoves() {
		c.violate("pinned", ins, "instruction of this opcode may never move (block %d -> %d)", H, B)
		return
	}
	if !c.rules.CrossBlock {
		c.violate("cross-block", ins, "cross-block motion is disabled at this level (block %d -> %d)", H, B)
		return
	}
	if !c.an.reach.has(H) || !c.an.reach.has(B) {
		c.violate("cross-block", ins, "motion involving unreachable block (block %d -> %d)", H, B)
		return
	}
	if c.an.cyclic {
		c.violate("cross-block", ins, "cross-block motion in an irreducible flow graph (block %d -> %d)", H, B)
		return
	}
	if !c.an.sameLoops(H, B) {
		c.violate("region", ins, "motion changes loop membership (block %d -> %d)", H, B)
		return
	}
	if c.an.equivalent(B, H) && c.an.dominates(B, H) {
		return // useful motion between equivalent blocks
	}
	if !c.an.dominates(B, H) {
		c.violate("useful", ins,
			"destination block %d neither dominates nor is equivalent to home block %d", B, H)
		return
	}
	// Speculative motion: B dominates H but H does not postdominate B.
	if c.rules.MaxSpecDepth < 1 {
		c.violate("speculative", ins, "speculative motion is disabled (block %d -> %d)", H, B)
		return
	}
	if ins.Op.NeverSpeculates() {
		c.violate("speculative", ins,
			"instruction may not execute speculatively (stores/calls/faulting ops; block %d -> %d)", H, B)
		return
	}
	if ins.Op.IsLoad() && !c.rules.SpeculateLoads {
		c.violate("speculative", ins, "speculative loads are disabled (block %d -> %d)", H, B)
		return
	}
	d := c.an.specDepth(B, H)
	if d < 1 {
		c.violate("speculative", ins,
			"home block %d is not a speculative candidate of block %d", H, B)
		return
	}
	if d > c.rules.MaxSpecDepth {
		c.violate("speculative", ins,
			"motion gambles on %d branches, limit is %d (block %d -> %d)", d, c.rules.MaxSpecDepth, H, B)
		return
	}
	c.checkOffPath(id, fin, H, "speculative")
}

// checkDuplication validates a duplication group (Definition 6): the
// original plus its copies must cover every predecessor of the home join
// exactly once, and each copy's definitions must be unobservable on
// paths that bypass the join.
func (c *checker) checkDuplication(id int) {
	ins := c.snap.instrs[id]
	home := c.snap.home[id]
	J := home.block
	if !c.rules.CrossBlock || !c.rules.AllowDuplication {
		c.violate("duplication", ins, "duplication is disabled (join block %d)", J)
		return
	}
	if ins.Op.NeverMoves() || ins.Op.NeverSpeculates() {
		c.violate("duplication", ins, "instruction of this opcode may not be duplicated (join block %d)", J)
		return
	}
	if ins.Op.IsLoad() && !c.rules.SpeculateLoads {
		c.violate("duplication", ins, "speculative loads are disabled; copies run speculatively (join block %d)", J)
		return
	}
	if c.an.cyclic {
		c.violate("duplication", ins, "duplication in an irreducible flow graph (join block %d)", J)
		return
	}
	n := len(c.f.Blocks)
	c.predSet = zeroed(c.predSet, n)
	predSet := c.predSet
	npreds := 0
	for _, p := range c.an.preds[J] {
		if !predSet[p] {
			predSet[p] = true
			npreds++
		}
	}
	if npreds < 2 {
		c.violate("duplication", ins, "home block %d is not a join (%d predecessors)", J, npreds)
		return
	}
	c.cover = zeroed(c.cover, n)
	cover := c.cover
	for _, pl := range c.placements[id] {
		cover[pl.block] = true
	}
	// Copies may sit upstream of their predecessor: the session's own
	// instance lands in the session block, later sessions may hoist a
	// predecessor's copy further, and a copy sitting at a join of its own
	// may be re-duplicated into that join's predecessors. A copy may
	// also sit in J itself — the group then has an instance at the
	// original home, which every path entering J executes
	// non-speculatively (this arises when textually identical
	// instructions make the copy→original pairing ambiguous and an
	// unmoved original absorbs another join's copies). What must hold
	// is path coverage: every path entering J executes some copy on the
	// way, and the last copy executed is always correctly placed (earlier
	// ones are shadowed; join-bypassing executions are §5.3-checked
	// below). done[b] computes "every forward path reaching the end of b
	// has executed a copy" by structural induction over the forward graph.
	for b := range cover {
		if !cover[b] || b == J {
			continue // no copy, or an instance at the home join itself
		}
		if !predSet[b] && !c.an.forwardReach(b, J) {
			c.violate("duplication", ins, "copy placed in block %d, not upstream of join %d", b, J)
			return
		}
		if !c.an.sameLoops(b, J) {
			c.violate("region", ins, "duplication crosses a loop boundary (block %d vs join %d)", b, J)
			return
		}
	}
	// A copy at J covers every entering path by itself; otherwise every
	// predecessor must be covered by the forward induction.
	if !cover[J] {
		c.doneAt = zeroed(c.doneAt, n)
		done := c.doneAt
		for changed := true; changed; {
			changed = false
			for b := range done {
				if done[b] {
					continue
				}
				ok := cover[b]
				if !ok && len(c.an.fpreds[b]) > 0 {
					ok = true
					for _, p := range c.an.fpreds[b] {
						if !done[p] {
							ok = false
							break
						}
					}
				}
				if ok {
					done[b] = true
					changed = true
				}
			}
		}
		for p := range predSet {
			if predSet[p] && !done[p] {
				c.violate("duplication", ins, "predecessor block %d of join %d has no covering copy", p, J)
				return
			}
		}
	}
	c.dupGroup[id] = true
	for _, pl := range c.placements[id] {
		if pl.block == J {
			continue // executes exactly where the original did: never speculative
		}
		c.checkOffPath(id, pl, J, "duplication")
	}
}

// checkOffPath enforces §5.3: a definition executed speculatively at pl
// (home block H) must not clobber a value some use the original program
// did not feed from this instruction still observes. Liveness is taken
// from the snapshot with the live-in of H masked — in the snapshot every
// legitimate consumer sat at or beyond the instruction's original slot
// in H, so liveness that reaches the new position flowed around H and
// has an off-path observer. A snapshot use only counts as an observer if
// its own final placement is still strictly downstream of the moved
// definition: consumers that were hoisted above it (the scheduler
// re-checks liveness dynamically after every motion, §5.3) no longer
// read the clobbered register.
func (c *checker) checkOffPath(id int, pl place, H int, rule string) {
	for _, r := range c.sum[id].Defs {
		if c.offPathLive(r, pl, H, id) {
			c.violate(rule, c.snap.instrs[id],
				"definition of %s is live on paths bypassing home block %d (clobbers an off-path value at block %d)",
				r, H, pl.block)
		}
	}
}

// offPathLive computes, on the snapshot program with block H masked and
// with observers restricted to uses still placed downstream of pl, the
// liveness of r just after position pl.pos of final block pl.block.
// Only the blocks mentioning r get gen/kill facts; live-in then spreads
// backwards from the generating blocks through blocks that do not kill r.
func (c *checker) offPathLive(r ir.Reg, pl place, H int, id int) bool {
	occ := c.idx.occurrences(r)
	work := c.work[:0]
	for k := 0; k < len(occ); {
		b := c.idx.slotBlock[occ[k].slot]
		gen, seenDef := false, false
		for ; k < len(occ) && c.idx.slotBlock[occ[k].slot] == b; k++ {
			o := occ[k]
			if !seenDef && o.used && c.observesDownstream(int(c.idx.slotID[o.slot]), pl) {
				gen = true
			}
			seenDef = seenDef || o.def
		}
		c.kill[b] = seenDef
		if gen && int(b) != H && !c.liveIn[b] { // the home block is masked
			c.liveIn[b] = true
			work = append(work, b)
		}
	}
	for i := 0; i < len(work); i++ {
		for _, p := range c.an.preds[work[i]] {
			if p != H && !c.liveIn[p] && !c.kill[p] {
				c.liveIn[p] = true
				work = append(work, int32(p))
			}
		}
	}
	live := false
	for _, s := range c.an.succs[pl.block] {
		if c.liveIn[s] {
			live = true
			break
		}
	}
	for _, b := range work {
		c.liveIn[b] = false
	}
	for _, o := range occ {
		c.kill[c.idx.slotBlock[o.slot]] = false
	}
	c.work = work
	// Uses and kills between the new position and the end of its block
	// are taken from the final layout: anything placed after the moved
	// definition inside its block reads the new value directly.
	instrs := c.f.Blocks[pl.block].Instrs
	for k := len(instrs) - 1; k > pl.pos; k-- {
		j := instrs[k]
		if j.DefsReg(r) {
			live = false
			continue
		}
		if j.UsesReg(r) && !c.snapConsumer(id, j.ID) {
			live = true
		}
	}
	return live
}

// observesDownstream reports whether snapshot use u still executes
// strictly downstream of the moved definition at pl in the final
// program. Same-block observers are excluded here; the caller walks the
// final block directly.
func (c *checker) observesDownstream(u int, pl place) bool {
	fp := c.final[u]
	if fp == absent {
		return true // lost instruction: reported elsewhere, stay conservative
	}
	if fp.block == pl.block {
		return false
	}
	return c.an.forwardReach(pl.block, fp.block)
}

// snapConsumer reports whether, in the snapshot, instruction cons was a
// forward consumer of src: in the same block after it, or in a block
// reachable from src's home in the forward graph.
func (c *checker) snapConsumer(src, cons int) bool {
	if o := c.origin[cons]; o >= 0 {
		cons = o
	}
	if c.snap.instr(src) == nil || c.snap.instr(cons) == nil {
		return false
	}
	sh, ch := c.snap.home[src], c.snap.home[cons]
	if sh.block == ch.block {
		return ch.pos > sh.pos
	}
	return c.an.forwardReach(sh.block, ch.block)
}

// depOrder re-derives every data dependence of the snapshot program and
// checks that each one still executes in order at every placement pair.
// Only the candidates that can carry a dependence are visited. A legal
// schedule passes in any visiting order, so they are first visited as
// enumerated; once a violation shows, that attempt is discarded and the
// candidates are visited again in the order of a sweep over all
// instruction pairs (same-block pairs by block and position, then each
// forward-reachable block pair), which fixes the order of the report.
func (c *checker) depOrder() {
	mark := len(c.vs)
	// Generated mains list about 0.4 candidates per register mention
	// in a block-local check and 1.8 otherwise.
	size := len(c.idx.occ)
	if !c.blockLocal {
		size *= 2
	}
	if cap(c.cands) < size {
		c.cands = make([]candidate, 0, size)
	}
	cands := c.candidates(c.cands[:0])
	c.cands = cands
	for _, p := range cands {
		c.checkPair(p)
		if len(c.vs) > mark {
			break
		}
	}
	if len(c.vs) == mark {
		return
	}
	c.vs = c.vs[:mark]
	slices.SortFunc(cands, cmpCandidate)
	for _, p := range slices.Compact(cands) {
		c.checkPair(p)
	}
}

// checkPair checks every dependence of one candidate pair.
func (c *checker) checkPair(p candidate) {
	a, b := c.idx.slotID[p.a()], c.idx.slotID[p.b()]
	c.deps = schedmodel.Pair(&c.sum[a].Operands, &c.sum[b].Operands, c.deps[:0])
	for _, d := range c.deps {
		c.checkDep(int(a), int(b), d)
	}
}

// checkDep verifies one snapshot dependence, from instruction from to
// instruction to, at every placement pair of its endpoints.
func (c *checker) checkDep(from, to int, d schedmodel.Dep) {
	for _, px := range c.placements[from] {
		for _, py := range c.placements[to] {
			if px.block == py.block {
				if px.pos >= py.pos {
					c.violate("dependence", c.snap.instrs[from],
						"%s on %q reordered within block %d",
						d, c.snap.instrs[to].String(), px.block)
				}
				continue
			}
			// When both endpoints are duplication groups, the cross-block
			// pairs carry no constraint: every predecessor of the join
			// holds an ordered copy of the whole chain (checked above as
			// same-block pairs), and a path crossing two predecessors
			// re-executes the chain consistently in the later one.
			if c.dupGroup[from] && c.dupGroup[to] {
				continue
			}
			if c.an.forwardReach(px.block, py.block) {
				continue
			}
			if c.an.forwardReach(py.block, px.block) {
				// A copy of to placed upstream of from is shadowed: any
				// path that later reaches the join re-executes the copy in
				// its entering predecessor after from (coverage is exactly
				// once per predecessor, and same-block pairs order each
				// predecessor's copy against from directly). Paths that
				// bypass the join are duplication off-paths, covered by
				// the §5.3 liveness check.
				if c.dupGroup[to] {
					continue
				}
				c.violate("dependence", c.snap.instrs[from],
					"%s on %q reversed across blocks (%d vs %d)",
					d, c.snap.instrs[to].String(), px.block, py.block)
				continue
			}
			// Parallel placements: legal only for duplication copies,
			// whose paths are disjoint from the other endpoint's.
			if c.dupGroup[from] || c.dupGroup[to] {
				continue
			}
			c.violate("dependence", c.snap.instrs[from],
				"%s on %q split onto parallel blocks (%d vs %d)",
				d, c.snap.instrs[to].String(), px.block, py.block)
		}
	}
}

// sameInstr compares everything but the ID and comment.
func sameInstr(a, b *ir.Instr) bool {
	if a.Op != b.Op || a.Def != b.Def || a.Def2 != b.Def2 || a.A != b.A || a.B != b.B ||
		a.Imm != b.Imm || a.Target != b.Target || a.CRBit != b.CRBit || a.OnTrue != b.OnTrue {
		return false
	}
	if (a.Mem == nil) != (b.Mem == nil) {
		return false
	}
	if a.Mem != nil && *a.Mem != *b.Mem {
		return false
	}
	if len(a.CallArgs) != len(b.CallArgs) {
		return false
	}
	for i := range a.CallArgs {
		if a.CallArgs[i] != b.CallArgs[i] {
			return false
		}
	}
	return true
}
