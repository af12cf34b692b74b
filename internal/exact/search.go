package exact

import (
	"sort"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/schedmodel"
)

// searcher is one block's branch-and-bound state. Indices 0..n-1 name
// the instructions in their input (reference) order; the scheduled set
// is a bitmask over them.
type searcher struct {
	ref  []*ir.Instr
	mach *machine.Desc
	lim  Limits
	n    int

	// Immutable precomputation.
	predMask []uint64          // direct dependence predecessors of i
	cp       []int             // critical-path lower bound: finish >= issue_i + cp[i]
	unit     []ir.Unit         // functional unit type of i
	exec     []int             // execution time of i
	prio     []int             // child visit order: cp desc, then input position
	defMask  map[ir.Reg]uint64 // instructions defining each register

	// Mutable state: the scheduled set and order, the unscheduled
	// instructions per unit type, and the replay that Makespan runs,
	// placed and taken back as the search descends and backtracks.
	mask      uint64
	order     []int
	remaining [ir.NumUnitTypes]int
	replay    *schedmodel.Replay

	// Search outcome.
	best      int
	bestOrder []*ir.Instr
	nodes     int
	exhausted bool

	// Dominance memo: canonical ready-states already expanded, keyed by
	// the scheduled-set mask.
	memo map[uint64][]stateSig
}

// maxSigsPerMask bounds how many incomparable states one mask retains;
// past it new states are still explored, just not remembered.
const maxSigsPerMask = 6

// stateSig is the part of the replay state a continuation can observe,
// in absolute cycles: the last issue cycle, the makespan so far, how
// many issues the current cycle has consumed per unit type, and the
// availability times of every scheduled definition a remaining
// instruction reads (in a deterministic mask-dependent order, so equal
// masks yield comparable vectors).
type stateSig struct {
	prev, finish int32
	eff          [ir.NumUnitTypes]int32
	avail        []int32
}

// dominates reports that any continuation reachable from b is reachable
// from a at no greater final makespan: every constraint a continuation
// reads — last issue cycle, accumulated finish, per-unit issue counts
// at the frontier cycle, operand availability — is no tighter in a.
// When a.prev < b.prev the unit counts are irrelevant: b's continuation
// issues at cycles >= b.prev, past a's frontier entirely.
func (a *stateSig) dominates(b *stateSig) bool {
	if a.prev > b.prev || a.finish > b.finish {
		return false
	}
	if a.prev == b.prev {
		for t := range a.eff {
			if a.eff[t] > b.eff[t] {
				return false
			}
		}
	}
	for k := range a.avail {
		if a.avail[k] > b.avail[k] {
			return false
		}
	}
	return true
}

func newSearcher(instrs []*ir.Instr, mach *machine.Desc, lim Limits) *searcher {
	n := len(instrs)
	s := &searcher{
		ref:     instrs,
		mach:    mach,
		lim:     lim,
		n:       n,
		replay:  schedmodel.NewReplay(mach),
		defMask: make(map[ir.Reg]uint64),
		memo:    make(map[uint64][]stateSig),
		order:   make([]int, 0, n),
	}

	dep := schedmodel.DepMatrix(instrs)
	s.predMask = make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dep[i][j] {
				s.predMask[j] |= 1 << uint(i)
			}
		}
	}

	s.unit = make([]ir.Unit, n)
	s.exec = make([]int, n)
	var dbuf [2]ir.Reg
	for i, ins := range instrs {
		s.unit[i] = ins.Op.Unit()
		s.exec[i] = mach.Exec(ins.Op)
		s.remaining[s.unit[i]]++
		for _, r := range ins.Defs(dbuf[:0]) {
			s.defMask[r] |= 1 << uint(i)
		}
	}

	// cp[i] is a lower bound on finish - issue_i over every legal
	// completion: i's own execution, or a dependent chain. A flow edge
	// contributes its pipeline delay only when i is the block's unique
	// definer of the register (then i is certainly the producer the
	// consumer waits on); otherwise the edge still forces in-order
	// issue, worth cp[j] alone.
	s.cp = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		c := s.exec[i]
		for j := i + 1; j < n; j++ {
			if !dep[i][j] {
				continue
			}
			w := s.flowDelayLB(i, j)
			var via int
			if w > 0 {
				via = s.exec[i] + w + s.cp[j]
			} else {
				via = s.cp[j]
			}
			if via > c {
				c = via
			}
		}
		s.cp[i] = c
	}

	s.prio = make([]int, n)
	for i := range s.prio {
		s.prio[i] = i
	}
	sort.SliceStable(s.prio, func(a, b int) bool {
		x, y := s.prio[a], s.prio[b]
		if s.cp[x] != s.cp[y] {
			return s.cp[x] > s.cp[y]
		}
		return x < y
	})
	return s
}

// flowDelayLB returns the pipeline delay guaranteed on the edge i -> j:
// the largest Delay over registers that i alone defines in the block
// and j reads. Registers with several in-block definers contribute
// nothing (a later definer may be the producer j actually waits on).
func (s *searcher) flowDelayLB(i, j int) int {
	var dbuf [2]ir.Reg
	w := 0
	for _, r := range s.ref[i].Defs(dbuf[:0]) {
		if s.defMask[r] != 1<<uint(i) {
			continue
		}
		if !s.ref[j].UsesReg(r) {
			continue
		}
		if d := s.mach.Delay(s.ref[i], s.ref[j], r); d > w {
			w = d
		}
	}
	return w
}

func (s *searcher) run() {
	s.best = schedmodel.Makespan(s.ref, s.mach)
	s.bestOrder = append([]*ir.Instr(nil), s.ref...)
	s.dfs()
}

// place issues instruction i on the replay and returns its issue cycle
// plus what unplace needs to take it back.
func (s *searcher) place(i int) (int, schedmodel.Undo) {
	s.mask |= 1 << uint(i)
	s.remaining[s.unit[i]]--
	return s.replay.Place(s.ref[i])
}

// unplace reverts place(i).
func (s *searcher) unplace(i int, u schedmodel.Undo) {
	s.mask &^= 1 << uint(i)
	s.remaining[s.unit[i]]++
	s.replay.Unplace(u)
}

// lowerBound combines the critical-path and resource arguments into a
// lower bound on any completion of the current partial schedule.
func (s *searcher) lowerBound() int {
	prev := int(s.replay.Pipe.Prev)
	lb := int(s.replay.Pipe.Finish)
	// Every future issue happens at a cycle >= prev (in-order issue),
	// so the tallest remaining critical path sits on top of prev.
	maxcp := 0
	for i := 0; i < s.n; i++ {
		if s.mask&(1<<uint(i)) == 0 && s.cp[i] > maxcp {
			maxcp = s.cp[i]
		}
	}
	lb = max(lb, prev+maxcp)
	// Resource bound: m_t remaining type-t instructions issue at most
	// n_t per cycle starting no earlier than prev, whose slots may be
	// partly taken already.
	for t := ir.Unit(0); t < ir.NumUnitTypes; t++ {
		m := s.remaining[t]
		if m == 0 {
			continue
		}
		nU := max(s.mach.NumUnits[t], 1)
		last := prev
		if rem := m - max(nU-s.replay.Pipe.Taken(t), 0); rem > 0 {
			last = prev + (rem+nU-1)/nU
		}
		lb = max(lb, last+1)
	}
	return lb
}

// signature renders the current replay state as a stateSig. The avail
// vector enumerates, in input order of the remaining instructions and
// their operand slots, the availability of every register some
// scheduled instruction defines — a mask-dependent but state-independent
// ordering, so two signatures of the same mask compare element-wise.
func (s *searcher) signature() stateSig {
	p := &s.replay.Pipe
	sig := stateSig{prev: int32(p.Prev), finish: int32(p.Finish)}
	for t := range sig.eff {
		sig.eff[t] = int32(p.Taken(ir.Unit(t)))
	}
	add := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		if s.defMask[r]&s.mask == 0 {
			return
		}
		sig.avail = append(sig.avail, int32(s.replay.Avail(r)))
	}
	for i := 0; i < s.n; i++ {
		if s.mask&(1<<uint(i)) != 0 {
			continue
		}
		ins := s.ref[i]
		add(ins.A)
		add(ins.B)
		if ins.Mem != nil {
			add(ins.Mem.Base)
		}
		for _, a := range ins.CallArgs {
			add(a)
		}
	}
	return sig
}

// memoPrune reports that a previously expanded state dominates the
// current one; otherwise it remembers the current state (dropping any
// stored states the new one dominates).
func (s *searcher) memoPrune() bool {
	sig := s.signature()
	stored := s.memo[s.mask]
	for k := range stored {
		if stored[k].dominates(&sig) {
			return true
		}
	}
	kept := stored[:0]
	for k := range stored {
		if !sig.dominates(&stored[k]) {
			kept = append(kept, stored[k])
		}
	}
	if len(kept) < maxSigsPerMask {
		kept = append(kept, sig)
	}
	s.memo[s.mask] = kept
	return false
}

// dfs expands the current partial schedule: bound, memoize, then try
// every ready instruction in static priority order.
func (s *searcher) dfs() {
	if s.mask == 1<<uint(s.n)-1 {
		if finish := int(s.replay.Pipe.Finish); finish < s.best {
			s.best = finish
			s.bestOrder = s.bestOrder[:0]
			for _, i := range s.order {
				s.bestOrder = append(s.bestOrder, s.ref[i])
			}
		}
		return
	}
	if s.exhausted {
		return
	}
	if s.nodes >= s.lim.MaxNodes {
		s.exhausted = true
		return
	}
	s.nodes++
	if s.lowerBound() >= s.best {
		return
	}
	if s.memoPrune() {
		return
	}
	for _, i := range s.prio {
		bit := uint64(1) << uint(i)
		if s.mask&bit != 0 || s.predMask[i]&^s.mask != 0 {
			continue
		}
		c, u := s.place(i)
		// Child bound: issuing i at cycle c commits finish >= c + cp[i].
		if c+s.cp[i] < s.best && s.lowerBound() < s.best {
			s.order = append(s.order, i)
			s.dfs()
			s.order = s.order[:len(s.order)-1]
		}
		s.unplace(i, u)
	}
}
