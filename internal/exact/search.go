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

	// Mutable replay state (the schedmodel.Makespan machine, maintained
	// incrementally with undo on backtrack).
	mask                 uint64
	order                []int
	avail                map[ir.Reg]int
	prod                 map[ir.Reg]*ir.Instr
	lastCycle, lastCount [ir.NumUnitTypes]int
	prev, finish         int
	remaining            [ir.NumUnitTypes]int

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
		avail:   make(map[ir.Reg]int),
		prod:    make(map[ir.Reg]*ir.Instr),
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

// undoFrame captures everything place mutates, so backtracking restores
// the replay state exactly.
type undoFrame struct {
	prev, finish         int
	lastCycle, lastCount int
	defs                 [2]savedReg
	numDefs              int
}

type savedReg struct {
	reg    ir.Reg
	avail  int
	prod   *ir.Instr
	wasSet bool
}

// place issues instruction i on the replay machine and returns its
// issue cycle plus the undo frame.
func (s *searcher) place(i int) (int, undoFrame) {
	ins := s.ref[i]
	ready := 0
	use := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		p, ok := s.prod[r]
		if !ok {
			return
		}
		if c := s.avail[r] + s.mach.Delay(p, ins, r); c > ready {
			ready = c
		}
	}
	use(ins.A)
	use(ins.B)
	if ins.Mem != nil {
		use(ins.Mem.Base)
	}
	for _, a := range ins.CallArgs {
		use(a)
	}

	t := s.unit[i]
	fr := undoFrame{
		prev: s.prev, finish: s.finish,
		lastCycle: s.lastCycle[t], lastCount: s.lastCount[t],
	}

	c := s.prev
	if ready > c {
		c = ready
	}
	nU := s.mach.NumUnits[t]
	if nU < 1 {
		nU = 1
	}
	if c == s.lastCycle[t] && s.lastCount[t] >= nU {
		c++
	}
	if c > s.lastCycle[t] {
		s.lastCycle[t] = c
		s.lastCount[t] = 1
	} else {
		s.lastCount[t]++
	}
	s.prev = c
	if done := c + s.exec[i]; done > s.finish {
		s.finish = done
	}
	var dbuf [2]ir.Reg
	for _, r := range ins.Defs(dbuf[:0]) {
		old, ok := s.prod[r]
		fr.defs[fr.numDefs] = savedReg{reg: r, avail: s.avail[r], prod: old, wasSet: ok}
		fr.numDefs++
		s.avail[r] = c + s.exec[i]
		s.prod[r] = ins
	}
	s.mask |= 1 << uint(i)
	s.remaining[t]--
	return c, fr
}

// unplace reverts place(i).
func (s *searcher) unplace(i int, fr undoFrame) {
	t := s.unit[i]
	s.mask &^= 1 << uint(i)
	s.remaining[t]++
	s.prev, s.finish = fr.prev, fr.finish
	s.lastCycle[t], s.lastCount[t] = fr.lastCycle, fr.lastCount
	for k := fr.numDefs - 1; k >= 0; k-- {
		d := fr.defs[k]
		if d.wasSet {
			s.avail[d.reg] = d.avail
			s.prod[d.reg] = d.prod
		} else {
			delete(s.avail, d.reg)
			delete(s.prod, d.reg)
		}
	}
}

// lowerBound combines the critical-path and resource arguments into a
// lower bound on any completion of the current partial schedule.
func (s *searcher) lowerBound() int {
	lb := s.finish
	// Every future issue happens at a cycle >= prev (in-order issue),
	// so the tallest remaining critical path sits on top of prev.
	maxcp := 0
	for i := 0; i < s.n; i++ {
		if s.mask&(1<<uint(i)) == 0 && s.cp[i] > maxcp {
			maxcp = s.cp[i]
		}
	}
	if c := s.prev + maxcp; c > lb {
		lb = c
	}
	// Resource bound: m_t remaining type-t instructions issue at most
	// n_t per cycle starting no earlier than prev, whose slots may be
	// partly consumed already.
	for t := 0; t < ir.NumUnitTypes; t++ {
		m := s.remaining[t]
		if m == 0 {
			continue
		}
		nU := s.mach.NumUnits[t]
		if nU < 1 {
			nU = 1
		}
		slots0 := nU
		if s.lastCycle[t] == s.prev && s.mask != 0 {
			slots0 = nU - s.lastCount[t]
			if slots0 < 0 {
				slots0 = 0
			}
		}
		last := s.prev
		if rem := m - slots0; rem > 0 {
			last = s.prev + (rem+nU-1)/nU
		}
		if c := last + 1; c > lb {
			lb = c
		}
	}
	return lb
}

// signature renders the current replay state as a stateSig. The avail
// vector enumerates, in input order of the remaining instructions and
// their operand slots, the availability of every register some
// scheduled instruction defines — a mask-dependent but state-independent
// ordering, so two signatures of the same mask compare element-wise.
func (s *searcher) signature() stateSig {
	sig := stateSig{prev: int32(s.prev), finish: int32(s.finish)}
	for t := 0; t < ir.NumUnitTypes; t++ {
		if s.lastCycle[t] == s.prev {
			sig.eff[t] = int32(s.lastCount[t])
		}
	}
	add := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		if s.defMask[r]&s.mask == 0 {
			return
		}
		sig.avail = append(sig.avail, int32(s.avail[r]))
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
		if s.finish < s.best {
			s.best = s.finish
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
		c, fr := s.place(i)
		// Child bound: issuing i at cycle c commits finish >= c + cp[i].
		if c+s.cp[i] < s.best && s.lowerBound() < s.best {
			s.order = append(s.order, i)
			s.dfs()
			s.order = s.order[:len(s.order)-1]
		}
		s.unplace(i, fr)
	}
}
