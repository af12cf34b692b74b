// Package schedmodel is the oracles' one statement of the paper's
// block-level machine model: the §4.2 pair rule (register flow, anti and
// output dependences plus conservative memory disambiguation) and a
// replay of one block through the §2 issue rule, machine.Pipe, that
// assigns a makespan to a concrete order.
//
// internal/verify reads the pair rule for every dependence it checks,
// internal/difftest's exhaustive enumerator reads the rule and the
// replay, and internal/exact's branch-and-bound search places and undoes
// instructions through the replay, so the oracles cannot disagree about
// which orders are legal or what one costs. The simulator issues through
// the same machine.Pipe. None of this is shared with internal/pdg or
// internal/core: a test here pins the pair rule against pdg's block DDG
// on the fuzz corpus, so the oracles cannot drift from the scheduler's
// own dependence analysis either.
package schedmodel

import (
	"slices"

	"gsched/internal/ir"
	"gsched/internal/machine"
)

// Kind names what carries a dependence.
type Kind uint8

const (
	flow   Kind = iota // the later instruction reads a register the earlier writes
	anti               // the later instruction writes a register the earlier reads
	output             // both write one register
	memory             // both touch memory that may alias, and not both only load
)

func (k Kind) String() string {
	return [...]string{flow: "flow", anti: "anti", output: "output", memory: "memory"}[k]
}

// Dep is one dependence of an ordered instruction pair.
type Dep struct {
	Kind Kind
	Reg  ir.Reg // the register carrying a flow, anti or output dependence
}

// String renders d as the verifier reports it: "flow dependence (r3)",
// or "memory dependence".
func (d Dep) String() string {
	if d.Kind == memory {
		return "memory dependence"
	}
	return d.Kind.String() + " dependence (" + d.Reg.String() + ")"
}

// Operands is what the pair rule reads of one instruction: the
// instruction and the registers it writes and reads, as ir.Instr.Defs
// and Uses return them.
type Operands struct {
	Ins        *ir.Instr
	Defs, Uses []ir.Reg
}

// Pair appends to out every dependence that keeps b after a, where a is
// textually before b: flow and output dependences per register a
// writes, then anti dependences per register a reads, then a memory
// conflict. Pair does not order anything before a terminator.
func Pair(a, b *Operands, out []Dep) []Dep {
	for _, r := range a.Defs {
		if slices.Contains(b.Uses, r) {
			out = append(out, Dep{flow, r})
		}
		if slices.Contains(b.Defs, r) {
			out = append(out, Dep{output, r})
		}
	}
	for _, r := range a.Uses {
		if slices.Contains(b.Defs, r) {
			out = append(out, Dep{anti, r})
		}
	}
	oa, ob := a.Ins.Op, b.Ins.Op
	if oa.TouchesMemory() && ob.TouchesMemory() && !(oa.IsLoad() && ob.IsLoad()) && MayAlias(a.Ins, b.Ins) {
		out = append(out, Dep{memory, ir.NoReg})
	}
	return out
}

// MayAlias conservatively decides whether two memory-touching
// instructions may access a common location. The facts are §4.2's:
// distinct named symbols are disjoint, frame slots are disjoint from
// global memory and from differently-offset frame slots, direct
// accesses to one symbol at different constant offsets are disjoint,
// and a call may touch any global memory but no frame slot.
func MayAlias(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		other := a
		if a.Op == ir.OpCall {
			other = b
		}
		if other.Op == ir.OpCall {
			return true
		}
		return other.Mem == nil || !other.Mem.Frame
	}
	ma, mb := a.Mem, b.Mem
	if ma == nil || mb == nil {
		return false
	}
	if ma.Frame != mb.Frame {
		return false
	}
	if ma.Frame {
		return ma.Off == mb.Off
	}
	if ma.Sym != "" && mb.Sym != "" && ma.Sym != mb.Sym {
		return false
	}
	if ma.Sym == mb.Sym && ma.Sym != "" && ma.Base == ir.NoReg && mb.Base == ir.NoReg {
		return ma.Off == mb.Off
	}
	return true
}

// Depends reports whether, with a textually before b, b must stay
// ordered after a: Pair finds a dependence. The memory facts match the
// verifier's, which reads the same rule: a weaker rule here would flag
// schedules the verifier accepts.
func Depends(a, b *ir.Instr) bool {
	var abuf, bbuf [8]ir.Reg
	var deps [4]Dep
	oa, ob := operandsOf(a, abuf[:0]), operandsOf(b, bbuf[:0])
	return len(Pair(&oa, &ob, deps[:0])) > 0
}

func operandsOf(i *ir.Instr, buf []ir.Reg) Operands {
	defs := i.Defs(buf)
	n := len(defs)
	return Operands{Ins: i, Defs: defs[:n:n], Uses: i.Uses(defs)[n:]}
}

// DepMatrix derives the pairwise dependence relation over ref: dep[i][j]
// (only for i < j) means ref[j] must stay ordered after ref[i] in every
// legal order of the block. When the block ends in a terminator, every
// other instruction is additionally ordered before it. ref must be a
// legal order itself (any pre- or post-schedule block layout is); the
// relation derived from one legal order is identical for all of them,
// because legal orders preserve the relative position of every
// dependent pair.
func DepMatrix(ref []*ir.Instr) [][]bool {
	n := len(ref)
	dep := make([][]bool, n)
	for i := range dep {
		dep[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Depends(ref[i], ref[j]) {
				dep[i][j] = true
			}
		}
	}
	if n > 0 && ref[n-1].Op.IsTerminator() {
		for i := 0; i < n-1; i++ {
			dep[i][n-1] = true
		}
	}
	return dep
}

// Makespan replays order from a cold pipeline and returns the cycle
// its last instruction finishes.
func Makespan(order []*ir.Instr, d *machine.Desc) int {
	r := NewReplay(d)
	for _, i := range order {
		r.Place(i)
	}
	return int(r.Pipe.Finish)
}

// Replay issues one block's instructions in a chosen order from a cold
// pipeline: a register scoreboard in front of machine.Pipe. A consumer
// starts no earlier than its producer's start + t + d (the k + t + d
// rule of §2); values defined before the block are ready at cycle zero.
// A replay charges every compare-to-branch delay, also on a machine with
// TakenOnlyBranchDelay, because it cannot know whether the branch is
// taken; the simulator's own operand scoreboard can.
type Replay struct {
	Pipe machine.Pipe

	d    *machine.Desc
	regs map[ir.Reg]written // registers defined by the placed instructions
}

// written is the scoreboard entry of one register.
type written struct {
	at   int       // cycle its value is available
	prod *ir.Instr // the instruction that defined it
}

// Undo is what one Place changed, for Unplace to take back.
type Undo struct {
	pipe machine.Pipe
	regs [2]struct {
		reg ir.Reg
		old written
		was bool
	}
	n int
}

// NewReplay returns an empty replay on d.
func NewReplay(d *machine.Desc) *Replay {
	return &Replay{d: d, regs: make(map[ir.Reg]written)}
}

// Place issues ins after every instruction placed so far and returns
// its start cycle.
func (r *Replay) Place(ins *ir.Instr) (int, Undo) {
	u := Undo{pipe: r.Pipe}
	ready := 0
	use := func(reg ir.Reg) {
		if !reg.Valid() {
			return
		}
		if w, ok := r.regs[reg]; ok {
			ready = max(ready, w.at+r.d.Delay(w.prod, ins, reg))
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
	c := int(r.Pipe.Issue(r.d, ins.Op, int64(ready)))
	var dbuf [2]ir.Reg
	for _, reg := range ins.Defs(dbuf[:0]) {
		s := &u.regs[u.n]
		s.reg = reg
		s.old, s.was = r.regs[reg]
		u.n++
		r.regs[reg] = written{c + r.d.Exec(ins.Op), ins}
	}
	return c, u
}

// Unplace takes back the Place that returned u, which must be the last
// one not taken back yet.
func (r *Replay) Unplace(u Undo) {
	r.Pipe = u.pipe
	for k := u.n - 1; k >= 0; k-- {
		if s := u.regs[k]; s.was {
			r.regs[s.reg] = s.old
		} else {
			delete(r.regs, s.reg)
		}
	}
}

// Avail returns the cycle the value of reg is available: when a placed
// instruction defined it, that definition's start plus execution time,
// else zero.
func (r *Replay) Avail(reg ir.Reg) int {
	return r.regs[reg].at
}
