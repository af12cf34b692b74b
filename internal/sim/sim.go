// Package sim executes ir programs functionally while accounting issue
// cycles under the parametric machine model of §2 of the paper.
//
// The timing model is the one the paper uses for its hand estimates
// (validated against Figure 2's 20/21/22 cycles per iteration):
// instructions issue in order along the executed path; each functional
// unit type t issues at most n_t instructions per cycle; an instruction
// starts no earlier than its predecessor in path order; and a consumer
// starts no earlier than producer_start + t + d for every flow dependence
// (the k + t + d rule, enforced by hardware interlocks). Per footnote 2
// of the paper, the compare-to-branch delay is charged whether the branch
// is taken or not.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/profile"
)

// errLimit is returned when execution exceeds Options.MaxInstrs.
var errLimit = errors.New("sim: instruction limit exceeded")

// errAbort is returned when the program calls the abort builtin.
var errAbort = errors.New("sim: program aborted")

// Options configures a run.
type Options struct {
	// Machine is the timing model; nil runs functionally with every
	// instruction charged one cycle and no delays.
	Machine *machine.Desc
	// MaxInstrs bounds execution; 0 means the 100M default.
	MaxInstrs int64
	// Watch identifies a block whose entry cycles are recorded in
	// Result.Watch (used to measure cycles per loop iteration).
	Watch *WatchPoint
	// ForgivingLoads makes out-of-range or unaligned LOADS read 0
	// instead of faulting, the behaviour of a machine whose user-mode
	// address space is mapped. Speculatively hoisted loads may compute
	// wild addresses on mis-speculated paths (their results are then
	// discarded), so scheduled code is run with this enabled — the
	// paper's compile-time-analysis stance on speculative loads (§1).
	// Stores always fault.
	ForgivingLoads bool
	// CountInstrs records per-instruction-ID execution counts in
	// Result.PerInstr (instruction IDs are stable across scheduling,
	// so histograms of differently scheduled programs are comparable).
	CountInstrs bool
	// Profile, when non-nil, receives taken/not-taken counts for every
	// conditional branch executed (feedback for the profile-guided
	// speculation of the scheduler).
	Profile *profile.Profile
	// Trace, when non-nil, receives one line per executed instruction
	// ("cycle unit function instruction"), up to TraceLimit lines —
	// the pipeline diagrams in EXPERIMENTS.md come from this.
	Trace io.Writer
	// TraceLimit bounds trace output; 0 means 200 lines.
	TraceLimit int64
}

// WatchPoint names a basic block of a function.
type WatchPoint struct {
	Func  string
	Block int
}

// Result reports a completed run.
type Result struct {
	// Ret is the value returned by the entry function.
	Ret int64
	// Cycles is the completion cycle of the last instruction.
	Cycles int64
	// Instrs is the number of instructions executed.
	Instrs int64
	// Printed accumulates the arguments of print calls in order.
	Printed []int64
	// Watch holds the issue cycle of the first instruction executed on
	// each entry to the watched block.
	Watch []int64
	// PerInstr maps "func/instrID" to execution counts when
	// Options.CountInstrs is set.
	PerInstr map[string]int64
}

// IterationCycles derives cycles-per-iteration samples from the watch
// record: the differences between consecutive entries.
func (r *Result) IterationCycles() []int64 {
	if len(r.Watch) < 2 {
		return nil
	}
	out := make([]int64, 0, len(r.Watch)-1)
	for i := 1; i < len(r.Watch); i++ {
		out = append(out, r.Watch[i]-r.Watch[i-1])
	}
	return out
}

// Machine is a loaded program ready to run: symbols are assigned
// addresses and memory is materialised.
type Machine struct {
	prog    *ir.Program
	symBase map[string]int64
	memSize int64 // in words
	initMem []int64
	// symAt resolves, per function and instruction ID, the address of
	// the symbol the instruction's memory operand names, so an access
	// need not look the name up in symBase.
	symAt map[*ir.Func][]symRef
}

// symRef is the symbol address resolved at Load for one memory operand.
// It applies only while the instruction still carries that operand
// naming that symbol; otherwise the access looks the name up.
type symRef struct {
	mem  *ir.Mem
	sym  string
	addr int64
}

// Load prepares p for execution.
func Load(p *ir.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p, symBase: make(map[string]int64)}
	addr := int64(ir.WordSize) // keep address 0 unused
	for _, s := range p.Syms {
		m.symBase[s.Name] = addr
		addr += s.Words * ir.WordSize
	}
	m.memSize = addr / ir.WordSize
	m.initMem = make([]int64, m.memSize)
	for _, s := range p.Syms {
		base := m.symBase[s.Name] / ir.WordSize
		copy(m.initMem[base:base+s.Words], s.Init)
	}
	m.symAt = make(map[*ir.Func][]symRef, len(p.Funcs))
	for _, f := range p.Funcs {
		refs := make([]symRef, f.NumInstrIDs())
		f.Instrs(func(_ *ir.Block, i *ir.Instr) {
			if i.Mem == nil || i.Mem.Sym == "" {
				return
			}
			if a, ok := m.symBase[i.Mem.Sym]; ok && i.ID < len(refs) {
				refs[i.ID] = symRef{mem: i.Mem, sym: i.Mem.Sym, addr: a}
			}
		})
		m.symAt[f] = refs
	}
	return m, nil
}

// SymAddr returns the byte address assigned to a global symbol.
func (m *Machine) SymAddr(name string) (int64, bool) {
	a, ok := m.symBase[name]
	return a, ok
}

type frame struct {
	f     *ir.Func
	slots []int64 // frame-local memory (spill slots)
	regs  [ir.NumClasses][]int64
	// Timing scoreboard: availability cycle of each register value and
	// the instruction that produced it (for consumer-specific delays).
	avail [ir.NumClasses][]int64
	prod  [ir.NumClasses][]*ir.Instr
	symAt []symRef // Machine.symAt of f
	args  []int64  // the argument values of the call in progress
}

// zeroed returns s resized to n elements, all zero, reusing its
// backing array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// enter makes fr a fresh frame of f, all registers, slots and scoreboard
// entries zero, reusing the storage of the call it last served.
func (fr *frame) enter(m *Machine, f *ir.Func) {
	fr.f = f
	fr.slots = zeroed(fr.slots, int(max(f.FrameWords, 0)))
	for c := 0; c < ir.NumClasses; c++ {
		n := f.NumRegs(ir.RegClass(c))
		fr.regs[c] = zeroed(fr.regs[c], n)
		fr.avail[c] = zeroed(fr.avail[c], n)
		fr.prod[c] = zeroed(fr.prod[c], n)
	}
	fr.symAt = m.symAt[f]
}

func (fr *frame) get(r ir.Reg) int64    { return fr.regs[r.Class][r.Num] }
func (fr *frame) set(r ir.Reg, v int64) { fr.regs[r.Class][r.Num] = v }

type runState struct {
	m    *Machine
	opts Options
	mem  []int64
	res  *Result

	// frames[d] is the frame of the call at depth d, kept for the next
	// call at that depth; depth is the number of calls in progress.
	frames []*frame
	depth  int

	// Timing state shared across frames.
	traced    int64
	prevStart int64 // issue cycle of the previous instruction in path order
	lastCycle [ir.NumUnitTypes]int64
	lastCount [ir.NumUnitTypes]int
	finish    int64 // max completion cycle seen
}

// Run executes the named function with the given arguments. data, if
// non-nil, overrides the initial contents of global symbols by name
// (length-limited to the symbol size).
func (m *Machine) Run(entry string, args []int64, data map[string][]int64, opts Options) (*Result, error) {
	f := m.prog.Func(entry)
	if f == nil {
		return nil, fmt.Errorf("sim: no function %q", entry)
	}
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("sim: %s takes %d arguments, got %d", entry, len(f.Params), len(args))
	}
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 100_000_000
	}
	st := &runState{m: m, opts: opts, res: &Result{}}
	st.mem = make([]int64, len(m.initMem))
	copy(st.mem, m.initMem)
	for name, vals := range data {
		base, ok := m.symBase[name]
		if !ok {
			return nil, fmt.Errorf("sim: no symbol %q", name)
		}
		w := base / ir.WordSize
		sym := m.prog.Sym(name)
		if int64(len(vals)) > sym.Words {
			return nil, fmt.Errorf("sim: data for %q exceeds its %d words", name, sym.Words)
		}
		copy(st.mem[w:], vals)
	}
	ret, err := st.call(f, args, nil, 0)
	if err != nil {
		return nil, err
	}
	st.res.Ret = ret
	st.res.Cycles = st.finish
	return st.res, nil
}

// issue accounts the issue cycle for instruction i whose operand
// constraints allow starting at cycle ready, and returns the chosen
// start cycle.
func (st *runState) issue(i *ir.Instr, ready int64) int64 {
	d := st.opts.Machine
	if d == nil {
		c := st.prevStart + 1
		st.prevStart = c
		if c > st.finish {
			st.finish = c
		}
		return c
	}
	c := st.prevStart
	if ready > c {
		c = ready
	}
	t := i.Op.Unit()
	n := d.NumUnits[t]
	if n < 1 {
		n = 1
	}
	if c == st.lastCycle[t] && st.lastCount[t] >= n {
		c++
	}
	if c > st.lastCycle[t] {
		st.lastCycle[t] = c
		st.lastCount[t] = 1
	} else {
		st.lastCount[t]++
	}
	st.prevStart = c
	if done := c + int64(d.Exec(i.Op)); done > st.finish {
		st.finish = done
	}
	return c
}

// operandReady returns the earliest start cycle allowed by i's register
// uses in frame fr. When skipCmpDelay is set (a not-taken branch on a
// machine with taken-only delays), the compare-to-branch delay is not
// charged, though the compare's result must still be available.
func (st *runState) operandReady(fr *frame, i *ir.Instr, skipCmpDelay bool) int64 {
	d := st.opts.Machine
	if d == nil {
		return 0
	}
	var ready int64
	use := func(r ir.Reg) {
		if !r.Valid() {
			return
		}
		p := fr.prod[r.Class][r.Num]
		if p == nil {
			return
		}
		delay := int64(d.Delay(p, i, r))
		if skipCmpDelay && p.Op.IsCompare() {
			delay = 0
		}
		c := fr.avail[r.Class][r.Num] + delay
		if c > ready {
			ready = c
		}
	}
	use(i.A)
	use(i.B)
	if i.Mem != nil {
		use(i.Mem.Base)
	}
	for _, a := range i.CallArgs {
		use(a)
	}
	return ready
}

// recordDef updates the scoreboard for a register written by i at cycle
// start.
func (st *runState) recordDef(fr *frame, r ir.Reg, i *ir.Instr, start int64) {
	d := st.opts.Machine
	if d == nil || !r.Valid() {
		return
	}
	fr.avail[r.Class][r.Num] = start + int64(d.Exec(i.Op))
	fr.prod[r.Class][r.Num] = i
}

// slot resolves a frame-local reference to an index into fr.slots.
func (st *runState) slot(fr *frame, m *ir.Mem) (int64, error) {
	if m.Off%ir.WordSize != 0 {
		return 0, fmt.Errorf("sim: unaligned frame access (%s)", m)
	}
	w := m.Off / ir.WordSize
	if w < 0 || w >= int64(len(fr.slots)) {
		return 0, fmt.Errorf("sim: frame offset %d outside frame of %d words", m.Off, len(fr.slots))
	}
	return w, nil
}

// loadWord reads the word memory operand m of instruction id names.
func (st *runState) loadWord(fr *frame, id int, m *ir.Mem) (int64, error) {
	if m.Frame {
		w, err := st.slot(fr, m)
		if err != nil {
			return 0, err
		}
		return fr.slots[w], nil
	}
	w, err := st.addr(fr, id, m)
	if err != nil {
		return 0, err
	}
	return st.mem[w], nil
}

// storeWord writes v to the word memory operand m of instruction id
// names.
func (st *runState) storeWord(fr *frame, id int, m *ir.Mem, v int64) error {
	if m.Frame {
		w, err := st.slot(fr, m)
		if err != nil {
			return err
		}
		fr.slots[w] = v
		return nil
	}
	w, err := st.addr(fr, id, m)
	if err != nil {
		return err
	}
	st.mem[w] = v
	return nil
}

// addr resolves memory operand m of instruction id to a word index.
func (st *runState) addr(fr *frame, id int, m *ir.Mem) (int64, error) {
	var a int64
	if m.Sym != "" {
		if id < len(fr.symAt) && fr.symAt[id].mem == m && fr.symAt[id].sym == m.Sym {
			a += fr.symAt[id].addr
		} else {
			base, ok := st.m.symBase[m.Sym]
			if !ok {
				return 0, fmt.Errorf("sim: unknown symbol %q", m.Sym)
			}
			a += base
		}
	}
	if m.Base.Valid() {
		a += fr.get(m.Base)
	}
	a += m.Off
	if a%ir.WordSize != 0 {
		return 0, fmt.Errorf("sim: unaligned access at address %d (%s)", a, m)
	}
	w := a / ir.WordSize
	if w < 0 || w >= int64(len(st.mem)) {
		return 0, fmt.Errorf("sim: address %d out of range (%s)", a, m)
	}
	return w, nil
}

const (
	bitLT = 1 << ir.BitLT
	bitGT = 1 << ir.BitGT
	bitEQ = 1 << ir.BitEQ
)

// call runs function f to completion and returns its result.
func (st *runState) call(f *ir.Func, args []int64, caller *ir.Instr, callStart int64) (int64, error) {
	if st.depth == len(st.frames) {
		st.frames = append(st.frames, new(frame))
	}
	fr := st.frames[st.depth]
	fr.enter(st.m, f)
	st.depth++
	defer func() { st.depth-- }()
	for k, p := range f.Params {
		fr.set(p, args[k])
		if caller != nil {
			st.recordDef(fr, p, caller, callStart)
		}
	}
	b := f.Blocks[0]
	pc := 0
	for {
		if pc >= len(b.Instrs) {
			// Fallthrough to the next block.
			if b.Index+1 >= len(f.Blocks) {
				return 0, fmt.Errorf("sim: %s: fell off the end of function", f.Name)
			}
			b = f.Blocks[b.Index+1]
			pc = 0
			continue
		}
		watching := pc == 0 && st.opts.Watch != nil &&
			st.opts.Watch.Func == f.Name && st.opts.Watch.Block == b.Index
		i := b.Instrs[pc]
		pc++
		st.res.Instrs++
		if st.res.Instrs > st.opts.MaxInstrs {
			return 0, fmt.Errorf("%w (%d)", errLimit, st.opts.MaxInstrs)
		}
		skipCmpDelay := false
		if i.Op == ir.OpBC && st.opts.Machine != nil && st.opts.Machine.TakenOnlyBranchDelay {
			taken := (fr.get(i.A)&(1<<i.CRBit) != 0) == i.OnTrue
			skipCmpDelay = !taken
		}
		start := st.issue(i, st.operandReady(fr, i, skipCmpDelay))
		if watching {
			st.res.Watch = append(st.res.Watch, start)
		}
		if st.opts.CountInstrs {
			if st.res.PerInstr == nil {
				st.res.PerInstr = make(map[string]int64)
			}
			st.res.PerInstr[fmt.Sprintf("%s/%d", f.Name, i.ID)]++
		}
		if st.opts.Trace != nil {
			limit := st.opts.TraceLimit
			if limit == 0 {
				limit = 200
			}
			if st.traced < limit {
				st.traced++
				unit := "-"
				if st.opts.Machine != nil {
					unit = i.Op.Unit().String()
				}
				fmt.Fprintf(st.opts.Trace, "c%-5d %-6s %s: %s\n", start, unit, f.Name, i)
			}
		}

		switch i.Op {
		case ir.OpNop:
		case ir.OpLI:
			fr.set(i.Def, i.Imm)
		case ir.OpLR:
			fr.set(i.Def, fr.get(i.A))
		case ir.OpLoad:
			v, err := st.loadWord(fr, i.ID, i.Mem)
			if err != nil {
				if !st.opts.ForgivingLoads {
					return 0, err
				}
				v = 0
			}
			fr.set(i.Def, v)
		case ir.OpLoadU:
			v, err := st.loadWord(fr, i.ID, i.Mem)
			if err != nil {
				if !st.opts.ForgivingLoads {
					return 0, err
				}
				v = 0
			}
			fr.set(i.Def, v)
			fr.set(i.Def2, fr.get(i.Mem.Base)+i.Mem.Off)
		case ir.OpStore:
			if err := st.storeWord(fr, i.ID, i.Mem, fr.get(i.A)); err != nil {
				return 0, err
			}
		case ir.OpStoreU:
			if err := st.storeWord(fr, i.ID, i.Mem, fr.get(i.A)); err != nil {
				return 0, err
			}
			fr.set(i.Def2, fr.get(i.Mem.Base)+i.Mem.Off)
		case ir.OpB:
			t := f.BlockByLabel(i.Target)
			if t == nil {
				return 0, fmt.Errorf("sim: %s: missing label %q", f.Name, i.Target)
			}
			b, pc = t, 0
			continue
		case ir.OpBC:
			bit := fr.get(i.A)&(1<<i.CRBit) != 0
			if st.opts.Profile != nil {
				st.opts.Profile.Record(f.Name, i.ID, bit == i.OnTrue)
			}
			if bit == i.OnTrue {
				t := f.BlockByLabel(i.Target)
				if t == nil {
					return 0, fmt.Errorf("sim: %s: missing label %q", f.Name, i.Target)
				}
				b, pc = t, 0
			}
			continue
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			a := math.Float64frombits(uint64(fr.get(i.A)))
			bb := math.Float64frombits(uint64(fr.get(i.B)))
			var v float64
			switch i.Op {
			case ir.OpFAdd:
				v = a + bb
			case ir.OpFSub:
				v = a - bb
			case ir.OpFMul:
				v = a * bb
			default:
				v = a / bb // IEEE: /0 gives ±Inf, no trap
			}
			fr.set(i.Def, int64(math.Float64bits(v)))
		case ir.OpFNeg:
			fr.set(i.Def, int64(math.Float64bits(-math.Float64frombits(uint64(fr.get(i.A))))))
		case ir.OpFMove:
			fr.set(i.Def, fr.get(i.A))
		case ir.OpFCmp:
			a := math.Float64frombits(uint64(fr.get(i.A)))
			bb := math.Float64frombits(uint64(fr.get(i.B)))
			var bits int64
			switch {
			case a < bb:
				bits = bitLT
			case a > bb:
				bits = bitGT
			case a == bb:
				bits = bitEQ
			} // NaN: no bit set (unordered)
			fr.set(i.Def, bits)
		case ir.OpFCvt:
			fr.set(i.Def, int64(math.Float64bits(float64(fr.get(i.A)))))
		case ir.OpFTrunc:
			v := math.Float64frombits(uint64(fr.get(i.A)))
			if math.IsNaN(v) {
				fr.set(i.Def, 0)
			} else {
				fr.set(i.Def, int64(v))
			}
		case ir.OpFLoad:
			v, err := st.loadWord(fr, i.ID, i.Mem)
			if err != nil {
				if !st.opts.ForgivingLoads {
					return 0, err
				}
				v = 0
			}
			fr.set(i.Def, v)
		case ir.OpFStore:
			if err := st.storeWord(fr, i.ID, i.Mem, fr.get(i.A)); err != nil {
				return 0, err
			}
		case ir.OpBCT:
			v := fr.get(i.A) - 1
			fr.set(i.A, v)
			st.recordDef(fr, i.A, i, start)
			if v != 0 {
				tgt := f.BlockByLabel(i.Target)
				if tgt == nil {
					return 0, fmt.Errorf("sim: %s: missing label %q", f.Name, i.Target)
				}
				b, pc = tgt, 0
			}
			continue
		case ir.OpCall:
			// The callee copies its arguments on entry and print copies
			// them too, so the frame's buffer serves every call it makes.
			fr.args = fr.args[:0]
			for _, a := range i.CallArgs {
				fr.args = append(fr.args, fr.get(a))
			}
			ret, err := st.dispatch(i, fr.args, start)
			if err != nil {
				return 0, err
			}
			if i.Def.Valid() {
				fr.set(i.Def, ret)
				// The result is available when the callee finished.
				if st.opts.Machine != nil {
					fr.avail[i.Def.Class][i.Def.Num] = st.prevStart + 1
					fr.prod[i.Def.Class][i.Def.Num] = i
				}
			}
			continue
		case ir.OpRet:
			var v int64
			if i.A.Valid() {
				v = fr.get(i.A)
			}
			return v, nil
		default:
			// The integer operations, by their one evaluation in ir.
			fm := i.Op.Form()
			if fm.Eval == nil {
				return 0, fmt.Errorf("sim: %s: cannot execute %s", f.Name, i)
			}
			y := i.Imm
			if fm.RegB {
				y = fr.get(i.B)
			}
			if fm.Traps && y == 0 {
				return 0, fmt.Errorf("sim: %s: division by zero (%s)", f.Name, i)
			}
			fr.set(i.Def, fm.Eval(fr.get(i.A), y))
		}
		// Default register result accounting for straight-line ops.
		st.recordDef(fr, i.Def, i, start)
		st.recordDef(fr, i.Def2, i, start)
	}
}

// dispatch runs a call target: a builtin or a defined function.
func (st *runState) dispatch(call *ir.Instr, args []int64, start int64) (int64, error) {
	switch call.Target {
	case "print", "putchar":
		st.res.Printed = append(st.res.Printed, args...)
		return 0, nil
	case "abort":
		return 0, errAbort
	}
	callee := st.m.prog.Func(call.Target)
	if callee == nil {
		return 0, fmt.Errorf("sim: call to undefined function %q", call.Target)
	}
	if len(args) != len(callee.Params) {
		return 0, fmt.Errorf("sim: %s takes %d arguments, got %d", callee.Name, len(callee.Params), len(args))
	}
	return st.call(callee, args, call, start)
}

// PrintedString renders the print record as a space-separated string,
// convenient in tests and examples.
func (r *Result) PrintedString() string {
	var sb strings.Builder
	for k, v := range r.Printed {
		if k > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	return sb.String()
}
