package verify

import (
	"strings"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/ir"
)

// allRules mirrors the paper's most permissive configuration: 1-branch
// speculation with loads and duplication allowed.
var allRules = Rules{CrossBlock: true, MaxSpecDepth: 1, SpeculateLoads: true, AllowDuplication: true}

func parseFunc(t *testing.T, src string) *ir.Func {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Funcs) != 1 {
		t.Fatalf("want one function, got %d", len(prog.Funcs))
	}
	return prog.Funcs[0]
}

// moveInstr removes the instruction at (fb, fp) and inserts it at
// position tp of block tb, simulating a hand-built (il)legal schedule.
func moveInstr(f *ir.Func, fb, fp, tb, tp int) {
	b := f.Blocks[fb]
	ins := b.Instrs[fp]
	b.Instrs = append(b.Instrs[:fp], b.Instrs[fp+1:]...)
	dst := f.Blocks[tb]
	dst.Instrs = append(dst.Instrs[:tp], append([]*ir.Instr{ins}, dst.Instrs[tp:]...)...)
}

// wantViolation asserts that Check rejects f with a violation of the
// given rule whose message contains msg.
func wantViolation(t *testing.T, v *Verifier, f *ir.Func, rules Rules, rule, msg string) {
	t.Helper()
	err := v.Check(f, rules)
	if err == nil {
		t.Fatalf("illegal schedule accepted (want [%s] %q)", rule, msg)
	}
	verr, ok := err.(*checkError)
	if !ok {
		t.Fatalf("unexpected error type %T: %v", err, err)
	}
	for _, v := range verr.Violations {
		if v.Rule == rule && strings.Contains(v.Msg, msg) {
			return
		}
	}
	t.Fatalf("no [%s] violation containing %q; got:\n%v", rule, msg, err)
}

// TestAcceptsUntouchedSchedule: the identity schedule is legal.
func TestAcceptsUntouchedSchedule(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=1
	A r3=r2,r1
	RET r3
`)
	var v Verifier
	v.Capture(f)
	if err := v.Check(f, Rules{}); err != nil {
		t.Fatalf("identity schedule rejected: %v", err)
	}
}

// TestRejectsReorderedFlowDep: swapping a definition below its use
// breaks a flow dependence inside one block.
func TestRejectsReorderedFlowDep(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=1
	A r3=r2,r1
	RET r3
`)
	var v Verifier
	v.Capture(f)
	moveInstr(f, 0, 0, 0, 1) // LI r2 now after the A that reads r2
	wantViolation(t, &v, f, allRules, "dependence", "flow dependence")
}

// TestRejectsSpeculativeStore: a store hoisted above the branch that
// guarded it executes on paths where the original program never stored.
func TestRejectsSpeculativeStore(t *testing.T) {
	f := parseFunc(t, `data g 64
func f r1:
	C cr0=r1,r1
	BT CL.join,cr0,lt
CL.then:
	ST g(r1,0)=r1
CL.join:
	RET r1
`)
	var v Verifier
	v.Capture(f)
	moveInstr(f, 1, 0, 0, 1) // ST into the entry block, before the BT
	wantViolation(t, &v, f, allRules, "speculative", "may not execute speculatively")
}

// TestRejectsSpeculationPastDepthLimit: a motion that gambles on two
// branches is illegal when the configured degree is one.
func TestRejectsSpeculationPastDepthLimit(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=0
	C cr0=r1,r1
	BT CL.x,cr0,lt
CL.a:
	C cr1=r1,r1
	BT CL.x,cr1,gt
CL.b:
	AI r2=r2,7
CL.x:
	RET r2
`)
	var v Verifier
	v.Capture(f)
	moveInstr(f, 2, 0, 0, 1) // AI from under two branches into the entry
	wantViolation(t, &v, f, allRules, "speculative", "gambles on 2 branches")
}

// TestRejectsOffPathClobber: the hoisted definition overwrites a
// register that paths bypassing its home block still read (§5.3).
func TestRejectsOffPathClobber(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=5
	C cr0=r1,r1
	BT CL.skip,cr0,lt
CL.then:
	LI r2=9
CL.skip:
	RET r2
`)
	var v Verifier
	v.Capture(f)
	moveInstr(f, 1, 0, 0, 1) // LI r2=9 into the entry: clobbers r2=5 on the skip path
	wantViolation(t, &v, f, allRules, "speculative", "live on paths bypassing")
}

// TestAcceptsLegalSpeculation: the same motion shape is legal when the
// moved definition targets a register dead on the off-path.
func TestAcceptsLegalSpeculation(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=5
	C cr0=r1,r1
	BT CL.skip,cr0,lt
CL.then:
	LI r3=9
	A r2=r2,r3
CL.skip:
	RET r2
`)
	var v Verifier
	v.Capture(f)
	moveInstr(f, 1, 0, 0, 1) // LI r3=9 into the entry: r3 is dead on the skip path
	if err := v.Check(f, allRules); err != nil {
		t.Fatalf("legal speculative motion rejected: %v", err)
	}
}

// TestRejectsCrossBlockWhenDisabled: with CrossBlock off, even a legal
// speculative shape must be reported.
func TestRejectsCrossBlockWhenDisabled(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=5
	C cr0=r1,r1
	BT CL.skip,cr0,lt
CL.then:
	LI r3=9
	A r2=r2,r3
CL.skip:
	RET r2
`)
	var v Verifier
	v.Capture(f)
	moveInstr(f, 1, 0, 0, 1)
	wantViolation(t, &v, f, Rules{}, "cross-block", "disabled")
}

// TestRejectsLostInstruction: dropping an instruction is caught by
// accounting.
func TestRejectsLostInstruction(t *testing.T) {
	f := parseFunc(t, `func f r1:
	LI r2=1
	A r3=r2,r1
	RET r3
`)
	var v Verifier
	v.Capture(f)
	b := f.Blocks[0]
	b.Instrs = append(b.Instrs[:1], b.Instrs[2:]...) // drop the A
	wantViolation(t, &v, f, Rules{}, "accounting", "lost")
}

// TestRegisterOutsideFileIsAViolation: Check indexes registers by
// number, so a function that skipped ir.(*Func).Validate and names a
// register past ir.MaxRegs (or an absent call argument) gets a
// violation, not a huge table or an index panic.
func TestRegisterOutsideFileIsAViolation(t *testing.T) {
	for _, r := range []ir.Reg{ir.GPR(1999999999), ir.NoReg} {
		f := ir.NewFunc("f")
		b := ir.NewBuilder(f)
		b.Block("e")
		b.Call(ir.NoReg, "print", r)
		b.Ret(ir.NoReg)
		var v Verifier
		v.Capture(f)
		wantViolation(t, &v, f, Rules{}, "structure", "outside the register file")
	}
}
