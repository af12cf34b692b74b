// Property tests for the two legality rules that guard level=dup: the
// Definition-6 coverage rule (the original plus its copies must cover
// every predecessor of the home join) and the §5.3 off-path liveness
// rule (a duplicated or speculated definition must not clobber a value
// observed on paths that bypass its home block). The external test
// package breaks the import cycle with internal/core, which imports
// this package for VerifyRules.
package verify_test

import (
	"context"
	"strings"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/profile"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/verify"
	"gsched/internal/xform"
)

// TestPropertyLevelDupSchedulesVerify sweeps generated programs through
// the real scheduler at level=dup with a trained edge profile and
// demands the independent verifier accept every schedule — the
// randomized half of the Def-6/§5.3 properties: whatever duplication
// and probability-gated speculation the scheduler performs, coverage
// and off-path liveness hold. The corpus is chosen so dup-motion
// actually fires (asserted), not just permitted.
func TestPropertyLevelDupSchedulesVerify(t *testing.T) {
	const seeds = 10
	totalDup := 0
	for seed := int64(0); seed < seeds; seed++ {
		p := progen.New(seed)
		train, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof := profile.New()
		m, err := sim.Load(train)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := m.Run(p.Entry, p.Args, nil, sim.Options{Profile: prof, MaxInstrs: 20_000_000}); err != nil {
			t.Fatalf("seed %d: training run: %v", seed, err)
		}

		prog, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := core.Defaults(machine.RS6K(), core.LevelDup)
		opts.Profile = prof
		opts.Rename = false // snapshots must see exactly what the scheduler saw
		vers := make([]*verify.Verifier, len(prog.Funcs))
		for fi, f := range prog.Funcs {
			vers[fi] = new(verify.Verifier)
			vers[fi].Capture(f)
		}
		st, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{})
		if err != nil {
			t.Fatalf("seed %d: schedule: %v", seed, err)
		}
		totalDup += st.DuplicatedMoves
		rules := opts.VerifyRules()
		for fi, f := range prog.Funcs {
			if err := vers[fi].Check(f, rules); err != nil {
				t.Errorf("seed %d %s: level=dup schedule rejected: %v", seed, f.Name, err)
			}
		}
	}
	if totalDup == 0 {
		t.Errorf("no Definition-6 duplication across %d seeds; the property was vacuous", seeds)
	}
}

// dupSrc has a join with THREE predecessors (the entry's branch, a
// second branch, and a fallthrough) whose first instruction the tests
// duplicate by hand, mimicking Def-6 motion. Three predecessors matter:
// with two copies placed, the third predecessor can be left uncovered
// without the schedule degenerating into a legal single-copy motion.
// Blocks: 0 entry, 1 CL.a, 2 CL.b, 3 CL.j.
const dupSrc = `func f r1:
	C cr0=r1,r1
	BT CL.j,cr0,lt
CL.a:
	C cr1=r1,r1
	BT CL.j,cr1,gt
CL.b:
	AI r1=r1,1
CL.j:
	LI r2=7
	A r3=r2,r1
	RET r3
`

// dupRules is the level=dup configuration of the verifier.
var dupRules = verify.Rules{CrossBlock: true, MaxSpecDepth: 1, SpeculateLoads: true, AllowDuplication: true}

// dupLI captures f, then moves the join's LI into the first listed
// block and plants fresh-ID clones in the rest, each placed just above
// its block's terminator, returning the snapshot.
func dupLI(t *testing.T, f *ir.Func, into ...int) *verify.Verifier {
	t.Helper()
	ver := new(verify.Verifier)
	ver.Capture(f)
	j := f.Blocks[len(f.Blocks)-1]
	li := j.Instrs[0]
	j.Instrs = j.Instrs[1:]
	insert := func(bi int, ins *ir.Instr) {
		blk := f.Blocks[bi]
		at := len(blk.Instrs)
		if term := blk.Terminator(); term != nil {
			at--
		}
		blk.Instrs = append(blk.Instrs[:at], append([]*ir.Instr{ins}, blk.Instrs[at:]...)...)
	}
	insert(into[0], li)
	for _, bi := range into[1:] {
		insert(bi, f.CloneInstr(li))
	}
	return ver
}

// TestDef6CoverageAccepted: copies in all three predecessors of the
// join — the canonical Definition-6 shape — are legal.
func TestDef6CoverageAccepted(t *testing.T) {
	prog, err := asm.Parse(dupSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[0]
	ver := dupLI(t, f, 0, 1, 2)
	if err := ver.Check(f, dupRules); err != nil {
		t.Fatalf("legal duplication rejected: %v", err)
	}
}

// TestDef6CoverageViolation is the coverage property's negative half:
// copies in CL.a and CL.b cover the fallthrough chain, but the entry's
// direct branch into the join executes no copy — coverage is a path
// property, and the verifier must name the uncovered predecessor. (A
// copy in the entry instead would transitively cover everything, which
// is why the uncovered case must avoid it.)
func TestDef6CoverageViolation(t *testing.T) {
	prog, err := asm.Parse(dupSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[0]
	ver := dupLI(t, f, 1, 2) // entry (block 0, a branch pred of the join) uncovered
	err = ver.Check(f, dupRules)
	if err == nil {
		t.Fatal("uncovered join predecessor accepted")
	}
	if !strings.Contains(err.Error(), "no covering copy") {
		t.Errorf("unexpected diagnostic: %v", err)
	}
}

// TestDef6DisabledViolation: the same legal shape must be rejected when
// the rules do not allow duplication (a level below dup).
func TestDef6DisabledViolation(t *testing.T) {
	prog, err := asm.Parse(dupSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[0]
	ver := dupLI(t, f, 0, 1, 2)
	rules := dupRules
	rules.AllowDuplication = false
	err = ver.Check(f, rules)
	if err == nil {
		t.Fatal("duplication accepted with AllowDuplication off")
	}
	if !strings.Contains(err.Error(), "duplication is disabled") {
		t.Errorf("unexpected diagnostic: %v", err)
	}
}

// offPathSrc extends the diamond with a bypass: the entry branch can
// skip the join entirely and land in CL.out, which reads the incoming
// r2 — the register the join's LI overwrites.
const offPathSrc = `func f r1 r2:
	C cr0=r1,r1
	BT CL.out,cr0,lt
CL.p1:
	C cr1=r1,r1
	BT CL.j,cr1,gt
CL.p2:
	AI r1=r1,1
CL.j:
	LI r2=7
	A r3=r2,r1
	B CL.end
CL.out:
	A r3=r2,r2
CL.end:
	RET r3
`

// TestDef6OffPathLivenessViolation is the §5.3 property's negative
// half for duplication: a copy hoisted into the entry block covers both
// join predecessors (blocks 1 and 2 are only reachable through it) but
// its definition of r2 clobbers the incoming r2 still read on the
// bypass path entry -> CL.out. Blocks: 0 entry, 1 CL.p1, 2 CL.p2,
// 3 CL.j, 4 CL.out, 5 CL.end.
func TestDef6OffPathLivenessViolation(t *testing.T) {
	prog, err := asm.Parse(offPathSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[0]
	ver := new(verify.Verifier)
	ver.Capture(f)
	j := f.Blocks[3]
	li := j.Instrs[0]
	j.Instrs = j.Instrs[1:]
	// Original into CL.p2 (directly covers it), clone into the entry
	// (covers CL.p1 upstream — and leaks onto the CL.out path).
	p2 := f.Blocks[2]
	p2.Instrs = append(p2.Instrs, li)
	entry := f.Blocks[0]
	clone := f.CloneInstr(li)
	entry.Instrs = append(entry.Instrs[:1], append([]*ir.Instr{clone}, entry.Instrs[1:]...)...)
	err = ver.Check(f, dupRules)
	if err == nil {
		t.Fatal("off-path clobber accepted")
	}
	if !strings.Contains(err.Error(), "live on paths bypassing") {
		t.Errorf("unexpected diagnostic: %v", err)
	}
}

// TestDef6OffPathLivenessAccepted is the positive half: with the copies
// placed in the join's true predecessors (CL.p1 and CL.p2), every
// execution of a copy flows into the join and the bypass path never
// sees the new r2 — legal.
func TestDef6OffPathLivenessAccepted(t *testing.T) {
	prog, err := asm.Parse(offPathSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[0]
	ver := new(verify.Verifier)
	ver.Capture(f)
	j := f.Blocks[3]
	li := j.Instrs[0]
	j.Instrs = j.Instrs[1:]
	p1, p2 := f.Blocks[1], f.Blocks[2]
	p2.Instrs = append(p2.Instrs, li)
	clone := f.CloneInstr(li)
	p1.Instrs = append(p1.Instrs[:1], append([]*ir.Instr{clone}, p1.Instrs[1:]...)...)
	if err := ver.Check(f, dupRules); err != nil {
		t.Fatalf("legal duplication rejected: %v", err)
	}
}
