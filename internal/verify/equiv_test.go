package verify_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// equivCorpus returns the programs the equivalence tests schedule:
// generated mini-C mains (with the entry and arguments a training run
// needs), functions of a generated huge assembly program, and the
// committed difftest reproducers.
func equivCorpus(t *testing.T) (progs []*ir.Program, entries []*progen.Program) {
	t.Helper()
	small := progen.Size{Stmts: 10, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3}
	for seed := int64(1); seed <= 5; seed++ {
		sz := small
		if seed == 5 {
			sz = bigMainSize
		}
		pg := progen.NewSized(seed, sz)
		prog, err := minic.Compile(pg.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, prog)
		entries = append(entries, pg)
	}
	huge, err := asm.Parse(progen.Huge(1, 1500).Source)
	if err != nil {
		t.Fatalf("huge: %v", err)
	}
	progs = append(progs, huge)
	entries = append(entries, nil)
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "difftest", "*.asm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		progs = append(progs, prog)
		entries = append(entries, nil)
	}
	return progs, entries
}

// scheduledCorpus schedules every corpus program at the given level
// (training an edge profile first where the program can run) and
// returns each function with its pre-schedule snapshot.
func scheduledCorpus(t *testing.T, level core.Level) (vers []*verify.Verifier, funcs []*ir.Func, rules verify.Rules, st core.Stats) {
	t.Helper()
	progs, entries := equivCorpus(t)
	opts := core.Defaults(machine.RS6K(), level)
	opts.Rename = false // snapshots must see exactly what the scheduler saw
	opts.Parallelism = 1
	for i, prog := range progs {
		o := opts
		if pg := entries[i]; pg != nil && level == core.LevelDup {
			train, err := minic.Compile(pg.Source)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.Load(train)
			if err != nil {
				t.Fatal(err)
			}
			o.Profile = profile.New()
			if _, err := m.Run(pg.Entry, pg.Args, nil, sim.Options{Profile: o.Profile, MaxInstrs: 20_000_000}); err != nil {
				t.Fatalf("training run: %v", err)
			}
		}
		for _, f := range prog.Funcs {
			ver := new(verify.Verifier)
			ver.Capture(f)
			vers = append(vers, ver)
			funcs = append(funcs, f)
		}
		s, err := xform.RunProgramCtx(context.Background(), prog, o, xform.Config{})
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		st.Add(s.Stats)
	}
	return vers, funcs, opts.VerifyRules(), st
}

// corrupt applies one random edit to f's layout, drawn from the first
// kinds of: an in-block swap, a move to another block, a dropped
// instruction, a fresh-ID copy, the same instruction placed twice, or
// an altered instruction. It never mutates an instruction in place, so
// restoring the block slices undoes it.
func corrupt(r *rand.Rand, f *ir.Func, kinds int) {
	var nonEmpty []*ir.Block
	for _, b := range f.Blocks {
		if len(b.Instrs) > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) == 0 {
		return
	}
	src := nonEmpty[r.Intn(len(nonEmpty))]
	at := r.Intn(len(src.Instrs))
	ins := src.Instrs[at]
	dst := f.Blocks[r.Intn(len(f.Blocks))]
	insert := func(b *ir.Block, x *ir.Instr) {
		k := r.Intn(len(b.Instrs) + 1)
		b.Instrs = append(b.Instrs[:k:k], append([]*ir.Instr{x}, b.Instrs[k:]...)...)
	}
	remove := func() {
		src.Instrs = append(src.Instrs[:at:at], src.Instrs[at+1:]...)
	}
	switch r.Intn(kinds) {
	case 0: // swap within the block
		other := r.Intn(len(src.Instrs))
		s := append([]*ir.Instr(nil), src.Instrs...)
		s[at], s[other] = s[other], s[at]
		src.Instrs = s
	case 1: // move across blocks
		remove()
		insert(dst, ins)
	case 2: // drop
		remove()
	case 3: // duplicate under a fresh ID
		insert(dst, f.CloneInstr(ins))
	case 4: // the same instruction twice
		insert(dst, ins)
	case 5: // alter
		altered := *ins
		altered.Imm++
		s := append([]*ir.Instr(nil), src.Instrs...)
		s[at] = &altered
		src.Instrs = s
	}
}

// TestIndexedCheckMatchesAllPairs corrupts real schedules at
// level=speculative and level=dup and demands that Check report exactly
// the violations, in exactly the order, of the reference checker that
// derives dependences from every instruction pair; and that the indexed
// §5.3 liveness agrees with the whole-program reference on every query.
func TestIndexedCheckMatchesAllPairs(t *testing.T) {
	for _, level := range []core.Level{core.LevelSpeculative, core.LevelDup} {
		vers, funcs, rules, st := scheduledCorpus(t, level)
		r := rand.New(rand.NewSource(int64(level)))
		var checks, queries int
		byRule := map[string]int{}
		for i, f := range funcs {
			saved := make([][]*ir.Instr, len(f.Blocks))
			for bi, b := range f.Blocks {
				saved[bi] = b.Instrs
			}
			for variant := 0; variant < 8; variant++ {
				for k := 0; k < (variant+1)/2; k++ {
					corrupt(r, f, 6)
				}
				got := vers[i].Check(f, rules)
				want := verify.CheckReference(vers[i], f, rules)
				if !sameViolations(got, want) {
					t.Fatalf("level %v %s variant %d: indexed and all-pairs checks differ\nindexed: %v\nreference: %v",
						level, f.Name, variant, got, want)
				}
				if e, ok := got.(*verify.Error); ok {
					for _, v := range e.Violations {
						byRule[v.Rule]++
					}
				}
				n, diffs := verify.OffPathMismatches(vers[i], f, rules)
				queries += n
				for _, d := range diffs {
					t.Errorf("level %v %s variant %d: off-path liveness: %s", level, f.Name, variant, d)
				}
				checks++
				for bi, b := range f.Blocks {
					b.Instrs = saved[bi]
				}
			}
		}
		t.Logf("level %v: %d functions (%d speculative, %d duplicated moves), %d checks, %d liveness queries, violations %v",
			level, len(funcs), st.SpeculativeMoves, st.DuplicatedMoves, checks, queries, byRule)
		if byRule["dependence"] == 0 || queries == 0 {
			t.Errorf("level %v: the comparison was vacuous", level)
		}
	}
}

// TestVerifierReuseMatchesFresh checks every function of the corpus,
// larger and smaller in turn, on one Verifier, as a driver worker does,
// and demands the verdict of a Verifier used once: storage kept from an
// earlier function must never leak into a later one's report. Each
// function is snapshotted as scheduled and then corrupted, so most
// checks find violations and the legal ones run the full analysis.
func TestVerifierReuseMatchesFresh(t *testing.T) {
	_, funcs, rules, _ := scheduledCorpus(t, core.LevelDup)
	r := rand.New(rand.NewSource(1))
	var shared verify.Verifier
	found := 0
	for _, f := range funcs {
		saved := make([][]*ir.Instr, len(f.Blocks))
		for bi, b := range f.Blocks {
			saved[bi] = b.Instrs
		}
		for variant := 0; variant < 4; variant++ {
			shared.Capture(f)
			fresh := new(verify.Verifier)
			fresh.Capture(f)
			for k := 0; k < variant; k++ {
				corrupt(r, f, 6)
			}
			got, want := shared.Check(f, rules), fresh.Check(f, rules)
			if !sameViolations(got, want) {
				t.Fatalf("%s variant %d: reused and fresh verifiers differ\nreused: %v\nfresh: %v", f.Name, variant, got, want)
			}
			if got != nil {
				found++
			}
			for bi, b := range f.Blocks {
				b.Instrs = saved[bi]
			}
		}
	}
	if found == 0 {
		t.Error("no check found a violation: the comparison was vacuous")
	}
}

// TestPostPassCheckMatchesAllPairs corrupts basic-block post-pass
// brackets, checked under verify.Rules{} as the driver checks them, and
// demands that Check equal the all-pairs reference exactly. In-block
// swaps keep every instruction at home, so Check takes its block-local
// path; moves, drops, copies and alterations take the full path. Both
// paths must be exercised, the block-local one on reports of at least
// two dependence violations, whose order the sorted rerun fixes.
func TestPostPassCheckMatchesAllPairs(t *testing.T) {
	progs, _ := equivCorpus(t)
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Rename = false // snapshots must see exactly what the scheduler saw
	opts.Parallelism = 1
	r := rand.New(rand.NewSource(1))
	var local, localMulti, full int
	for _, prog := range progs {
		for _, f := range prog.Funcs {
			ver := postPass(t, f, opts)
			if err := ver.Check(f, verify.Rules{}); err != nil {
				t.Fatalf("%s: legal post-pass rejected: %v", f.Name, err)
			}
			saved := make([][]*ir.Instr, len(f.Blocks))
			for bi, b := range f.Blocks {
				saved[bi] = b.Instrs
			}
			for variant := 0; variant < 8; variant++ {
				kinds := 1 // in-block swaps only
				if variant >= 4 {
					kinds = 6
				}
				for k := 0; k <= variant%4; k++ {
					corrupt(r, f, kinds)
				}
				got := ver.Check(f, verify.Rules{})
				want := verify.CheckReference(ver, f, verify.Rules{})
				if !sameViolations(got, want) {
					t.Fatalf("%s variant %d: indexed and all-pairs checks differ\nindexed: %v\nreference: %v",
						f.Name, variant, got, want)
				}
				if verify.BlockLocal(ver, f) {
					local++
					if dependenceViolations(got) >= 2 {
						localMulti++
					}
				} else {
					full++
				}
				for bi, b := range f.Blocks {
					b.Instrs = saved[bi]
				}
			}
		}
	}
	t.Logf("%d block-local checks (%d with two or more dependence violations), %d full checks", local, localMulti, full)
	if local == 0 || localMulti == 0 || full == 0 {
		t.Error("the comparison was vacuous on one of the paths")
	}
}

func dependenceViolations(err error) int {
	n := 0
	if e, ok := err.(*verify.Error); ok {
		for _, v := range e.Violations {
			if v.Rule == "dependence" {
				n++
			}
		}
	}
	return n
}

func sameViolations(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ea, oka := a.(*verify.Error)
	eb, okb := b.(*verify.Error)
	return oka && okb && reflect.DeepEqual(ea.Violations, eb.Violations)
}
