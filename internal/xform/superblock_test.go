package xform

import (
	"context"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/profile"
	"gsched/internal/sim"
)

// hotIfSrc has a join block fed by a heavily biased branch: the `if`
// arm almost never runs, so nearly every execution flows from the test
// straight into the code after the if — a side entrance the superblock
// former should remove by tail duplication.
const hotIfSrc = `
int acc = 0;
int f(int n) {
    for (int i = 0; i < n; i++) {
        if (i == 1) {
            acc += 1000;
        }
        acc += i;
        acc = acc ^ 3;
    }
    return acc;
}
`

// trainProfile compiles src, runs entry(args) functionally, and returns
// the program's edge profile.
func trainProfile(t *testing.T, src, entry string, args []int64) *profile.Profile {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prof := profile.New()
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(entry, args, nil, sim.Options{Profile: prof}); err != nil {
		t.Fatalf("training run: %v", err)
	}
	return prof
}

func TestFormSuperblocksDuplicatesHotJoin(t *testing.T) {
	prof := trainProfile(t, hotIfSrc, "f", []int64{100})

	prog, err := minic.Compile(hotIfSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run("f", []int64{100}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	f := prog.Func("f")
	before := len(f.Blocks)
	formed := formSuperblocks(f, prof)
	if formed < 1 {
		t.Fatalf("formSuperblocks = %d, want >= 1 on the biased if\n%s", formed, f)
	}
	if len(f.Blocks) <= before {
		t.Fatalf("no blocks added: %d -> %d", before, len(f.Blocks))
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("invalid ir after tail duplication: %v\n%s", err, f)
	}
	m2, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Run("f", []int64{100}, nil, sim.Options{})
	if err != nil {
		t.Fatalf("run after duplication: %v\n%s", err, f)
	}
	if got.Ret != want.Ret {
		t.Fatalf("behaviour changed: ret %d, want %d\n%s", got.Ret, want.Ret, f)
	}
}

func TestFormSuperblocksGates(t *testing.T) {
	// No profile, or an empty one: nothing happens.
	prog, err := minic.Compile(hotIfSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	if n := formSuperblocks(f, nil); n != 0 {
		t.Errorf("nil profile: formed %d", n)
	}
	if n := formSuperblocks(f, profile.New()); n != 0 {
		t.Errorf("empty profile: formed %d", n)
	}

	// A balanced branch (roughly 50/50) never clears superblockMinProb.
	balanced := `
int acc = 0;
int f(int n) {
    for (int i = 0; i < n; i++) {
        if (i - (i / 2) * 2 == 0) {
            acc += 7;
        }
        acc += i;
    }
    return acc;
}
`
	prof := trainProfile(t, balanced, "f", []int64{100})
	prog2, err := minic.Compile(balanced)
	if err != nil {
		t.Fatal(err)
	}
	if n := formSuperblocks(prog2.Func("f"), prof); n != 0 {
		t.Errorf("balanced branch: formed %d, want 0", n)
	}

	// A branch executed fewer than superblockMinCount times carries no signal.
	prof2 := trainProfile(t, hotIfSrc, "f", []int64{3})
	prog3, err := minic.Compile(hotIfSrc)
	if err != nil {
		t.Fatal(err)
	}
	if n := formSuperblocks(prog3.Func("f"), prof2); n != 0 {
		t.Errorf("cold branch: formed %d, want 0", n)
	}
}

// TestFormSuperblocksSkipsLoopHeaders pins the reducibility guard: a
// hot conditional edge into a loop header must not be duplicated, else
// the loop gains a second entry and §6 region scheduling degrades.
func TestFormSuperblocksSkipsLoopHeaders(t *testing.T) {
	f := ir.NewFunc("g")
	n := ir.GPR(1)
	f.Params = []ir.Reg{n}
	s, i := ir.GPR(2), ir.GPR(3)
	cr := ir.CR(0)
	b := ir.NewBuilder(f)

	b.Block("entry")
	b.LI(s, 0)
	b.LI(i, 0)

	// Loop header H: two predecessors (entry fallthrough, latch branch).
	b.Block("H")
	b.Op2(ir.OpAdd, s, s, i)
	b.AI(i, i, 1)
	b.Cmp(cr, i, n)
	b.BF("exit", cr, ir.BitLT) // hot edge while the loop spins: back to latch

	b.Block("latch")
	b.B("H")

	b.Block("exit")
	b.Ret(s)

	f.ReindexBlocks()
	p := ir.NewProgram()
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	// Hand-build a profile claiming H's exit test almost never exits:
	// the hot arm is the fallthrough into the latch, whose only job is
	// the back edge to H. Neither the back edge nor H may be duplicated.
	prof := profile.New()
	t1 := f.Blocks[1].Terminator()
	for k := 0; k < 100; k++ {
		prof.Record("g", t1.ID, false)
	}
	if nfo := formSuperblocks(f, prof); nfo != 0 {
		t.Errorf("loop header duplicated %d times, want 0\n%s", nfo, f)
	}
}

// TestLevelDupPipelineWithProfile runs the full §6 pipeline at
// level=dup with a trained profile and the legality verifier enabled:
// superblocks form, the schedule stays legal, and behaviour is
// unchanged.
func TestLevelDupPipelineWithProfile(t *testing.T) {
	prof := trainProfile(t, hotIfSrc, "f", []int64{100})

	base, err := minic.Compile(hotIfSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run("f", []int64{100}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	prog, err := minic.Compile(hotIfSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelDup)
	opts.Profile = prof
	opts.Verify = true
	st, err := RunProgramCtx(context.Background(), prog, opts, DefaultConfig())
	if err != nil {
		t.Fatalf("level=dup pipeline: %v", err)
	}
	if st.TailDuplicated < 1 {
		t.Errorf("TailDuplicated = %d, want >= 1", st.TailDuplicated)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("invalid ir after pipeline: %v", err)
	}
	m2, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Run("f", []int64{100}, nil, sim.Options{
		Machine: machine.RS6K(), ForgivingLoads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != want.Ret {
		t.Fatalf("behaviour changed: ret %d, want %d", got.Ret, want.Ret)
	}
}

func TestFormSuperblocksDeterministic(t *testing.T) {
	prof := trainProfile(t, hotIfSrc, "f", []int64{100})
	render := func() string {
		prog, err := minic.Compile(hotIfSrc)
		if err != nil {
			t.Fatal(err)
		}
		formSuperblocks(prog.Func("f"), prof)
		return asm.Print(prog)
	}
	if a, b := render(), render(); a != b {
		t.Errorf("tail duplication is not deterministic:\n%s\nvs\n%s", a, b)
	}
}
