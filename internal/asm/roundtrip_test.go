package asm_test

import (
	"context"
	"testing"
	"testing/quick"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// TestRoundTripProperty: for random generated programs (including ones
// transformed by the full scheduling pipeline), printing and reparsing
// the assembly yields a program with identical behaviour and a stable
// second printing.
func TestRoundTripProperty(t *testing.T) {
	property := func(seed int64, schedule bool) bool {
		if seed < 0 {
			seed = -seed
		}
		pg := progen.New(seed % 100_000)
		prog, err := minic.Compile(pg.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", pg.Seed, err)
		}
		if schedule {
			if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(machine.RS6K(), core.LevelSpeculative), xform.Config{}); err != nil {
				t.Fatalf("seed %d: %v", pg.Seed, err)
			}
		}
		text := asm.Print(prog)
		prog2, err := asm.Parse(text)
		if err != nil {
			t.Logf("seed %d: reparse failed: %v\n%s", pg.Seed, err, text)
			return false
		}
		if asm.Print(prog2) != text {
			t.Logf("seed %d: second print differs", pg.Seed)
			return false
		}
		m1, err := sim.Load(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", pg.Seed, err)
		}
		m2, err := sim.Load(prog2)
		if err != nil {
			t.Fatalf("seed %d: reparsed program does not load: %v", pg.Seed, err)
		}
		opts := sim.Options{MaxInstrs: 20_000_000, ForgivingLoads: schedule}
		r1, err := m1.Run(pg.Entry, pg.Args, nil, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", pg.Seed, err)
		}
		r2, err := m2.Run(pg.Entry, pg.Args, nil, opts)
		if err != nil {
			t.Fatalf("seed %d: reparsed run: %v", pg.Seed, err)
		}
		if r1.Ret != r2.Ret || r1.PrintedString() != r2.PrintedString() {
			t.Logf("seed %d: %d/%q vs %d/%q", pg.Seed, r1.Ret, r1.PrintedString(), r2.Ret, r2.PrintedString())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSyntaxRoundTrip(t *testing.T) {
	src := `func f r1 frame=3:
	ST frame(,4)=r1
	L r2=frame(,4)
	RET r2
`
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := asm.Print(p)
	p2, err := asm.Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if asm.Print(p2) != out {
		t.Errorf("unstable:\n%s\nvs\n%s", out, asm.Print(p2))
	}
	m, err := sim.Load(p2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("f", []int64{77}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 77 {
		t.Errorf("ret = %d, want 77", res.Ret)
	}
}
