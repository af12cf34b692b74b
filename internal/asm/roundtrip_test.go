package asm

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/sim"
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
			if err := scheduleAll(prog, core.Defaults(machine.RS6K(), core.LevelSpeculative)); err != nil {
				t.Fatalf("seed %d: %v", pg.Seed, err)
			}
		}
		text := Print(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Logf("seed %d: reparse failed: %v\n%s", pg.Seed, err, text)
			return false
		}
		if Print(prog2) != text {
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
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := Print(p)
	p2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if Print(p2) != out {
		t.Errorf("unstable:\n%s\nvs\n%s", out, Print(p2))
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

// scheduleAll schedules every function of p in place. This package's
// tests cannot import the program driver (xform imports asm), so they
// loop over core.ScheduleFuncCtx directly.
func scheduleAll(p *ir.Program, opts core.Options) error {
	for _, f := range p.Funcs {
		if _, err := core.ScheduleFuncCtx(context.Background(), f, opts); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return nil
}
