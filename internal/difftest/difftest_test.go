package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/machine"
)

// TestDiffLattice is the acceptance test for the differential engine:
// a full sweep over the configuration lattice with all three oracles
// silent, plus a fault-injection run proving a legality bug is caught
// and shrunk to a handful of instructions.
func TestDiffLattice(t *testing.T) {
	t.Run("lattice", func(t *testing.T) {
		run := func() *Report {
			e := &Engine{Seed: 1, Programs: 6, RandomMachines: 2}
			rep, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		rep := run()
		t.Log(rep)
		if rep.Cells < 200 {
			t.Errorf("swept only %d cells, want >= 200", rep.Cells)
		}
		for _, m := range rep.Mismatches {
			t.Errorf("oracle disagreement:\n%s\n%s", m, m.Asm)
		}
		if rep.BruteBlocks == 0 {
			t.Error("exhaustive oracle never fired; lower BruteMax or grow the corpus")
		}
		if rep.OptimalBlocks == 0 {
			t.Error("scheduler never hit a brute-force optimum (suspicious)")
		}
		if rep2 := run(); rep.String() != rep2.String() {
			t.Errorf("non-deterministic sweep:\n  first:  %s\n  second: %s", rep, rep2)
		}
	})

	t.Run("injected-bug", func(t *testing.T) {
		dir := t.TempDir()
		e := &Engine{
			Seed:           1,
			Programs:       4,
			RandomMachines: 1,
			MaxMismatches:  1,
			OutDir:         dir,
			Mutate:         SwapDependent,
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Mismatches) == 0 {
			t.Fatal("injected dependence swap was not caught by any oracle")
		}
		m := rep.Mismatches[0]
		t.Logf("caught: %s", m)
		if m.Instrs > 6 {
			t.Errorf("reproducer has %d instructions, want <= 6:\n%s", m.Instrs, m.Asm)
		}
		if _, err := asm.Parse(m.Asm); err != nil {
			t.Errorf("shrunk reproducer does not reparse: %v", err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "repro-*.asm"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no reproducer written to %s (err %v)", dir, err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"; difftest reproducer", "; oracle:", "; cell:"} {
			if !strings.Contains(string(data), want) {
				t.Errorf("reproducer file missing %q header", want)
			}
		}
	})
}

// TestLatticeShape pins the lattice geometry: 14 cells per machine —
// the 8 profile-free cells (levels × rename × workers, duplication tied
// to the speculative level), 2 LevelDup+profile cells (1 and 4
// workers), 2 probability-gated speculative cells (p 0.5 and 0.9), and
// 2 seeded-random scheduling-policy cells (distinct policy seeds per
// machine, one plain and one rename+4-worker).
func TestLatticeShape(t *testing.T) {
	ms := latticeMachines(7, 3)
	if len(ms) != 7 {
		t.Fatalf("Machines(7, 3) = %d machines, want 7", len(ms))
	}
	cells := lattice(ms)
	if len(cells) != 14*len(ms) {
		t.Fatalf("lattice has %d cells, want %d", len(cells), 14*len(ms))
	}
	seen := make(map[string]bool)
	dupCells, gated, polCells := 0, 0, 0
	polSrcs := make(map[string]bool)
	for _, c := range cells {
		if seen[c.String()] {
			t.Errorf("duplicate cell %s", c)
		}
		seen[c.String()] = true
		switch {
		case c.Level == core.LevelDup:
			dupCells++
			if !c.Duplicate || !c.Profile {
				t.Errorf("cell %s: LevelDup cells must duplicate with a profile", c)
			}
		case c.MinSpecProb > 0:
			gated++
			if !c.Profile || c.Level != core.LevelSpeculative {
				t.Errorf("cell %s: probability gate needs a profile at the speculative level", c)
			}
			if got := c.Options().MinSpecProb; got != c.MinSpecProb {
				t.Errorf("cell %s: Options().MinSpecProb = %g", c, got)
			}
		case c.Policy != "":
			polCells++
			polSrcs[c.Policy] = true
			if c.Level != core.LevelSpeculative {
				t.Errorf("cell %s: policy cells sweep the speculative level", c)
			}
			o := c.Options()
			if o.Policy == nil || o.Policy.Canonical() != c.Policy {
				t.Errorf("cell %s: Options() does not install the cell policy", c)
			}
		default:
			if c.Duplicate != (c.Level == core.LevelSpeculative) {
				t.Errorf("cell %s: duplication should track the speculative level", c)
			}
		}
		o := c.Options()
		if o.Rename || o.Verify {
			t.Errorf("cell %s: engine must own renaming and verification", c)
		}
	}
	if dupCells != 2*len(ms) || gated != 2*len(ms) || polCells != 2*len(ms) {
		t.Errorf("dup cells %d, gated cells %d, policy cells %d; want %d each",
			dupCells, gated, polCells, 2*len(ms))
	}
	// Distinct seeds per machine: no two machines sweep the same policy.
	if len(polSrcs) != polCells {
		t.Errorf("only %d distinct policies across %d policy cells", len(polSrcs), polCells)
	}
}

// TestScheduleRecoverParallel: a scheduler panic becomes an oracle
// failure on parallel cells too, where it happens on a driver worker.
func TestScheduleRecoverParallel(t *testing.T) {
	p, err := asm.Parse("func f r1:\n\tAI r2=r1,1\n\tRET r2\nfunc g r1:\n\tAI r2=r1,2\n\tRET r2\n")
	if err != nil {
		t.Fatal(err)
	}
	// An instruction ID outside the function's ID space indexes past
	// the scheduler's dense tables: a state only a bug can produce.
	p.Funcs[1].Blocks[0].Instrs[0].ID = -1
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Parallelism = 4
	err = scheduleRecover(p, opts)
	if err == nil || !strings.HasPrefix(err.Error(), "scheduler panic: runtime error: index out of range") {
		t.Errorf("err = %v, want the recovered index panic", err)
	}
}
