package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gsched/internal/asm"
	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/minic"
	"gsched/internal/profile"
	"gsched/internal/progen"
	"gsched/internal/rename"
	"gsched/internal/sim"
	"gsched/internal/verify"
	"gsched/internal/xform"
)

// Engine is the differential-testing driver. The zero value is not
// useful; fill the fields (zero fields are normalised to the defaults
// noted on each).
type Engine struct {
	// Seed anchors every random choice: program seeds are Seed+k,
	// random machine seeds Seed+i. Equal engines produce equal reports.
	Seed int64
	// Programs is the number of generated programs to sweep (default 4).
	// Two out of every three are size-bounded (progen.NewSized) so the
	// exhaustive oracle fires often; the rest are full-size.
	Programs int
	// RandomMachines is the number of seeded-random machines added to
	// the presets (default 2).
	RandomMachines int
	// BruteMax is the largest block (instruction count, terminator
	// included) fed to the exhaustive-schedule oracle (default 8).
	BruteMax int
	// SimMaxInstrs bounds each simulation (default 20M).
	SimMaxInstrs int64
	// MaxMismatches stops the run after this many shrunk reproducers
	// (default 3; shrinking is the expensive part).
	MaxMismatches int
	// OutDir, when non-empty, receives one .asm reproducer file per
	// mismatch.
	OutDir string
	// PolicyOnly restricts the sweep to the scheduling-policy cells of
	// the lattice (the CI policy smoke uses this for a focused sweep).
	// The shrinker then also keeps the policy dimension instead of
	// dropping it, so reproducers stay inside the configured cell space.
	PolicyOnly bool
	// Mutate, when non-nil, corrupts each scheduled program before the
	// oracles run and reports whether it changed anything. It simulates
	// a scheduler bug: the engine must catch and shrink it. Used by the
	// engine's own tests and cmd/difftest -inject.
	Mutate func(*ir.Program) bool
}

// Report summarises a run.
type Report struct {
	Programs      int
	Cells         int
	BruteBlocks   int   // blocks cross-checked by the exhaustive oracle
	OptimalBlocks int   // of those, blocks where the scheduler hit the optimum
	ExactBlocks   int   // blocks where the exact search was checked against the enumerator
	Enumerated    int64 // total legal orders enumerated
	Mismatches    []*Mismatch
}

func (r *Report) String() string {
	s := fmt.Sprintf("difftest: %d programs x lattice = %d cells; brute-forced %d blocks (%d optimal, %d orders enumerated, %d exact-checked); %d mismatch(es)",
		r.Programs, r.Cells, r.BruteBlocks, r.OptimalBlocks, r.Enumerated, r.ExactBlocks, len(r.Mismatches))
	return s
}

// Mismatch is one confirmed oracle disagreement, shrunk to a minimal
// reproducer.
type Mismatch struct {
	Seed   int64  // generator seed of the original program
	Cell   Cell   // shrunk cell (machine and options minimised too)
	Oracle string // which oracle tripped: schedule, verify, sim, brute, exact
	Err    string // the oracle's diagnostic on the shrunk reproducer
	Asm    string // the shrunk program, parseable by internal/asm
	Instrs int    // instruction count of the shrunk program
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("seed %d cell %s oracle %s (%d instrs): %s", m.Seed, m.Cell, m.Oracle, m.Instrs, m.Err)
}

// oracleError tags a failure with the oracle that raised it.
type oracleError struct {
	oracle string
	err    error
}

func (e *oracleError) Error() string { return e.oracle + ": " + e.err.Error() }

func (e *Engine) defaults() {
	if e.Programs < 1 {
		e.Programs = 4
	}
	if e.RandomMachines < 0 {
		e.RandomMachines = 0
	} else if e.RandomMachines == 0 {
		e.RandomMachines = 2
	}
	if e.BruteMax < 1 {
		e.BruteMax = 8
	}
	if e.SimMaxInstrs == 0 {
		e.SimMaxInstrs = 20_000_000
	}
	if e.MaxMismatches < 1 {
		e.MaxMismatches = 3
	}
}

// Run sweeps every generated program through every lattice cell,
// cross-checking the four oracles, and shrinks any failure. The error
// return covers engine-level breakage (a program that does not compile,
// an unwritable OutDir); oracle disagreements are reported as
// Mismatches, not errors.
func (e *Engine) Run() (*Report, error) {
	e.defaults()
	cells := lattice(latticeMachines(e.Seed, e.RandomMachines))
	if e.PolicyOnly {
		var pc []Cell
		for _, c := range cells {
			if c.Policy != "" {
				pc = append(pc, c)
			}
		}
		cells = pc
	}
	rep := &Report{}
	for k := 0; k < e.Programs; k++ {
		seed := e.Seed + int64(k)
		var p *progen.Program
		if k%3 == 2 {
			p = progen.New(seed)
		} else {
			sz := progen.SmallSize()
			sz.Floats = k%2 == 1
			sz.Helper = k%4 == 1
			p = progen.NewSized(seed, sz)
		}
		prog, err := minic.Compile(p.Source)
		if err != nil {
			return rep, fmt.Errorf("difftest: seed %d does not compile: %w", seed, err)
		}
		want, prof, err := e.baseline(prog, p.Entry, p.Args)
		if err != nil {
			return rep, fmt.Errorf("difftest: seed %d baseline run: %w", seed, err)
		}
		rep.Programs++
		for _, cell := range cells {
			rep.Cells++
			cerr := e.checkCell(rep, prog, p.Entry, p.Args, want, prof, cell)
			if cerr == nil {
				continue
			}
			m := e.shrink(prog, p.Entry, p.Args, cell, cerr)
			m.Seed = seed
			rep.Mismatches = append(rep.Mismatches, m)
			if err := e.writeRepro(m); err != nil {
				return rep, err
			}
			if len(rep.Mismatches) >= e.MaxMismatches {
				return rep, nil
			}
			break // one shrunk reproducer per program is enough
		}
	}
	return rep, nil
}

// baseline runs the unscheduled program functionally (no machine, no
// forgiving loads): the reference every cell must reproduce. The run
// doubles as profile training — the returned edge profile is what the
// Profile-bearing cells hand to the scheduler. Instruction IDs are
// stable across cloneProgram (print + reparse renumbers densely and
// deterministically), so the profile trained on this clone addresses
// the clones checkCell schedules.
func (e *Engine) baseline(prog *ir.Program, entry string, args []int64) (*sim.Result, *profile.Profile, error) {
	work := cloneProgram(prog)
	if work == nil {
		return nil, nil, fmt.Errorf("program does not round-trip through asm")
	}
	m, err := sim.Load(work)
	if err != nil {
		return nil, nil, err
	}
	prof := profile.New()
	res, err := m.Run(entry, args, nil, sim.Options{MaxInstrs: e.SimMaxInstrs, Profile: prof})
	return res, prof, err
}

// checkCell schedules a fresh copy of prog under the cell and runs the
// four oracles. prog itself is never modified. prof is the baseline
// run's trained edge profile, attached only for Profile-bearing cells.
// rep, when non-nil, accumulates brute-force statistics.
func (e *Engine) checkCell(rep *Report, prog *ir.Program, entry string, args []int64, want *sim.Result, prof *profile.Profile, cell Cell) *oracleError {
	work := cloneProgram(prog)
	if work == nil {
		return &oracleError{"clone", fmt.Errorf("program does not round-trip through asm")}
	}

	// Renaming runs before the snapshots so the verifier and the
	// exhaustive oracle compare against exactly what the scheduler saw.
	if cell.Rename {
		var rn rename.Renamer
		for _, f := range work.Funcs {
			rn.Run(f, cfg.Build(f))
		}
	}
	verifiers := make([]verify.Verifier, len(work.Funcs))
	refs := make([][][]*ir.Instr, len(work.Funcs))
	for fi, f := range work.Funcs {
		verifiers[fi].Capture(f)
		blocks := make([][]*ir.Instr, len(f.Blocks))
		for bi, b := range f.Blocks {
			blocks[bi] = append([]*ir.Instr(nil), b.Instrs...)
		}
		refs[fi] = blocks
	}

	opts := cell.Options()
	if cell.Profile {
		opts.Profile = prof
	}
	if err := scheduleRecover(work, opts); err != nil {
		return &oracleError{"schedule", err}
	}
	if e.Mutate != nil && !e.Mutate(work) {
		return nil // fault injection found nothing to corrupt: vacuous cell
	}

	// Oracle 2: static legality against the pre-schedule snapshot.
	rules := opts.VerifyRules()
	for fi, f := range work.Funcs {
		if err := verifiers[fi].Check(f, rules); err != nil {
			return &oracleError{"verify", err}
		}
	}

	// Oracle 1: differential simulation under the cell's machine.
	if err := work.Validate(); err != nil {
		return &oracleError{"sim", fmt.Errorf("invalid ir after scheduling: %w", err)}
	}
	m, err := sim.Load(work)
	if err != nil {
		return &oracleError{"sim", err}
	}
	got, err := m.Run(entry, args, nil, sim.Options{
		Machine:        cell.Machine,
		MaxInstrs:      e.SimMaxInstrs,
		ForgivingLoads: cell.Level >= core.LevelSpeculative,
	})
	if err != nil {
		return &oracleError{"sim", err}
	}
	if got.Ret != want.Ret || got.PrintedString() != want.PrintedString() {
		return &oracleError{"sim", fmt.Errorf("ret=%d printed=%q, want ret=%d printed=%q",
			got.Ret, got.PrintedString(), want.Ret, want.PrintedString())}
	}

	// Oracle 3: exhaustive enumeration of small untouched blocks.
	for fi, f := range work.Funcs {
		for bi, b := range f.Blocks {
			ref := refs[fi][bi]
			if len(ref) > e.BruteMax || !sameInstrSet(ref, b.Instrs) {
				continue // cross-block motion or too large: skip
			}
			st, err := BruteCheckBlock(ref, b.Instrs, cell.Machine)
			if err != nil {
				return &oracleError{"brute", fmt.Errorf("%s block %d: %w", f.Name, bi, err)}
			}
			// Oracle 4: branch-and-bound exact search against the
			// enumerated ground truth.
			if err := exactCheckBlock(ref, cell.Machine, st); err != nil {
				return &oracleError{"exact", fmt.Errorf("%s block %d: %w", f.Name, bi, err)}
			}
			if rep != nil {
				rep.BruteBlocks++
				rep.ExactBlocks++
				rep.Enumerated += int64(st.Enumerated)
				if st.Optimal {
					rep.OptimalBlocks++
				}
			}
		}
	}
	return nil
}

// scheduleRecover runs the scheduler, converting panics (the session
// convergence guard, index faults) into oracle failures so the engine
// can shrink them like any other mismatch.
func scheduleRecover(p *ir.Program, opts core.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scheduler panic: %v", core.Recovered(r).Value)
		}
	}()
	_, err = xform.RunProgramCtx(context.TODO(), p, opts, xform.Config{})
	return err
}

// sameInstrSet reports whether two instruction slices hold the same IDs
// (in any order).
func sameInstrSet(a, b []*ir.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]int, len(a))
	for _, i := range a {
		seen[i.ID]++
	}
	for _, i := range b {
		if seen[i.ID]--; seen[i.ID] < 0 {
			return false
		}
	}
	return true
}

// cloneProgram deep-copies a program by printing and reparsing its
// assembly form (which also renumbers instruction IDs densely).
func cloneProgram(p *ir.Program) *ir.Program {
	q, err := asm.Parse(asm.Print(p))
	if err != nil {
		return nil
	}
	return q
}

// writeRepro writes one shrunk reproducer into OutDir.
func (e *Engine) writeRepro(m *Mismatch) error {
	if e.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.OutDir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; difftest reproducer (seed %d)\n", m.Seed)
	fmt.Fprintf(&b, "; cell: %s\n", m.Cell)
	fmt.Fprintf(&b, "; machine: %s\n", m.Cell.Machine)
	if m.Cell.Policy != "" {
		for _, line := range strings.Split(m.Cell.Policy, "\n") {
			fmt.Fprintf(&b, "; policy: %s\n", line)
		}
	}
	fmt.Fprintf(&b, "; oracle: %s\n", m.Oracle)
	for _, line := range strings.Split(m.Err, "\n") {
		fmt.Fprintf(&b, ";   %s\n", line)
	}
	b.WriteString(m.Asm)
	name := fmt.Sprintf("repro-seed%d-%s.asm", m.Seed, sanitize(m.Cell.String()))
	return os.WriteFile(filepath.Join(e.OutDir, name), []byte(b.String()), 0o644)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return '_'
	}, s)
}
