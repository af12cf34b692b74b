package schedmodel_test

import (
	"testing"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/pdg"
	"gsched/internal/progen"
	"gsched/internal/rename"
	"gsched/internal/schedmodel"
)

// TestNoDriftFromPDG pins the package's §4.2 dependence derivation
// against the scheduler's own (internal/pdg's single-block DDG) across
// the fuzz corpus, before and after register renaming. The two are
// written independently on purpose — this package keeps the oracles
// honest about the scheduler — so what must agree is the partial order
// they induce, i.e. the transitive closures: either builder may elide
// edges implied by others. The one legitimate difference is the
// terminator-last rule, which this package encodes as explicit edges
// while the scheduler enforces it structurally; those pairs are checked
// one-sidedly.
func TestNoDriftFromPDG(t *testing.T) {
	mach := machine.RS6K()
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, 14, 29, 60, 67, 75}
	blocksChecked := 0
	for _, seed := range seeds {
		p := progen.New(seed)
		prog, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				var rn rename.Renamer
				for _, f := range prog.Funcs {
					rn.Run(f, cfg.Build(f))
				}
			}
			for _, f := range prog.Funcs {
				for bi, b := range f.Blocks {
					if len(b.Instrs) < 2 {
						continue
					}
					blocksChecked++
					checkBlockDrift(t, seed, pass, f.Name, bi, b, mach)
				}
			}
		}
	}
	if blocksChecked == 0 {
		t.Fatal("corpus produced no multi-instruction blocks")
	}
}

func checkBlockDrift(t *testing.T, seed int64, pass int, fn string, bi int, b *ir.Block, mach *machine.Desc) {
	t.Helper()
	ref := b.Instrs
	n := len(ref)

	model := closure(schedmodel.DepMatrix(ref))

	ddg := pdg.NewBuilder().BuildBlockDDG(b, mach)
	pos := make(map[int]int, n)
	for k, i := range ref {
		pos[i.ID] = k
	}
	sched := make([][]bool, n)
	for i := range sched {
		sched[i] = make([]bool, n)
	}
	for _, i := range ref {
		for _, e := range ddg.SuccsOf(i.ID) {
			from, okF := pos[e.From.ID]
			to, okT := pos[e.To.ID]
			if !okF || !okT {
				t.Fatalf("seed %d pass %d %s block %d: DDG edge leaves the block", seed, pass, fn, bi)
			}
			sched[from][to] = true
		}
	}
	sched = closure(sched)

	term := n - 1
	if !ref[n-1].Op.IsTerminator() {
		term = -1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == term {
				// Terminator-last: schedmodel orders everything before
				// the terminator explicitly; the scheduler never moves
				// one, so its DDG may omit the edge but must not add an
				// ordering schedmodel lacks.
				if sched[i][j] && !model[i][j] {
					t.Errorf("seed %d pass %d %s block %d: pdg orders %q -> terminator, schedmodel does not",
						seed, pass, fn, bi, ref[i])
				}
				continue
			}
			if model[i][j] != sched[i][j] {
				t.Errorf("seed %d pass %d %s block %d: dependence drift on %q -> %q: schedmodel=%t pdg=%t",
					seed, pass, fn, bi, ref[i], ref[j], model[i][j], sched[i][j])
			}
		}
	}
}

// closure computes the transitive closure of a dense relation in place.
func closure(dep [][]bool) [][]bool {
	n := len(dep)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !dep[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if dep[k][j] {
					dep[i][j] = true
				}
			}
		}
	}
	return dep
}
