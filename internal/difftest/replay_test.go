package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"gsched/internal/asm"
)

// TestReproCorpusReplays sweeps every committed reproducer in
// testdata/difftest through the full preset-machine lattice — including
// the LevelDup and probability-gated profile cells — with all four
// oracles. These programs once made an oracle disagree; a fixed
// reproducer stays in the corpus and must now clear every cell, so a
// regression reintroducing the bug fails here before the fuzzers or the
// random sweep would find it again.
func TestReproCorpusReplays(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "difftest", "*.asm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no committed reproducers")
	}
	e := &Engine{}
	e.defaults()
	cells := lattice(latticeMachines(1, 0))
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Parse(string(src))
			if err != nil {
				t.Fatalf("reproducer does not parse: %v", err)
			}
			// Reproducer headers do not record the original entry
			// arguments; a fixed small vector sized to the entry's
			// parameter list keeps the replay deterministic.
			entry := prog.Funcs[0].Name
			for _, f := range prog.Funcs {
				if f.Name == "main" {
					entry = "main"
				}
			}
			args := make([]int64, len(prog.Func(entry).Params))
			for i := range args {
				args[i] = int64(3 + 2*i)
			}
			want, prof, err := e.baseline(prog, entry, args)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for _, cell := range cells {
				if cerr := e.checkCell(nil, prog, entry, args, want, prof, cell); cerr != nil {
					t.Errorf("cell %s: %v", cell, cerr)
				}
			}
		})
	}
}
