package verify_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/verify"
)

var updateVerdicts = flag.Bool("update", false, "rewrite testdata/verdicts.txt from the current verdicts")

const verdictFile = "testdata/verdicts.txt"

// verdict renders one Check result for the golden file: "ok", or the
// first 16 hex digits of the sha256 of the error text followed by every
// violation, so a report that differs past the error text's first
// twelve lines still shows.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	var b strings.Builder
	b.WriteString(err.Error())
	if e, ok := err.(*verify.Error); ok {
		for _, v := range e.Violations {
			b.WriteString("\n")
			b.WriteString(v.String())
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])[:16]
}

// globalVerdicts corrupts the global schedules of the equivalence corpus
// as TestIndexedCheckMatchesAllPairs does and returns one line per
// function: its eight verdicts.
func globalVerdicts(t *testing.T, level core.Level) []string {
	vers, funcs, rules, _ := scheduledCorpus(t, level)
	r := rand.New(rand.NewSource(int64(level)))
	var lines []string
	for i, f := range funcs {
		saved := saveLayout(f)
		fields := []string{"global", level.String(), fmt.Sprint(i), f.Name}
		for variant := 0; variant < 8; variant++ {
			for k := 0; k < (variant+1)/2; k++ {
				corrupt(r, f, 6)
			}
			fields = append(fields, verdict(vers[i].Check(f, rules)))
			restoreLayout(f, saved)
		}
		lines = append(lines, strings.Join(fields, " "))
	}
	return lines
}

// postPassVerdicts corrupts the post-pass brackets of the equivalence
// corpus as TestPostPassCheckMatchesAllPairs does, at level (training a
// profile first at level=dup, where the program can run), and returns
// one line per function: its eight verdicts under verify.Rules{}.
func postPassVerdicts(t *testing.T, level core.Level) []string {
	progs, entries := equivCorpus(t)
	opts := core.Defaults(machine.RS6K(), level)
	opts.Rename = false
	opts.Parallelism = 1
	r := rand.New(rand.NewSource(int64(level)))
	var lines []string
	n := 0
	for pi, prog := range progs {
		o := trained(t, opts, entries[pi])
		for _, f := range prog.Funcs {
			ver := postPass(t, f, o)
			saved := saveLayout(f)
			fields := []string{"postpass", level.String(), fmt.Sprint(n), f.Name}
			n++
			for variant := 0; variant < 8; variant++ {
				kinds := 1
				if variant >= 4 {
					kinds = 6
				}
				for k := 0; k <= variant%4; k++ {
					corrupt(r, f, kinds)
				}
				fields = append(fields, verdict(ver.Check(f, verify.Rules{})))
				restoreLayout(f, saved)
			}
			lines = append(lines, strings.Join(fields, " "))
		}
	}
	return lines
}

func saveLayout(f *ir.Func) [][]*ir.Instr {
	saved := make([][]*ir.Instr, len(f.Blocks))
	for bi, b := range f.Blocks {
		saved[bi] = b.Instrs
	}
	return saved
}

func restoreLayout(f *ir.Func, saved [][]*ir.Instr) {
	for bi, b := range f.Blocks {
		b.Instrs = saved[bi]
	}
}

// TestVerdictGolden pins Check's verdict on every corrupted schedule of
// the equivalence corpus: global brackets and post-pass brackets, at
// level=speculative and level=dup, eight corruptions each. A change that
// is meant to keep every verdict (a refactor of the checker or of the
// rules it reads) must leave this test passing unchanged. A change that
// means to alter verdicts regenerates the file with
//
//	go test ./internal/verify -run TestVerdictGolden -args -update
//
// and says why in its description.
func TestVerdictGolden(t *testing.T) {
	var lines []string
	for _, level := range []core.Level{core.LevelSpeculative, core.LevelDup} {
		lines = append(lines, globalVerdicts(t, level)...)
		lines = append(lines, postPassVerdicts(t, level)...)
	}
	header := "# bracket level index function verdict×8 (ok or a sha256 prefix of the report)"
	if *updateVerdicts {
		body := header + "\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(verdictFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(verdictFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var want []string
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d functions, the corpus %d; regenerate with -update", verdictFile, len(want), len(lines))
	}
	bad, found := 0, 0
	for i, got := range lines {
		found += 8 - strings.Count(got, " ok")
		if got != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("verdicts changed:\n got %s\nwant %s", got, want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d functions changed verdicts", bad, len(lines))
	}
	if found == 0 {
		t.Error("no corruption was rejected: the golden file pins nothing")
	}
}
