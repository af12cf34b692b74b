package xform_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/progen"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

const goldenFile = "testdata/golden.txt"

// goldenProgram is one source of the byte-identity matrix.
type goldenProgram struct {
	name  string
	src   string
	opt   bool // schedule opt.Program's output, as the proxies workload does
	front bool // only digest the front end and optimiser outputs
}

// goldenCorpus is the matrix's inputs: the four proxies (optimised),
// progen.New seeds 1–90, and the first ten progen.NewSized mains of
// 900–1100 instructions (the bigfunc workload's shape). Seeds 91–300
// follow with their front end and optimiser outputs only.
func goldenCorpus(t *testing.T) []goldenProgram {
	var ps []goldenProgram
	for _, w := range workload.All() {
		ps = append(ps, goldenProgram{name: w.Name, src: w.Source, opt: true})
	}
	for seed := int64(1); seed <= 90; seed++ {
		ps = append(ps, goldenProgram{name: fmt.Sprintf("progen%d", seed), src: progen.New(seed).Source})
	}
	found := 0
	for seed := int64(1); found < 10; seed++ {
		if seed > 500 {
			t.Fatal("fewer than ten bigfunc-shaped mains in seeds 1–500")
		}
		src := progen.NewSized(seed, progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3}).Source
		p, err := minic.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.Func("main").NumInstrs(); n >= 900 && n <= 1100 {
			ps = append(ps, goldenProgram{name: fmt.Sprintf("big%d", seed), src: src})
			found++
		}
	}
	for seed := int64(91); seed <= 300; seed++ {
		ps = append(ps, goldenProgram{name: fmt.Sprintf("progen%d", seed), src: progen.New(seed).Source, front: true})
	}
	return ps
}

// goldenCells are the scheduling settings every program runs under:
// {Config{}, DefaultConfig} × {rs6k, wide} × verify {off, on}, at the
// speculative level on one worker.
var goldenCells = func() []struct {
	name string
	cfgX xform.Config
	mach func() *machine.Desc
	ver  bool
} {
	type cell = struct {
		name string
		cfgX xform.Config
		mach func() *machine.Desc
		ver  bool
	}
	var cs []cell
	for _, c := range []struct {
		name string
		cfgX xform.Config
	}{{"plain", xform.Config{}}, {"default", xform.DefaultConfig()}} {
		for _, m := range []struct {
			name string
			mach func() *machine.Desc
		}{{"rs6k", machine.RS6K}, {"wide", machine.Wide}} {
			for _, v := range []bool{false, true} {
				name := c.name + "/" + m.name
				if v {
					name += "/verify"
				}
				cs = append(cs, cell{name, c.cfgX, m.mach, v})
			}
		}
	}
	return cs
}()

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenLine compiles one program and schedules it under every cell. It
// returns "name front opt cell1 … cellN": the digests of the front
// end's output, of the optimiser's output (that of opt.Program whether
// or not the cells schedule it), and of each cell's asm and Stats.
func goldenLine(p goldenProgram) (string, error) {
	prog, err := minic.Compile(p.src)
	if err != nil {
		return "", err
	}
	front := prog.String()
	opt.Program(prog)
	fields := []string{p.name, digest(front), digest(prog.String())}
	if p.front {
		return strings.Join(fields, " "), nil
	}
	for _, c := range goldenCells {
		in, err := minic.Compile(p.src)
		if err != nil {
			return "", err
		}
		if p.opt {
			opt.Program(in)
		}
		opts := core.Defaults(c.mach(), core.LevelSpeculative)
		opts.Parallelism = 1
		opts.Verify = c.ver
		st, err := xform.RunProgramCtx(context.Background(), in, opts, c.cfgX)
		if err != nil {
			return "", fmt.Errorf("%s %s: %w", p.name, c.name, err)
		}
		fields = append(fields, digest(in.String(), fmt.Sprintf("%+v", st)))
	}
	return strings.Join(fields, " "), nil
}

// TestGoldenOutput pins the scheduler's output bytes and Stats: sha256
// digests of the asm and Stats of every program in goldenCorpus under
// every goldenCell, plus those of the front end and optimiser outputs.
// A change that is meant to keep every output byte (a performance or
// simplicity change) must leave this test passing unchanged. A change
// that means to alter schedules regenerates the file with
//
//	go test ./internal/xform -run TestGoldenOutput -args -update
//
// and says why in its description.
func TestGoldenOutput(t *testing.T) {
	ps := goldenCorpus(t)
	lines := make([]string, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range ps {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			lines[i], errs[i] = goldenLine(p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	header := "# program front opt " + cellNames()
	if *updateGolden {
		body := header + "\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(goldenFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(lines) {
		t.Fatalf("%s has %d programs, the corpus %d; regenerate with -update", goldenFile, len(want), len(lines))
	}
	bad := 0
	for i, got := range lines {
		if got != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("output changed:\n got %s\nwant %s", got, want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d programs changed (columns: %s)", bad, len(lines), header)
	}
}

func cellNames() string {
	var ns []string
	for _, c := range goldenCells {
		ns = append(ns, c.name)
	}
	return strings.Join(ns, " ")
}

func readGolden(t *testing.T) []string {
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var lines []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
