package stream

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

func jobsSweep() []int {
	set := map[int]bool{1: true, 4: true, runtime.NumCPU(): true}
	var out []int
	for _, j := range []int{1, 4, runtime.NumCPU()} {
		if set[j] {
			out = append(out, j)
			set[j] = false
		}
	}
	return out
}

// materialize parses src with the whole-unit front end.
func materialize(t *testing.T, src, lang string) *ir.Program {
	t.Helper()
	var p *ir.Program
	var err error
	if lang == "c" {
		p, err = minic.Compile(src)
	} else {
		p, err = asm.Parse(src)
	}
	if err != nil {
		t.Fatalf("materialize %s: %v", lang, err)
	}
	return p
}

// wholeUnitBytes parses everything, schedules the parsed program
// through the same driver, and prints the whole program.
func wholeUnitBytes(t *testing.T, src, lang string, cfg Config) (string, xform.Stats) {
	t.Helper()
	p := materialize(t, src, lang)
	var st xform.Stats
	var err error
	if cfg.UsePipeline {
		st, err = xform.RunProgramCtx(context.Background(), p, cfg.Opts, cfg.Pipeline)
	} else {
		st, err = xform.RunProgramCtx(context.Background(), p, cfg.Opts, xform.Config{})
	}
	if err != nil {
		t.Fatalf("whole-unit schedule: %v", err)
	}
	return asm.Print(p), st
}

func streamBytes(t *testing.T, src, lang string, cfg Config) (string, Result) {
	t.Helper()
	d, err := DialectFor(lang)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Schedule(context.Background(), d, src, cfg, &buf)
	if err != nil {
		t.Fatalf("stream (jobs=%d): %v", cfg.Jobs, err)
	}
	return buf.String(), res
}

// TestStreamMatchesMaterialized: the streaming front end produces
// byte-identical scheduled output and identical merged stats to the
// whole-unit front end, for both dialects, both per-function passes,
// several levels, and every jobs setting.
func TestStreamMatchesMaterialized(t *testing.T) {
	type unit struct {
		name, src, lang string
	}
	var units []unit
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := progen.New(seed).Source
		units = append(units, unit{name: "progen-c", src: src, lang: "c"})
		// The same program as assembly exercises the asm dialect.
		prog, err := minic.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{name: "progen-asm", src: asm.Print(prog), lang: "asm"})
	}
	units = append(units, unit{name: "huge", src: progen.Huge(3, 2500).Source, lang: "asm"})

	// Difftest reproducers: historical scheduler-bug witnesses.
	repros, _ := filepath.Glob("../../testdata/difftest/*.asm")
	for _, path := range repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{name: filepath.Base(path), src: string(data), lang: "asm"})
	}
	if len(repros) == 0 {
		t.Log("no difftest reproducers found; corpus reduced")
	}

	mach := machine.RS6K()
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"plain-spec", Config{Opts: core.Defaults(mach, core.LevelSpeculative)}},
		{"plain-useful", Config{Opts: core.Defaults(mach, core.LevelUseful)}},
		{"pipe-spec", Config{Opts: core.Defaults(mach, core.LevelSpeculative), Pipeline: xform.DefaultConfig(), UsePipeline: true}},
		{"pipe-dup", Config{Opts: core.Defaults(mach, core.LevelDup), Pipeline: xform.DefaultConfig(), UsePipeline: true}},
	}
	for _, c := range cfgs {
		c.cfg.Opts.Verify = true
		for _, u := range units {
			want, wantSt := wholeUnitBytes(t, u.src, u.lang, c.cfg)
			for _, jobs := range jobsSweep() {
				cfg := c.cfg
				cfg.Jobs = jobs
				got, res := streamBytes(t, u.src, u.lang, cfg)
				if got != want {
					t.Fatalf("%s/%s jobs=%d: stream output differs from materialized output", c.name, u.name, jobs)
				}
				if res.Stats != wantSt {
					t.Fatalf("%s/%s jobs=%d: stats = %+v, want %+v", c.name, u.name, jobs, res.Stats, wantSt)
				}
			}
		}
	}
}

// TestStreamHugeJobsSweep pins the determinism contract at scale:
// parse → schedule → print over a Huge corpus program is byte-identical
// at -jobs 1, 4, and NumCPU. Small fixed seed so it stays CI-fast and
// race-detector-friendly.
func TestStreamHugeJobsSweep(t *testing.T) {
	target := 3000
	if testing.Short() {
		target = 800
	}
	src := progen.Huge(7, target).Source
	cfg := Config{
		Opts:     core.Defaults(machine.RS6K(), core.LevelSpeculative),
		Pipeline: xform.DefaultConfig(), UsePipeline: true,
	}
	var base string
	for _, jobs := range jobsSweep() {
		cfg.Jobs = jobs
		got, _ := streamBytes(t, src, "asm", cfg)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("jobs=%d: output differs from jobs=1", jobs)
		}
	}
}

// TestStreamOptimalLevel: the exact tier works per-function under the
// streaming driver too (tiny program; the search is expensive).
func TestStreamOptimalLevel(t *testing.T) {
	src := "func f r1 r2:\n\tA r3=r1,r2\n\tMUL r4=r1,r2\n\tS r5=r3,r4\n\tRET r5\nfunc g r1:\n\tAI r2=r1,3\n\tRET r2\n"
	cfg := Config{Opts: core.Defaults(machine.RS6K(), core.LevelOptimal)}
	want, _ := wholeUnitBytes(t, src, "asm", cfg)
	got, _ := streamBytes(t, src, "asm", cfg)
	if got != want {
		t.Fatalf("optimal: stream differs:\n%s\nvs\n%s", got, want)
	}
}

// TestStreamErrors: front-end errors surface with the whole-unit front
// end's messages, including the line-numbered rejection of a function
// defined twice.
func TestStreamErrors(t *testing.T) {
	cfg := Config{Opts: core.Defaults(machine.RS6K(), core.LevelSpeculative), Jobs: 2}
	cases := []struct {
		name, src, lang, want string
	}{
		{"asm-syntax", "func f:\n\tFROB r1\n\tRET", "asm", "unknown mnemonic"},
		{"asm-undef-call", "func f:\n\tCALL missing\n\tRET", "asm", "undefined function"},
		{"c-syntax", "int main() { return }", "c", "expected expression"},
		{"c-undef-call", "int main() { return nope(); }", "c", "undefined function"},
		{"asm-dup", "func f:\n\tRET r0\nfunc f:\n\tRET r1\n", "asm", `line 3: function "f" redeclared`},
		{"c-dup", "int f() { return 0; }\nint f() { return 1; }", "c", `2:1: function "f" redeclared`},
	}
	for _, tc := range cases {
		d, err := DialectFor(tc.lang)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Schedule(context.Background(), d, tc.src, cfg, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestStreamNilWriter: scheduling without output works (bench mode).
func TestStreamNilWriter(t *testing.T) {
	src := progen.Huge(1, 500).Source
	cfg := Config{Opts: core.Defaults(machine.RS6K(), core.LevelSpeculative), Jobs: 2}
	res, err := Schedule(context.Background(), asm.Native, src, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Funcs == 0 || res.Instrs < 500 {
		t.Errorf("res = %+v, want funcs > 0 and instrs >= 500", res)
	}
}
