package xform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
)

// smallFuncs renders n independent asm functions f0..f(n-1).
func smallFuncs(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "func f%d r1:\n\tAI r2=r1,%d\n\tMUL r3=r2,r1\n\tRET r3\n", i, i)
	}
	return sb.String()
}

func parseSmall(t *testing.T, n int) *ir.Program {
	t.Helper()
	p, err := asm.Parse(smallFuncs(n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drivePasses are the two configurations of the per-function pass
// that the Drive tests run: plain scheduling and the §6 pipeline.
var drivePasses = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"pipeline", Config{Unroll: true, Rotate: true}},
}

// waitGoroutines fails t unless the goroutine count returns to base.
// Goroutines that have signalled their WaitGroup may take a moment to
// be reaped, so the count is polled for a bounded time.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines after Drive returned, %d before", what, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrivePanicReachesCaller: a panic on a worker is raised again on
// the caller's goroutine, carrying the worker's stack, at every jobs
// setting and for both passes, and no worker outlives Drive.
func TestDrivePanicReachesCaller(t *testing.T) {
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	for _, pass := range drivePasses {
		for _, jobs := range []int{1, 4} {
			p := parseSmall(t, 8)
			// An instruction ID outside the function's ID space indexes
			// past the scheduler's dense tables: a state only a bug
			// can produce.
			p.Funcs[5].Blocks[0].Instrs[0].ID = -1
			base := runtime.NumGoroutine()
			got := func() (v any) {
				defer func() { v = recover() }()
				Drive(context.Background(), asm.ProgramReader(p), opts, pass.cfg, jobs, nil)
				return nil
			}()
			wp, ok := got.(*core.WorkerPanic)
			if !ok {
				t.Fatalf("%s jobs=%d: recovered %v (%T), want *core.WorkerPanic", pass.name, jobs, got, got)
			}
			if _, ok := wp.Value.(runtime.Error); !ok {
				t.Errorf("%s jobs=%d: panic value %v, want the runtime error", pass.name, jobs, wp.Value)
			}
			if !strings.Contains(string(wp.Stack), "gsched/internal/core.") {
				t.Errorf("%s jobs=%d: stack does not show the scheduler frames:\n%s", pass.name, jobs, wp.Stack)
			}
			waitGoroutines(t, fmt.Sprintf("%s jobs=%d", pass.name, jobs), base)
		}
	}
}

// failingWriter accepts n writes, then fails.
type failingWriter struct{ n int }

var errWrite = errors.New("disk full")

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.n == 0 {
		return 0, errWrite
	}
	w.n--
	return len(b), nil
}

// dropRet removes the RET of each listed function, so its last block
// falls off the end, which validation rejects.
func dropRet(p *ir.Program, funcs ...int) {
	for _, i := range funcs {
		b := p.Funcs[i].Blocks[0]
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
	}
}

// namedOnce reports whether err's text starts with the function name
// exactly once.
func namedOnce(err error, name string) bool {
	msg, prefix := err.Error(), name+": "
	return strings.HasPrefix(msg, prefix) && !strings.HasPrefix(msg, prefix+prefix)
}

// TestDriveEarlyExits: every way Drive can stop early returns its error
// and leaves no goroutine behind.
func TestDriveEarlyExits(t *testing.T) {
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	verifying := opts
	verifying.Verify = true
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	source := func(src string) func() asm.FuncReader {
		return func() asm.FuncReader {
			r, err := asm.Native.Open(src)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	cases := []struct {
		name   string
		pass   string // "" runs both passes
		ctx    context.Context
		reader func() asm.FuncReader
		opts   core.Options
		// failAfter > 0 writes the output to a writer that fails
		// after that many writes.
		failAfter int
		want      func(error) bool
	}{
		{
			name: "parse error mid-stream", ctx: context.Background(), opts: opts,
			reader: source(smallFuncs(20) + "func bad:\n\tFROB r1\n" + strings.ReplaceAll(smallFuncs(20), "func f", "func g")),
			want:   func(err error) bool { return err != nil && strings.Contains(err.Error(), "unknown mnemonic") },
		},
		{
			name: "scheduling error", pass: "plain", ctx: context.Background(),
			opts:   core.Options{Level: core.LevelSpeculative},
			reader: source(smallFuncs(40)),
			want:   func(err error) bool { return err != nil && strings.Contains(err.Error(), "Machine is required") },
		},
		{
			name: "scheduling error", pass: "pipeline", ctx: context.Background(), opts: opts,
			reader: func() asm.FuncReader {
				p := parseSmall(t, 40)
				dropRet(p, 25)
				return asm.ProgramReader(p)
			},
			want: func(err error) bool { return err != nil && strings.Contains(err.Error(), "falls through") },
		},
		{
			name: "cancelled context", ctx: cancelled, opts: opts,
			reader: source(smallFuncs(40)),
			want:   func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name: "cancelled context names the function once", ctx: cancelled, opts: opts,
			reader: source(smallFuncs(40)),
			want:   func(err error) bool { return errors.Is(err, context.Canceled) && namedOnce(err, "f0") },
		},
		{
			// Before the entry check, the local issue loop never ended
			// on this block.
			name: "one instruction ID twice in a block", ctx: context.Background(), opts: opts,
			reader: func() asm.FuncReader {
				p := parseSmall(t, 3)
				in := p.Funcs[1].Blocks[0].Instrs
				in[1].ID = in[0].ID
				return asm.ProgramReader(p)
			},
			want: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "duplicate instruction ID") && namedOnce(err, "f1")
			},
		},
		{
			name: "branch to a missing label", ctx: context.Background(), opts: opts,
			reader: func() asm.FuncReader {
				p := twoWay(t)
				p.Func("two").Blocks[2].Label = "M"
				return asm.ProgramReader(p)
			},
			want: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), `unresolved branch target "L"`) && namedOnce(err, "two")
			},
		},
		{
			name: "failing writer", ctx: context.Background(), opts: opts,
			reader:    source(smallFuncs(40)),
			failAfter: 3,
			want:      func(err error) bool { return errors.Is(err, errWrite) },
		},
	}
	for _, tc := range cases {
		for _, pass := range drivePasses {
			if tc.pass != "" && tc.pass != pass.name {
				continue
			}
			var out io.Writer
			if tc.failAfter > 0 {
				out = &failingWriter{n: tc.failAfter}
			}
			r := tc.reader()
			base := runtime.NumGoroutine()
			if _, err := Drive(tc.ctx, r, tc.opts, pass.cfg, 4, out); !tc.want(err) {
				t.Errorf("%s/%s: err = %v", tc.name, pass.name, err)
			}
			waitGoroutines(t, tc.name+"/"+pass.name, base)
		}
	}
}

// twoWay parses three small functions and "two", whose entry block
// branches to L.
func twoWay(t *testing.T) *ir.Program {
	t.Helper()
	p, err := asm.Parse(smallFuncs(3) + "func two r1:\n\tC cr0=r1,r1\n\tBT L,cr0,lt\n\tAI r2=r1,1\n\tRET r2\nL:\n\tAI r3=r1,2\n\tRET r3\n")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunVerifyError: an instruction ID shared by two blocks is an
// input the scheduler runs on and the verifier rejects. RunCtx refuses
// it up front, so the pass itself is called to reach the verifier.
func TestRunVerifyError(t *testing.T) {
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Verify = true
	for _, pass := range drivePasses {
		f := twoWay(t).Func("two")
		f.Blocks[2].Instrs[0].ID = f.Blocks[1].Instrs[0].ID
		if _, err := new(scratch).run(context.Background(), f, opts, pass.cfg, transformInnerLoops); err == nil || !strings.Contains(err.Error(), "illegal schedule") {
			t.Errorf("%s: err = %v, want an illegal schedule", pass.name, err)
		}
	}
}

// TestRunCtxRejectsOutOfRangeRegisters: API-built IR naming a register
// at or over ir.MaxRegs, or one that bypassed NoteReg, is an error from
// RunCtx before any pass sizes a table by register number (renaming
// asked for 8 GB on the first input below).
func TestRunCtxRejectsOutOfRangeRegisters(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		build      func(b *ir.Builder)
	}{
		{"over the limit", "over the limit", func(b *ir.Builder) {
			b.LI(ir.GPR(1999999999), 0)
			b.Ret(ir.GPR(1999999999))
		}},
		{"not noted", "at or over NumRegs", func(b *ir.Builder) {
			li := b.F.NewInstr(ir.OpLI)
			li.Def = ir.GPR(5)
			b.Cur.Instrs = append(b.Cur.Instrs, li)
			b.Ret(ir.NoReg)
		}},
	} {
		f := ir.NewFunc("main")
		b := ir.NewBuilder(f)
		b.Block("e")
		tc.build(b)
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		opts.Verify = true
		_, err := RunCtx(context.Background(), f, opts, DefaultConfig())
		if err == nil || !strings.Contains(err.Error(), tc.want) || !namedOnce(err, "main") {
			t.Errorf("%s: err = %v, want one naming main and %q", tc.name, err, tc.want)
		}
	}
}

// TestDriveEarliestErrorWins: over a materialized program, the error of
// the earliest failing function in source order is returned, however
// the workers interleave.
func TestDriveEarliestErrorWins(t *testing.T) {
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Parallelism = 4
	for iter := 0; iter < 20; iter++ {
		p := parseSmall(t, 12)
		dropRet(p, 3, 4, 9)
		_, err := RunProgramCtx(context.Background(), p, opts, DefaultConfig())
		if err == nil || !strings.HasPrefix(err.Error(), "f3: ") {
			t.Fatalf("iteration %d: err = %v, want f3's error", iter, err)
		}
	}
}

// irreducibleFunc builds a function whose two loops enter each other:
// no region tree exists, so global scheduling skips it.
func irreducibleFunc() *ir.Func {
	f := ir.NewFunc("irr")
	a, b2 := ir.GPR(0), ir.GPR(1)
	f.Params = []ir.Reg{a, b2}
	b := ir.NewBuilder(f)
	b.Block("e")
	b.Cmp(ir.CR(0), a, b2)
	b.BT("L2", ir.CR(0), ir.BitLT)
	b.Block("L1")
	b.AI(a, a, -1)
	b.Cmp(ir.CR(1), a, b2)
	b.BT("L2", ir.CR(1), ir.BitGT)
	b.Block("")
	b.Ret(a)
	b.Block("L2")
	b.AI(b2, b2, -1)
	b.Cmp(ir.CR(2), b2, a)
	b.BT("L1", ir.CR(2), ir.BitGT)
	b.Block("")
	b.Ret(b2)
	f.ReindexBlocks()
	return f
}

// TestRegionsSkipped pins the one definition of Stats.RegionsSkipped
// under plain scheduling and the §6 pipeline alike: an irreducible
// function counts once, a region over a size cap counts, and regions
// beyond MaxRegionLevels do not.
func TestRegionsSkipped(t *testing.T) {
	compile := func(src string) func(*testing.T) *ir.Func {
		return func(t *testing.T) *ir.Func {
			p, err := minic.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			return p.Func("f")
		}
	}
	cases := []struct {
		name string
		fn   func(*testing.T) *ir.Func
		mod  func(*core.Options)
		want int
	}{
		{"irreducible function", func(*testing.T) *ir.Func { return irreducibleFunc() }, nil, 1},
		{
			"region over MaxRegionInstrs",
			compile(`int f(int a, int b) { int r = a * b; if (a > b) r = r + a; return r - b; }`),
			func(o *core.Options) { o.MaxRegionInstrs = 2 },
			1,
		},
		{
			"regions beyond two nesting levels",
			compile(`
int g[64];
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++)
                s += g[(i + j + k) & 63];
    return s;
}`),
			nil,
			0,
		},
	}
	for _, tc := range cases {
		for _, pass := range []struct {
			name string
			cfg  Config
		}{{"Config{}", Config{}}, {"DefaultConfig", DefaultConfig()}} {
			f := tc.fn(t)
			opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
			if tc.mod != nil {
				tc.mod(&opts)
			}
			st, err := RunCtx(context.Background(), f, opts, pass.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, pass.name, err)
			}
			if st.RegionsSkipped != tc.want {
				t.Errorf("%s/%s: RegionsSkipped = %d, want %d (%+v)", tc.name, pass.name, st.RegionsSkipped, tc.want, st)
			}
		}
	}
}
