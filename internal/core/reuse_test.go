package core_test

import (
	"context"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/xform"
)

// reuseSrc pairs a function with many blocks against a function with
// one: scheduling them back-to-back exercises every per-function
// analysis (cfg.Reach bitsets, the arena-backed dataflow.Analyzer, the
// dense regionScheduler state) at wildly different sizes, the shape
// that would expose any state leaking from one function's schedule into
// the next.
const reuseSrc = `
int g[16];

int big(int n) {
	int s = 0;
	int i = 0;
	while (i < n) {
		if (g[i & 15] > 4) {
			s = s + i * 3;
			if (s > 100) { s = s - g[(i + 1) & 15]; }
		} else {
			while (s > 0) { s = s - 5; }
			s = s + 2;
		}
		if (n > 8) { s = s + n; } else { s = s - n; }
		i = i + 1;
	}
	return s;
}

int small(int x) { return x + 1; }

int main(int a, int b) {
	return big(a) + small(b);
}
`

func compileReuse(t *testing.T) *ir.Program {
	t.Helper()
	p, err := minic.Compile(reuseSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Scheduling the functions in program order, in reverse order, and via
// the parallel pool must all emit byte-identical assembly: any state
// carried between function schedules would make the outcome depend on
// order or interleaving.
func TestNoStateLeaksBetweenFunctionSchedules(t *testing.T) {
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)

	// Program order, sequential (the baseline).
	base := compileReuse(t)
	seq := opts
	seq.Parallelism = 1
	if _, err := xform.RunProgramCtx(context.Background(), base, seq, xform.Config{}); err != nil {
		t.Fatal(err)
	}
	want := asm.Print(base)

	// Via the worker pool.
	pooled := compileReuse(t)
	par := opts
	par.Parallelism = 4
	if _, err := xform.RunProgramCtx(context.Background(), pooled, par, xform.Config{}); err != nil {
		t.Fatal(err)
	}
	if got := asm.Print(pooled); got != want {
		t.Errorf("pooled scheduling differs from sequential:\n--- pooled ---\n%s--- sequential ---\n%s", got, want)
	}

	// Reverse function order: small (1 block) immediately before big
	// (dozens of blocks) and after it. Each function's schedule must
	// depend on that function alone.
	rev := compileReuse(t)
	for i := len(rev.Funcs) - 1; i >= 0; i-- {
		if _, err := xform.RunCtx(context.Background(), rev.Funcs[i], seq, xform.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := asm.Print(rev); got != want {
		t.Errorf("reverse-order scheduling differs from program order:\n--- reverse ---\n%s--- forward ---\n%s", got, want)
	}

	// Back-to-back big/small/big/small across two copies interleaved:
	// alternate between two independent programs' functions to stress
	// reuse across unrelated compilation units in one goroutine.
	a, b := compileReuse(t), compileReuse(t)
	for i := range a.Funcs {
		if _, err := xform.RunCtx(context.Background(), a.Funcs[i], seq, xform.Config{}); err != nil {
			t.Fatal(err)
		}
		if _, err := xform.RunCtx(context.Background(), b.Funcs[len(b.Funcs)-1-i], seq, xform.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := asm.Print(a); got != want {
		t.Errorf("interleaved scheduling (copy a) differs:\n%s\nvs\n%s", got, want)
	}
	if got := asm.Print(b); got != want {
		t.Errorf("interleaved scheduling (copy b) differs:\n%s\nvs\n%s", got, want)
	}
}

// Sanity: the test program really has the intended size skew.
func TestReuseProgramShape(t *testing.T) {
	p := compileReuse(t)
	var big, small *ir.Func
	for _, f := range p.Funcs {
		switch f.Name {
		case "big":
			big = f
		case "small":
			small = f
		}
	}
	if big == nil || small == nil {
		t.Fatal("missing functions")
	}
	if len(big.Blocks) < 10 {
		t.Errorf("big has only %d blocks; want a block-rich function", len(big.Blocks))
	}
	if len(small.Blocks) > 3 {
		t.Errorf("small has %d blocks; want a trivial function", len(small.Blocks))
	}
}
