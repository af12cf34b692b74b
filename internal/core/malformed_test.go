package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"gsched/internal/cfg"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
)

// dupIDFunc compiles a small loop and gives two instructions of its
// loop body one ID, which no validated input has: the second can never
// become ready, because the first one's completion marks it done too
// early and its own dependences then point at itself.
func dupIDFunc(t *testing.T) *ir.Func {
	t.Helper()
	p, err := minic.Compile(`int main(int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) { s = s + i * i; s = s ^ (s >> 1); }
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Func("main")
	var body *ir.Block
	for _, b := range f.Blocks {
		if len(b.Instrs) >= 4 && (body == nil || len(b.Instrs) > len(body.Instrs)) {
			body = b
		}
	}
	if body == nil {
		t.Fatal("no block with four instructions")
	}
	body.Instrs[2].ID = body.Instrs[1].ID
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate instruction ID") {
		t.Fatalf("Validate = %v, want a duplicate ID", err)
	}
	return f
}

// TestMalformedIRFailsBelowRunCtx: callers of core below xform.RunCtx
// get no validation, so a block with one instruction ID twice reaches
// the schedulers themselves. Each must return an error, not hang or
// panic: the local issue loop (the whole of level none) once it waits
// longer than any machine delay, and the region scheduler at level
// speculative once its session stops converging.
func TestMalformedIRFailsBelowRunCtx(t *testing.T) {
	mach := machine.RS6K()
	bounded := func(name string, run func() error) {
		t.Helper()
		start := time.Now()
		err := run()
		if err == nil {
			t.Errorf("%s: no error on a duplicate instruction ID", name)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: took %v", name, d)
		}
		t.Logf("%s: %v (%v)", name, err, time.Since(start))
	}
	bounded("level none", func() error {
		f := dupIDFunc(t)
		var sc core.Scratch
		for _, b := range f.Blocks {
			if err := sc.ScheduleBlockLocalPolicy(b, mach, nil); err != nil {
				return err
			}
		}
		return nil
	})
	bounded("level speculative", func() error {
		f := dupIDFunc(t)
		opts := core.Defaults(mach, core.LevelSpeculative)
		opts.Parallelism = 1
		var st core.Stats
		g := cfg.Build(f)
		return new(core.Scratch).ScheduleRegionTree(context.Background(), f, g, cfg.FindLoops(g), &opts, &st,
			func(*cfg.Region, int) bool { return true })
	})
}
