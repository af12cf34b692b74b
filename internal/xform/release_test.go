package xform_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// TestPoolsReleaseScheduledFunc: once RunCtx or RunProgramCtx returns,
// nothing the driver keeps for later calls (the workers' scratch: the
// flow analysis, the scheduling pipelines with their liveness analyzers
// and PDG builders, the renaming tables and the verifier) keeps a
// scheduled function or any of its instructions reachable. The kept
// scratch survives collections, so the test runs two, as many as it
// takes to empty a sync.Pool, and a reference it still held would show.
// The finalizers sit on the instructions, the leaves of the function:
// a reference to the function keeps them all.
func TestPoolsReleaseScheduledFunc(t *testing.T) {
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Verify = true
	for _, tc := range []struct {
		name     string
		parallel int
		run      func(p *ir.Program, opts core.Options) error
	}{
		{"RunCtx", 1, func(p *ir.Program, opts core.Options) error {
			_, err := xform.RunCtx(context.Background(), p.Func("vm"), opts, xform.DefaultConfig())
			return err
		}},
		{"RunProgramCtx", 2, func(p *ir.Program, opts core.Options) error {
			_, err := xform.RunProgramCtx(context.Background(), p, opts, xform.DefaultConfig())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var left atomic.Int64
			collected := make(chan struct{})
			func() {
				p, err := workload.ByName("li").Compile()
				if err != nil {
					t.Fatal(err)
				}
				opts.Parallelism = tc.parallel
				if err := tc.run(p, opts); err != nil {
					t.Fatal(err)
				}
				f := p.Func("vm")
				left.Store(int64(f.NumInstrs()))
				for _, b := range f.Blocks {
					for _, i := range b.Instrs {
						runtime.SetFinalizer(i, func(*ir.Instr) {
							if left.Add(-1) == 0 {
								close(collected)
							}
						})
					}
				}
			}()
			runtime.GC()
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d instructions of the scheduled function are still reachable after the driver returned and two collections ran", left.Load())
			}
		})
	}
}
