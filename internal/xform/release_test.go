package xform_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// TestPoolsReleaseScheduledFunc: once RunCtx returns, nothing it pooled
// (the flow analysis, the scheduling pipelines with their liveness
// analyzers and PDG builders) keeps the scheduled function reachable,
// so one collection frees it. A second collection would empty the pools
// themselves and hide a pooled reference, so the test runs one.
func TestPoolsReleaseScheduledFunc(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p, err := workload.LI().Compile()
		if err != nil {
			t.Fatal(err)
		}
		f := p.Func("vm")
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		opts.Parallelism = 1
		opts.Verify = true
		if _, err := xform.RunCtx(context.Background(), f, opts, xform.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(f, func(any) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the scheduled function is still reachable after RunCtx returned and a collection ran")
	}
}
