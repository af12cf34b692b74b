package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestRegionPoolForwardsPanic: a panic in one region group is raised
// again on the goroutine that started the pool, carrying the worker's
// stack, once every worker has stopped.
func TestRegionPoolForwardsPanic(t *testing.T) {
	var running atomic.Int32
	got := func() (v any) {
		defer func() { v = recover() }()
		runFuncsParallel(8, 3, func(_, i int) {
			running.Add(1)
			defer running.Add(-1)
			if i == 2 {
				panic("group 2")
			}
		})
		return nil
	}()
	wp, ok := got.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want *WorkerPanic", got, got)
	}
	if wp.Value != "group 2" {
		t.Errorf("panic value %v, want %q", wp.Value, "group 2")
	}
	if !strings.Contains(string(wp.Stack), "TestRegionPoolForwardsPanic") {
		t.Errorf("stack is not the worker's:\n%s", wp.Stack)
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d workers still running after the panic was raised", n)
	}
}
