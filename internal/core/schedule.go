package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic is a panic raised on a pool worker goroutine and raised
// again on the goroutine that started the pool, once every worker has
// stopped. Stack is the worker's stack at the original panic, which the
// second panic would otherwise lose.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Recovered wraps v, a value recovered on a worker goroutine. A value
// that is already a WorkerPanic (a nested pool's) keeps its innermost
// stack. Call it from the worker's deferred recover, where debug.Stack
// still sees the panicking frames.
func Recovered(v any) *WorkerPanic {
	if wp, ok := v.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: v, Stack: debug.Stack()}
}

// runFuncsParallel runs fn(w, i) for every i in [0, n) on min(workers,
// n) goroutines and waits for all of them; w numbers the goroutine
// running fn, from 0 (the only one when the calls run sequentially), so
// fn may use state owned by worker w as well as state owned by index i.
// A panic in fn stops its worker and is raised again, as a
// *WorkerPanic, once every worker has stopped.
func runFuncsParallel(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64 // the next index to hand out
	panics := make([]*WorkerPanic, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range panics {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[w] = Recovered(v)
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
