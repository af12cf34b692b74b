package cfg

import "gsched/internal/ir"

// Flow is the flow analysis a pass keeps for one function: the graph
// and its LoopInfo (dominators, reachability, back edges and the region
// tree). It stays valid while the block skeleton does — instruction
// motion within existing blocks never invalidates it — and Refill
// recomputes it in place after a transform changes the skeleton, reusing
// all of its storage. One Flow serves one goroutine at a time; the
// regions, rows and lists it hands out are overwritten by the next
// Refill.
type Flow struct {
	G     Graph
	Loops LoopInfo
}

// Refill recomputes fl for f.
func (fl *Flow) Refill(f *ir.Func) {
	fl.G.Refill(f)
	fl.Loops.Refill(&fl.G)
}

// Release drops fl's reference to the function it was filled for,
// keeping its storage, so a pooled Flow does not keep a finished
// function reachable. The next use must be a Refill.
func (fl *Flow) Release() { fl.G.F = nil }
