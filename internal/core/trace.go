package core

import (
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the scheduling pipeline for the
// lightweight timing trace consumed by the serving layer's metrics.
type Phase int

const (
	// PhaseRename is register renaming (§4.2).
	PhaseRename Phase = iota
	// phasePDG is program dependence graph construction (§4).
	phasePDG
	// phaseRegion is the global region scheduler proper (§5).
	phaseRegion
	// PhaseLocal is the basic block post-pass (§5.1).
	PhaseLocal
	// PhaseVerify is the independent legality verifier.
	PhaseVerify
	// PhaseXform is loop unrolling and rotation (§6).
	PhaseXform
	// PhaseExact is the exact branch-and-bound block scheduler
	// (LevelOptimal).
	PhaseExact

	// NumPhases is the number of traced phases.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseRename:
		return "rename"
	case phasePDG:
		return "pdg"
	case phaseRegion:
		return "region"
	case PhaseLocal:
		return "local"
	case PhaseVerify:
		return "verify"
	case PhaseXform:
		return "xform"
	case PhaseExact:
		return "exact"
	}
	return "phase?"
}

// Trace accumulates wall-clock time per scheduling phase. All methods
// are safe for concurrent use: the parallel per-function workers of
// the program driver and every request of a scheduling server may share
// one Trace. The zero value is ready to use.
type Trace struct {
	nanos [NumPhases]atomic.Int64
	count [NumPhases]atomic.Int64
}

// Observe records one run of phase p that took d.
func (t *Trace) Observe(p Phase, d time.Duration) {
	if t == nil || p < 0 || p >= NumPhases {
		return
	}
	t.nanos[p].Add(int64(d))
	t.count[p].Add(1)
}

// PhaseTotal reports the accumulated duration and run count of phase p.
func (t *Trace) PhaseTotal(p Phase) (total time.Duration, runs int64) {
	if t == nil || p < 0 || p >= NumPhases {
		return 0, 0
	}
	return time.Duration(t.nanos[p].Load()), t.count[p].Load()
}

// TimePhase starts timing one phase run; the returned func records it.
// With a nil Trace both halves are no-ops, keeping the hook free for
// the common untraced path.
func (t *Trace) TimePhase(p Phase) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Observe(p, time.Since(start)) }
}
