package main

import (
	"encoding/json"
	"os"
	"time"

	"gsched/internal/core"
)

// span is one timed call the benchmark made into a layer's public
// function. Parent indexes the enclosing span (-1 for an operation's
// root); Req numbers the operation (a compile or a replayed request)
// the span belongs to. Phases holds the core.Trace time the scheduler
// reported inside an xform span.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"`
	Req    int64            `json:"req"`
	Phases map[string]int64 `json:"phases_ns,omitempty"`
}

// tracer keeps spans in memory for one traced run. It is used from one
// goroutine (traced passes run at jobs=1). A nil *tracer records
// nothing, so the same code runs the untraced passes.
type tracer struct {
	t0     time.Time
	spans  []span
	phases core.Trace
	open   [core.NumPhases]time.Duration // phase totals when the open xform span began
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// coreTrace is the phase trace to pass through core.Options.Trace.
func (t *tracer) coreTrace() *core.Trace {
	if t == nil {
		return nil
	}
	return &t.phases
}

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	if name == "xform" {
		for p := core.Phase(0); p < core.NumPhases; p++ {
			t.open[p], _ = t.phases.PhaseTotal(p)
		}
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if s.Name == "xform" {
		s.Phases = map[string]int64{}
		for p := core.Phase(0); p < core.NumPhases; p++ {
			total, _ := t.phases.PhaseTotal(p)
			if d := total - t.open[p]; d > 0 {
				s.Phases[p.String()] = int64(d)
			}
		}
	}
}

// selfTimes returns, per layer name, the summed self time of the
// spans: a span's duration minus its children's and minus the scheduler
// phases inside it. Phases are reported as "phase.<name>". Root spans
// (Parent -1) are operations, not layers, and are left out, so the sum
// over layers falls short of the traced wall time by exactly the
// benchmark's own glue.
func (t *tracer) selfTimes() map[string]int64 {
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		d := s.End - s.Start - childNs[i]
		for name, ns := range s.Phases {
			self["phase."+name] += ns
			d -= ns
		}
		self[s.Name] += d
	}
	return self
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
