package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"gsched/internal/asm"
	"gsched/internal/ir"
	"gsched/internal/xform"
)

// layerRun collects what a traced run measures. Traced and untraced
// passes do the same work at jobs=1; only the traced ones record spans.
// Allocations are counted in a separate pass, because reading them
// stops the world and would distort the spans.
type layerRun struct {
	tr         *tracer
	instrs     int // input instructions over the traced passes
	outInstrs  int
	printBytes int
	stats      xform.Stats
	tracedNs   []float64 // wall time of each traced pass
	untracedNs []float64

	alloc       allocCounter // one untraced pass
	allocInstrs int

	verifyOnNs, verifyOffNs int64 // scheduling with and without the verifier
	verifyInstrs            int

	simNs, simCycles int64

	jobs         int
	seqNs, parNs float64 // one pass at jobs=1 and one at jobs=nproc
}

func newLayerRun(jobs int) *layerRun {
	return &layerRun{tr: newTracer(), jobs: jobs, alloc: allocCounter{counts: map[string]uint64{}}}
}

// add accounts one traced compile.
func (l *layerRun) add(c compiled, printed int) {
	l.instrs += c.in
	l.outInstrs += c.out
	l.printBytes += printed
	l.stats.Stats.Add(c.st.Stats)
	l.stats.LoopsUnrolled += c.st.LoopsUnrolled
	l.stats.LoopsRotated += c.st.LoopsRotated
}

// verifyCost schedules two fresh parses of the same program, one with
// the verifier and one without, and accounts the difference.
func (l *layerRun) verifyCost(ctx context.Context, parse func() (*ir.Program, error)) error {
	for _, verify := range []bool{false, true} {
		prog, err := parse()
		if err != nil {
			return err
		}
		if !verify {
			l.verifyInstrs += countInstrs(prog)
		}
		start := time.Now()
		if _, err := xform.RunProgramCtx(ctx, prog, schedOptions(1, verify), xform.DefaultConfig()); err != nil {
			return fmt.Errorf("verify pass: %w", err)
		}
		if verify {
			l.verifyOnNs += int64(time.Since(start))
		} else {
			l.verifyOffNs += int64(time.Since(start))
		}
	}
	return nil
}

// metrics computes every per-layer metric.
func (l *layerRun) metrics() map[string]float64 {
	self := l.tr.selfTimes()
	n := float64(l.instrs)
	perInstr := func(ns int64) float64 { return float64(ns) / n }
	perK := func(count int) float64 { return 1000 * float64(count) / n }
	var layers int64
	for _, ns := range self {
		layers += ns
	}
	var traced float64
	for _, ns := range l.tracedNs {
		traced += ns
	}
	an := float64(l.allocInstrs)
	ac := l.alloc.counts
	speedup := l.seqNs / l.parNs
	return map[string]float64{
		"frontend.ns_per_instr":        perInstr(self["minic"] + self["opt"] + self["asm"]),
		"frontend.allocs_per_instr":    float64(ac["frontend"]) / an,
		"rename.ns_per_instr":          perInstr(self["phase.rename"]),
		"pdg.ns_per_instr":             perInstr(self["phase.pdg"]),
		"core.region_ns_per_instr":     perInstr(self["phase.region"]),
		"core.local_ns_per_instr":      perInstr(self["phase.local"]),
		"xform.loops_ns_per_instr":     perInstr(self["phase.xform"]),
		"xform.self_ns_per_instr":      perInstr(self["xform"]),
		"xform.allocs_per_instr":       float64(ac["xform"]) / an,
		"verify.ns_per_instr":          float64(l.verifyOnNs-l.verifyOffNs) / float64(l.verifyInstrs),
		"print.ns_per_instr":           perInstr(self["print"]),
		"print.bytes_per_instr":        float64(l.printBytes) / n,
		"sim.ns_per_cycle":             float64(l.simNs) / float64(l.simCycles),
		"parallel.speedup":             speedup,
		"parallel.eff":                 speedup / float64(l.jobs),
		"core.regions_per_kinstr":      perK(l.stats.RegionsScheduled),
		"core.useful_moves_per_kinstr": perK(l.stats.UsefulMoves),
		"core.spec_moves_per_kinstr":   perK(l.stats.SpeculativeMoves),
		"xform.loops_per_kinstr":       perK(l.stats.LoopsUnrolled + l.stats.LoopsRotated),
		"ir.growth":                    float64(l.outInstrs) / n,
		"trace.overhead_ratio":         median(l.tracedNs) / median(l.untracedNs),
		"trace.self_sum_ratio":         float64(layers) / traced,
	}
}

// allocCounter counts heap allocations per layer call. It reads
// runtime.MemStats, which stops the world, so it runs in its own pass.
type allocCounter struct {
	counts map[string]uint64
	ms     runtime.MemStats
}

func (a *allocCounter) measure(layer string, fn func() error) error {
	runtime.ReadMemStats(&a.ms)
	before := a.ms.Mallocs
	err := fn()
	runtime.ReadMemStats(&a.ms)
	a.counts[layer] += a.ms.Mallocs - before
	return err
}

// schedule counts the scheduling and printing of prog.
func (a *allocCounter) schedule(ctx context.Context, prog *ir.Program) error {
	if err := a.measure("xform", func() error {
		_, err := xform.RunProgramCtx(ctx, prog, schedOptions(1, false), xform.DefaultConfig())
		return err
	}); err != nil {
		return err
	}
	var out bytes.Buffer
	return a.measure("print", func() error { return asm.PrintTo(&out, prog) })
}

// runCompileTraced is the traced run of a compile workload: rounds of
// one untraced and one traced pass over the corpus at jobs=1 until the
// window closes, then an allocation pass, a verifier pass, one pass at
// jobs=1 and one at jobs=nproc through the workload's own driver, and
// the same checks as the untraced run.
func runCompileTraced(ctx context.Context, w *compileWorkload, cfg *runConfig) (*Record, error) {
	jobs := runtime.GOMAXPROCS(0)
	ps, err := w.corpus(cfg.seed)
	if err != nil {
		return nil, err
	}
	if _, err := w.coldPass(ctx, ps, jobs); err != nil {
		return nil, err
	}
	l := newLayerRun(jobs)
	var out bytes.Buffer
	var req int64
	pass := func(tr *tracer) (float64, error) {
		start := time.Now()
		for _, p := range ps {
			out.Reset()
			c, err := w.layered(ctx, p, schedOptions(1, false), tr, req, &out)
			if err != nil {
				return 0, err
			}
			if tr != nil {
				l.add(c, out.Len())
			}
			req++
		}
		return float64(time.Since(start)), nil
	}
	deadline := time.Now().Add(cfg.window())
	for len(l.tracedNs) == 0 || time.Now().Before(deadline) {
		d, err := pass(nil)
		if err != nil {
			return nil, err
		}
		l.untracedNs = append(l.untracedNs, d)
		if d, err = pass(l.tr); err != nil {
			return nil, err
		}
		l.tracedNs = append(l.tracedNs, d)
	}

	for _, p := range ps {
		parse := func() (*ir.Program, error) { return w.frontEnd(p, nil, -1, 0) }
		var prog *ir.Program
		if err := l.alloc.measure("frontend", func() (err error) { prog, err = parse(); return err }); err != nil {
			return nil, err
		}
		l.allocInstrs += countInstrs(prog)
		if err := l.alloc.schedule(ctx, prog); err != nil {
			return nil, err
		}
		if err := l.verifyCost(ctx, parse); err != nil {
			return nil, err
		}
	}

	for _, j := range []int{1, jobs} {
		start := time.Now()
		for _, p := range ps {
			out.Reset()
			if _, err := w.compile(ctx, p, j, w.verify, &out); err != nil {
				return nil, err
			}
		}
		if j == 1 {
			l.seqNs = float64(time.Since(start))
		} else {
			l.parNs = float64(time.Since(start))
		}
	}

	var c checks
	w.check(ctx, ps, jobs, &c)
	proxyCycles(ctx, jobs, &c)
	l.simNs, l.simCycles = c.simNs, c.simCycles

	if cfg.traceOut != "" {
		if err := l.tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	rec, err := newRecord(cfg, c.attempts, c.failures, l.metrics(), perLayer)
	if err != nil {
		return nil, err
	}
	rec.Errors = c.errs
	logf("%s: %d traced passes, %d spans", w.name, len(l.tracedNs), len(l.tr.spans))
	return rec, nil
}
