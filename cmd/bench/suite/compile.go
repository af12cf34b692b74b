package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/progen"
	"gsched/internal/sim"
	"gsched/internal/stream"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// program is one input of a compile workload.
type program struct {
	name  string
	lang  string // "c" or "asm"
	src   string
	entry string // "" for programs that are never run
	args  []int64
	data  map[string][]int64
	out   []byte // scheduled assembly of the cold pass; every later compile must match it
}

// compileWorkload is a closed loop of compiles over a fixed corpus.
type compileWorkload struct {
	name   string
	perOp  int  // programs compiled per timed operation
	opt    bool // run the machine-independent optimiser after the mini-C front end
	verify bool // schedule with the independent verifier on
	stream bool // schedule through the streaming driver instead of the layer calls
	corpus func(seed int64) ([]*program, error)
}

var compileWorkloads = []*compileWorkload{
	// One operation builds the whole suite, so the median is not pinned
	// between two programs' distributions.
	{name: "proxies", perOp: 4, opt: true, corpus: proxyCorpus},
	{name: "huge", perOp: 1, stream: true, corpus: hugeCorpus},
	{name: "bigfunc", perOp: 1, verify: true, corpus: bigfuncCorpus},
}

func proxyCorpus(int64) ([]*program, error) {
	var ps []*program
	for _, w := range workload.All() {
		ps = append(ps, &program{name: w.Name, lang: "c", src: w.Source, entry: w.Entry, args: w.Args, data: w.Data})
	}
	return ps, nil
}

// hugeInstrs sizes the huge programs: about 600 functions each, and a
// compile short enough that a run collects well over 100 of them.
const hugeInstrs = 25_000

func hugeCorpus(seed int64) ([]*program, error) {
	r := rand.New(rand.NewSource(seed))
	var ps []*program
	for i := 0; i < 4; i++ {
		hp := progen.Huge(r.Int63(), hugeInstrs)
		ps = append(ps, &program{name: fmt.Sprintf("huge%d", i), lang: "asm", src: hp.Source})
	}
	return ps, nil
}

// bigfuncCorpus draws single-main programs and keeps those whose
// instruction count falls in a narrow band: the region scheduler's and
// verifier's costs grow faster than linearly with function size, so an
// unbanded draw would make one seed's corpus several times another's.
func bigfuncCorpus(seed int64) ([]*program, error) {
	const n, lo, hi = 24, 900, 1100
	r := rand.New(rand.NewSource(seed))
	var ps []*program
	for tries := 0; len(ps) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("bigfunc: seed %d yields too few programs in [%d, %d] instructions", seed, lo, hi)
		}
		pg := progen.NewSized(r.Int63(), progen.Size{Stmts: 25, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 3})
		prog, err := minic.Compile(pg.Source)
		if err != nil {
			return nil, fmt.Errorf("bigfunc: %w", err)
		}
		if k := countInstrs(prog); k >= lo && k <= hi {
			ps = append(ps, &program{name: fmt.Sprintf("big%d", len(ps)), lang: "c", src: pg.Source, entry: pg.Entry, args: pg.Args})
		}
	}
	return ps, nil
}

func countInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// schedOptions is the configuration every workload schedules with: the
// paper's §6 setup at the speculative level on the RS6K.
func schedOptions(jobs int, verify bool) core.Options {
	o := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	o.Parallelism = jobs
	o.Verify = verify
	return o
}

// frontEnd parses p into IR, as the workload's front end does.
func (w *compileWorkload) frontEnd(p *program, tr *tracer, root int, req int64) (*ir.Program, error) {
	if p.lang == "asm" {
		id := tr.begin("asm", root, req)
		prog, err := asm.Parse(p.src)
		tr.end(id)
		return prog, err
	}
	id := tr.begin("minic", root, req)
	prog, err := minic.Compile(p.src)
	tr.end(id)
	if err != nil || !w.opt {
		return prog, err
	}
	id = tr.begin("opt", root, req)
	opt.Program(prog)
	tr.end(id)
	return prog, nil
}

// compiled is what one compile produced besides its text.
type compiled struct {
	st      xform.Stats
	in, out int // instructions before and after scheduling
}

// layered compiles p through each layer's public call in turn — front
// end, xform.RunProgramCtx, asm.PrintTo — appending the assembly to out.
// With a tracer, each call is a span under one root per compile.
func (w *compileWorkload) layered(ctx context.Context, p *program, opts core.Options, tr *tracer, req int64, out *bytes.Buffer) (compiled, error) {
	var c compiled
	root := tr.begin("op", -1, req)
	defer tr.end(root)
	prog, err := w.frontEnd(p, tr, root, req)
	if err != nil {
		return c, fmt.Errorf("%s: %w", p.name, err)
	}
	c.in = countInstrs(prog)
	opts.Trace = tr.coreTrace()
	id := tr.begin("xform", root, req)
	c.st, err = xform.RunProgramCtx(ctx, prog, opts, xform.DefaultConfig())
	tr.end(id)
	if err != nil {
		return c, fmt.Errorf("%s: %w", p.name, err)
	}
	c.out = countInstrs(prog)
	id = tr.begin("print", root, req)
	err = asm.PrintTo(out, prog)
	tr.end(id)
	return c, err
}

// compile runs one timed compile of p at the given parallelism.
func (w *compileWorkload) compile(ctx context.Context, p *program, jobs int, verify bool, out *bytes.Buffer) (int, error) {
	opts := schedOptions(jobs, verify)
	if !w.stream {
		c, err := w.layered(ctx, p, opts, nil, 0, out)
		return c.in, err
	}
	res, err := stream.Schedule(ctx, asm.Native, p.src, stream.Config{
		Opts: opts, Pipeline: xform.DefaultConfig(), UsePipeline: true, Jobs: jobs,
	}, out)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	return res.Instrs, nil
}

// coldPass compiles every program once in a fresh process, records its
// output as the reference, and returns the pass's wall time: the
// workload's set-up.
func (w *compileWorkload) coldPass(ctx context.Context, ps []*program, jobs int) (time.Duration, error) {
	start := time.Now()
	for _, p := range ps {
		var out bytes.Buffer
		if _, err := w.compile(ctx, p, jobs, w.verify, &out); err != nil {
			return 0, err
		}
		p.out = out.Bytes()
	}
	return time.Since(start), nil
}

// timed is what a measured window produced.
type timed struct {
	latMs    []float64   // per operation, as measured
	cpuMs    []float64   // the process's CPU time per operation
	at       []time.Time // when each operation started
	instrs   int
	attempts int
	failures int
}

// timedLoop compiles operations back to back until the deadline,
// running the speedometer between operations. Every output must equal
// the cold pass's bytes for the same program.
func (w *compileWorkload) timedLoop(ctx context.Context, ps []*program, jobs int, d time.Duration, sp *speedometer) timed {
	var t timed
	var out bytes.Buffer
	sp.sample()
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline); k++ {
		var busy, cpu time.Duration
		t.at = append(t.at, time.Now())
		for j := 0; j < w.perOp; j++ {
			p := ps[(k*w.perOp+j)%len(ps)]
			out.Reset()
			t0, c0 := time.Now(), cpuTime()
			n, err := w.compile(ctx, p, jobs, w.verify, &out)
			busy += time.Since(t0)
			cpu += cpuTime() - c0
			t.attempts++
			if err != nil || !bytes.Equal(out.Bytes(), p.out) {
				t.failures++
			}
			t.instrs += n
		}
		t.latMs = append(t.latMs, float64(busy)/1e6)
		t.cpuMs = append(t.cpuMs, float64(cpu)/1e6)
		sp.tick()
	}
	sp.sample()
	return t
}

// checks are the out-of-window correctness checks. Each counts one
// attempt; the simulator's time and cycles feed the traced run's ledger.
type checks struct {
	attempts, failures int
	simNs, simCycles   int64
	errs               []string
}

// run records one check.
func (c *checks) run(err error) {
	c.attempts++
	if err == nil {
		return
	}
	c.failures++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, err.Error())
	}
}

// simulate runs p's scheduled output on the RS6K model and the
// unscheduled front-end output functionally; the return value and the
// printed values must agree. It returns the scheduled run's cycles.
func (w *compileWorkload) simulate(p *program, c *checks) int64 {
	var cycles int64
	c.run(func() error {
		sched, err := asm.Parse(string(p.out))
		if err != nil {
			return fmt.Errorf("%s: reparse output: %w", p.name, err)
		}
		ref, err := w.frontEnd(p, nil, -1, 0)
		if err != nil {
			return err
		}
		ms, err := sim.Load(sched)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		t0 := time.Now()
		got, err := ms.Run(p.entry, p.args, p.data, sim.Options{Machine: machine.RS6K(), ForgivingLoads: true})
		c.simNs += int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: scheduled run: %w", p.name, err)
		}
		c.simCycles += got.Cycles
		cycles = got.Cycles
		mr, err := sim.Load(ref)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		want, err := mr.Run(p.entry, p.args, p.data, sim.Options{})
		if err != nil {
			return fmt.Errorf("%s: unscheduled run: %w", p.name, err)
		}
		if got.Ret != want.Ret || !slices.Equal(got.Printed, want.Printed) {
			return fmt.Errorf("%s: scheduled run returned %d printing %v, unscheduled %d printing %v",
				p.name, got.Ret, got.Printed, want.Ret, want.Printed)
		}
		return nil
	}())
	return cycles
}

// verifyRun compiles p once more with the verifier on; the schedule
// must pass and match the cold pass's bytes.
func (w *compileWorkload) verifyRun(ctx context.Context, p *program, jobs int, c *checks) {
	var out bytes.Buffer
	_, err := w.compile(ctx, p, jobs, true, &out)
	if err == nil && !bytes.Equal(out.Bytes(), p.out) {
		err = fmt.Errorf("%s: verified compile differs from the timed output", p.name)
	}
	c.run(err)
}

// check runs the out-of-window checks on every program and returns the
// simulated cycles of those that run. Programs with an entry point are
// simulated against their unscheduled selves; the streaming driver's
// output must not depend on the number of jobs; and a workload timed
// without the verifier compiles each program once more with it.
func (w *compileWorkload) check(ctx context.Context, ps []*program, jobs int, c *checks) map[string]float64 {
	cycles := map[string]float64{}
	for _, p := range ps {
		if p.entry != "" {
			cycles[p.name] = float64(w.simulate(p, c))
		}
		if w.stream {
			var out bytes.Buffer
			_, err := w.compile(ctx, p, 1, false, &out)
			if err == nil && !bytes.Equal(out.Bytes(), p.out) {
				err = fmt.Errorf("%s: jobs=1 output differs from jobs=%d", p.name, jobs)
			}
			c.run(err)
		}
		if !w.verify {
			w.verifyRun(ctx, p, jobs, c)
		}
	}
	return cycles
}

// proxyCycles schedules the four SPEC proxies with the configuration
// every workload runs, checks them as the proxies workload does, and
// returns their simulated cycles by name.
func proxyCycles(ctx context.Context, jobs int, c *checks) map[string]float64 {
	w := compileWorkloads[0]
	ps, _ := proxyCorpus(0)
	if _, err := w.coldPass(ctx, ps, jobs); err != nil {
		c.run(err)
		return nil
	}
	return w.check(ctx, ps, jobs, c)
}

// cycleMetrics turns proxy cycles into the sim_cycles metrics.
func cycleMetrics(cycles map[string]float64, m map[string]float64) {
	var all []float64
	for _, w := range workload.All() {
		m["sim_cycles."+w.Name] = cycles[w.Name]
		all = append(all, cycles[w.Name])
	}
	m["sim_cycles_geomean"] = geomean(all)
}

// runCompile measures one compile workload with tracing off.
func runCompile(ctx context.Context, w *compileWorkload, cfg *runConfig) (*Record, error) {
	jobs := runtime.GOMAXPROCS(0)
	setups, raws, err := childSetups(ctx, cfg, setupRuns-1)
	if err != nil {
		return nil, err
	}
	ps, err := w.corpus(cfg.seed)
	if err != nil {
		return nil, err
	}
	sp := new(speedometer)
	s, raw, err := w.setup(ctx, ps, jobs, sp)
	if err != nil {
		return nil, err
	}
	setups, raws = append(setups, s), append(raws, raw)

	t := w.timedLoop(ctx, ps, jobs, cfg.window(), sp)
	rss := peakRSSMiB("self")

	var c checks
	w.check(ctx, ps, jobs, &c)
	cycles := proxyCycles(ctx, jobs, &c)

	// Each operation's wall and CPU time are scaled by the factor around
	// it; sums are in milliseconds.
	scaled := make([]float64, len(t.latMs))
	var busy, cpu, rawBusy, rawCPU float64
	for i, l := range t.latMs {
		f := sp.factor(t.at[i])
		scaled[i] = l / f
		busy, cpu = busy+scaled[i], cpu+t.cpuMs[i]/f
		rawBusy, rawCPU = rawBusy+l, rawCPU+t.cpuMs[i]
	}
	n := float64(t.instrs)
	m := map[string]float64{
		"setup_s":          median(setups),
		"latency_ms_p50":   percentile(scaled, 50),
		"latency_ms_p90":   percentile(scaled, 90),
		"instrs_per_s":     n / (busy / 1000),
		"cpu_us_per_instr": 1000 * cpu / n,
		"peak_rss_mib":     rss,
	}
	cycleMetrics(cycles, m)
	rec, err := newRecord(cfg, t.attempts+c.attempts, t.failures+c.failures, m, endToEnd)
	if err != nil {
		return nil, err
	}
	rec.Extra = map[string]Metric{
		"measured.setup_s":          {median(raws), "s"},
		"measured.latency_ms_p50":   {percentile(t.latMs, 50), "ms"},
		"measured.latency_ms_p90":   {percentile(t.latMs, 90), "ms"},
		"measured.instrs_per_s":     {n / (rawBusy / 1000), "instr/s"},
		"measured.cpu_us_per_instr": {1000 * rawCPU / n, "us/instr"},
		"host.slowdown":             {sp.overall(), "x"},
	}
	rec.Errors = c.errs
	logf("%s: %d operations (%d compiles), %d checks, host at %.2fx the reference kernel time",
		w.name, len(t.latMs), t.attempts, c.attempts, sp.overall())
	return rec, nil
}

// setup times one cold pass in this fresh process, as measured and at
// the reference speed.
func (w *compileWorkload) setup(ctx context.Context, ps []*program, jobs int, sp *speedometer) (scaled, raw float64, err error) {
	return sp.timeSetup(func() error {
		_, err := w.coldPass(ctx, ps, jobs)
		return err
	})
}

// setupOnly is the child side of childSetups.
func setupOnly(ctx context.Context, w *compileWorkload, seed int64) (scaled, raw float64, err error) {
	ps, err := w.corpus(seed)
	if err != nil {
		return 0, 0, err
	}
	return w.setup(ctx, ps, runtime.GOMAXPROCS(0), new(speedometer))
}
