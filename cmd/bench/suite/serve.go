package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gsched/internal/asm"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/serve"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// The serve workload's traffic: independent users sending at a constant
// rate (open loop), 80% of them asking for one of a hot corpus picked
// by Zipf popularity and 20% for a program nobody sent before. A
// quarter of each kind also asks for a simulated run.
//
// gschedd runs with its default flags: one worker per CPU and a queue
// of twice that. The client keeps one connection per CPU, so no more
// requests are in flight than gschedd has workers, and none is shed.
const (
	hotPrograms   = 64
	basePrograms  = 128 // programs the unique requests are built from
	uniqueShare   = 0.2
	zipfS         = 1.1
	serveRate     = 200 // requests per second in the open loop
	closedWarmup  = 2 * time.Second
	capacityBurst = 500 * time.Millisecond
	openChunk     = time.Second // open-loop stretch between speed samples
	closedShare   = 0.4         // of the window; the open loop takes the rest
	sampledBodies = 8           // hot and unique responses each checked against library output
	maxSimInstrs  = 100_000
)

// serveProg is one generated source program.
type serveProg struct {
	src    string
	entry  string
	args   []int64
	instrs int
}

// serveRun is one run of the serve workload against one gschedd.
type serveRun struct {
	hot       []serveProg
	hotBodies [][]byte
	base      []serveProg
	extra     int   // instructions a unique program adds to its base
	seq       []int // hot index per request, -1 for a unique program
	next      atomic.Int64
	uniq      atomic.Int64

	srv     *server
	hc      *http.Client
	workers int // client connections

	mu       sync.Mutex
	hotRef   [][]byte // first body served for each hot program
	samples  map[int64][]byte
	failures int
	errs     []string
}

func newServeRun(seed int64) (*serveRun, error) {
	r := rand.New(rand.NewSource(seed))
	draw := func(n int) ([]serveProg, error) {
		var ps []serveProg
		for tries := 0; len(ps) < n; tries++ {
			if tries > 100*n {
				return nil, fmt.Errorf("serve: seed %d yields too few mid-sized programs", seed)
			}
			pg := progen.New(r.Int63())
			prog, err := minic.Compile(pg.Source)
			if err != nil {
				return nil, err
			}
			// Band the sizes so that which programs land on the top
			// Zipf ranks does not swing the median between seeds, and
			// bound the simulated run: one program that executes for
			// half a second would otherwise set a run's capacity.
			k := countInstrs(prog)
			if k < 150 || k > 350 {
				continue
			}
			m, err := sim.Load(prog)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(pg.Entry, pg.Args, nil, sim.Options{MaxInstrs: maxSimInstrs}); err != nil {
				continue
			}
			ps = append(ps, serveProg{src: pg.Source, entry: pg.Entry, args: pg.Args, instrs: k})
		}
		return ps, nil
	}
	s := &serveRun{samples: map[int64][]byte{}, workers: runtime.NumCPU()}
	var err error
	if s.hot, err = draw(hotPrograms); err != nil {
		return nil, err
	}
	if s.base, err = draw(basePrograms); err != nil {
		return nil, err
	}
	for i := range s.hot {
		s.hotBodies = append(s.hotBodies, requestBody(s.hot[i].src, &s.hot[i], i%4 == 0))
	}
	s.hotRef = make([][]byte, len(s.hot))
	p, err := minic.Compile(uniqueSuffix(0))
	if err != nil {
		return nil, err
	}
	s.extra = countInstrs(p)
	z := rand.NewZipf(r, zipfS, 1, hotPrograms-1)
	s.seq = make([]int, 1<<16)
	for i := range s.seq {
		s.seq[i] = -1
		if r.Float64() >= uniqueShare {
			s.seq[i] = int(z.Uint64())
		}
	}
	return s, nil
}

// uniqueSuffix is the function that makes unique program u distinct
// from every other: the content key covers function names.
func uniqueSuffix(u int64) string { return fmt.Sprintf("\nint u%d() { return 1; }\n", u) }

func requestBody(src string, p *serveProg, simulate bool) []byte {
	req := serve.Request{Source: src}
	if simulate {
		req.Simulate = &serve.SimRequest{Entry: p.entry, Args: p.args}
	}
	body, _ := json.Marshal(&req) // strings and integers always encode
	return body
}

// unique returns the body and instruction count of unique program u.
func (s *serveRun) unique(u int64) ([]byte, int) {
	b := &s.base[u%int64(len(s.base))]
	return requestBody(b.src+uniqueSuffix(u), b, u%4 == 0), b.instrs + s.extra
}

// outcome is one request as the client saw it.
type outcome struct {
	due      time.Time
	latMs    float64 // from due time (open loop) or send time (closed loop)
	lateMs   float64 // how late the generator handed the request to a connection
	connMs   float64 // waiting for a connection
	serverMs float64 // request written to first response byte
	hit      bool
	instrs   int
}

func (s *serveRun) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// do sends request i, due at due, and checks the reply: a 200, and for
// a hot program the same bytes as the first time it was served.
func (s *serveRun) do(ctx context.Context, i int64, due time.Time) outcome {
	o := outcome{due: due, lateMs: ms(time.Since(due))}
	hot := s.seq[i%int64(len(s.seq))]
	var body []byte
	u := int64(-1)
	if hot >= 0 {
		body, o.instrs = s.hotBodies[hot], s.hot[hot].instrs
	} else {
		u = s.uniq.Add(1) - 1
		body, o.instrs = s.unique(u)
	}
	var getConn, gotConn, wrote, first time.Time
	trace := &httptrace.ClientTrace{
		GetConn:              func(string) { getConn = time.Now() },
		GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
		GotFirstResponseByte: func() { first = time.Now() },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, s.srv.url+"/schedule", bytes.NewReader(body))
	if err != nil {
		s.fail("request %d: %v", i, err)
		return o
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.fail("request %d: %v", i, err)
		return o
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latMs = ms(time.Since(due))
	o.connMs = ms(gotConn.Sub(getConn))
	o.serverMs = ms(first.Sub(wrote))
	o.hit = resp.Header.Get("X-Cache") == "hit"
	if err != nil || resp.StatusCode != http.StatusOK {
		s.fail("request %d: status %d: %.200s %v", i, resp.StatusCode, got, err)
		return o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case hot >= 0 && s.hotRef[hot] == nil:
		s.hotRef[hot] = got
	case hot >= 0 && !bytes.Equal(got, s.hotRef[hot]):
		s.failures++
		s.errs = append(s.errs, fmt.Sprintf("hot program %d served different bytes", hot))
	case u >= 0 && u < sampledBodies:
		s.samples[u] = got
	}
	return o
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// openLoop sends requests at a constant rate for d. A dispatcher hands
// each request to one of the client's connections at its due time; when
// every connection is busy it waits, which shows as lateness, and the
// request's latency still counts from when it was due.
func (s *serveRun) openLoop(ctx context.Context, rate float64, d time.Duration) []outcome {
	type job struct {
		i   int64
		due time.Time
	}
	jobs := make(chan job)
	results := make([][]outcome, s.workers)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				results[w] = append(results[w], s.do(ctx, j.i, j.due))
			}
		}(w)
	}
	start := time.Now()
	period := time.Duration(float64(time.Second) / rate)
dispatch:
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		select {
		case jobs <- job{s.next.Add(1) - 1, due}:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// closedLoop keeps every connection busy for d: each sends its next
// request as soon as the previous one is answered. It returns the
// outcomes and the wall time until the last reply.
func (s *serveRun) closedLoop(ctx context.Context, d time.Duration) ([]outcome, time.Duration) {
	results := make([][]outcome, s.workers)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				results[w] = append(results[w], s.do(ctx, s.next.Add(1)-1, time.Now()))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall
}

// warm sends every hot program once; the server computes and stores
// each, so later hot requests are store reads.
func (s *serveRun) warm(ctx context.Context) {
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				h := next.Add(1) - 1
				if h >= hotPrograms {
					return
				}
				s.doHot(ctx, int(h))
			}
		}()
	}
	wg.Wait()
}

// doHot sends hot program h outside the request sequence.
func (s *serveRun) doHot(ctx context.Context, h int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.url+"/schedule", bytes.NewReader(s.hotBodies[h]))
	if err != nil {
		s.fail("warm %d: %v", h, err)
		return
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.fail("warm %d: %v", h, err)
		return
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.fail("warm %d: status %d %v", h, resp.StatusCode, err)
		return
	}
	s.mu.Lock()
	s.hotRef[h] = got
	s.mu.Unlock()
}

// start launches gschedd, waits for /healthz and warms the hot corpus:
// the serve workload's set-up.
func (s *serveRun) start(ctx context.Context, bin string) error {
	srv, err := startServer(ctx, bin)
	if err != nil {
		return err
	}
	s.srv = srv
	s.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: s.workers, MaxConnsPerHost: s.workers, DisableCompression: true,
		},
	}
	for i := range s.hotRef {
		s.hotRef[i] = nil
	}
	s.warm(ctx)
	return nil
}

func (s *serveRun) stop() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
}

// server is a gschedd child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error
}

func startServer(ctx context.Context, bin string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = nil, nil // request logs go to /dev/null
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gschedd: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("gschedd exited before serving: %v", s.err)
		default:
		}
		if resp, err := hc.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("gschedd did not answer /healthz")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks gschedd to drain and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpu is gschedd's user plus system CPU time from /proc.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + s.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks of 1/100 s.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// replay answers a /schedule body the way gschedd's handler does, by
// calling the same public functions in the same order: decode, compile
// and canonicalise for the content key, schedule, print, simulate,
// encode. Its bytes must equal the server's. With a tracer each call is
// a span under one root per request.
func replay(ctx context.Context, body []byte, jobs int, tr *tracer, req int64, l *layerRun) ([]byte, error) {
	root := tr.begin("req", -1, req)
	defer tr.end(root)
	id := tr.begin("decode", root, req)
	var r serve.Request
	err := json.Unmarshal(body, &r)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	key := tr.begin("key", root, req)
	id = tr.begin("minic", key, req)
	prog, err := minic.Compile(r.Source)
	tr.end(id)
	if err != nil {
		tr.end(key)
		return nil, err
	}
	h := sha256.New()
	asm.CanonicalTo(h, prog)
	h.Sum(nil)
	tr.end(key)

	compute := tr.begin("compute", root, req)
	c := compiled{in: countInstrs(prog)}
	opts := schedOptions(jobs, false)
	opts.Trace = tr.coreTrace()
	id = tr.begin("xform", compute, req)
	c.st, err = xform.RunProgramCtx(ctx, prog, opts, xform.DefaultConfig())
	tr.end(id)
	if err != nil {
		tr.end(compute)
		return nil, err
	}
	c.out = countInstrs(prog)
	id = tr.begin("print", compute, req)
	resp := &serve.Response{Asm: asm.Print(prog), Stats: c.st}
	tr.end(id)
	if r.Simulate != nil {
		id = tr.begin("sim", compute, req)
		res, err := simulateIR(prog, r.Simulate)
		tr.end(id)
		if err != nil {
			tr.end(compute)
			return nil, err
		}
		resp.Sim = &serve.SimResponse{Ret: res.Ret, Cycles: res.Cycles, Instrs: res.Instrs, Printed: res.Printed}
		if l != nil {
			l.simCycles += res.Cycles
		}
	}
	tr.end(compute)
	id = tr.begin("encode", root, req)
	out, err := json.Marshal(resp)
	tr.end(id)
	if l != nil {
		l.add(c, len(resp.Asm))
	}
	return out, err
}

func simulateIR(prog *ir.Program, r *serve.SimRequest) (*sim.Result, error) {
	m, err := sim.Load(prog)
	if err != nil {
		return nil, err
	}
	return m.Run(r.Entry, r.Args, nil, sim.Options{Machine: machine.RS6K(), ForgivingLoads: true})
}

// checkSamples compares the sampled unique responses and every hot
// response with the library's own output for the same body.
func (s *serveRun) checkSamples(ctx context.Context, c *checks) {
	check := func(name string, body, got []byte) {
		c.run(func() error {
			if got == nil {
				return fmt.Errorf("%s: no response recorded", name)
			}
			want, err := replay(ctx, body, 1, nil, 0, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s: served body differs from library output", name)
			}
			return nil
		}())
	}
	for u := int64(0); u < sampledBodies; u++ {
		body, _ := s.unique(u)
		check(fmt.Sprintf("unique program %d", u), body, s.samples[u])
	}
	for h := 0; h < sampledBodies; h++ {
		check(fmt.Sprintf("hot program %d", h), s.hotBodies[h], s.hotRef[h])
	}
}

func instrsOf(outs []outcome) int {
	n := 0
	for _, o := range outs {
		n += o.instrs
	}
	return n
}

func latencies(outs []outcome, f func(outcome) float64, keep func(outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if keep == nil || keep(o) {
			xs = append(xs, f(o))
		}
	}
	return xs
}

// burst is one stretch of the closed loop.
type burst struct {
	mid           time.Time
	requests      int
	instrsPerS    float64
	cpuUsPerInstr float64 // gschedd's CPU time per instruction served
}

// capacity runs the closed loop for d in bursts, sampling the host's
// speed between them while the server is idle: under saturation the
// benchmark cannot time its kernel without the server's load in it.
func (s *serveRun) capacity(ctx context.Context, d time.Duration, sp *speedometer) ([]burst, error) {
	var out []burst
	for end := time.Now().Add(d); time.Now().Before(end); {
		cpu0, err := s.srv.cpu()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		outs, wall := s.closedLoop(ctx, capacityBurst)
		cpu1, err := s.srv.cpu()
		if err != nil {
			return nil, err
		}
		n := float64(instrsOf(outs))
		out = append(out, burst{
			mid: start.Add(wall / 2), requests: len(outs),
			instrsPerS: n / wall.Seconds(), cpuUsPerInstr: float64((cpu1 - cpu0).Microseconds()) / n,
		})
		for k := 0; k < 3; k++ {
			sp.sample()
		}
	}
	return out, nil
}

// openLoopIdle runs the open loop for d in stretches of openChunk. Each
// stretch ends once its last reply is in, and the host's speed is
// sampled in the gap, with gschedd idle; the next stretch's due times
// start after the gap, so the samples delay no request.
func (s *serveRun) openLoopIdle(ctx context.Context, d time.Duration, sp *speedometer) []outcome {
	var all []outcome
	for left := d; left > 0 && ctx.Err() == nil; left -= openChunk {
		all = append(all, s.openLoop(ctx, serveRate, min(left, openChunk))...)
		for k := 0; k < 3; k++ {
			sp.sample()
		}
	}
	return all
}

// runServe measures the serve workload with tracing off.
func runServe(ctx context.Context, cfg *runConfig) (*Record, error) {
	s, err := newServeRun(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	sp := new(speedometer)
	var setups, raws []float64
	for i := 0; i < setupRuns; i++ {
		s.stop()
		scaled, raw, err := sp.timeSetup(func() error { return s.start(ctx, cfg.gschedd) })
		if err != nil {
			return nil, err
		}
		setups, raws = append(setups, scaled), append(raws, raw)
	}

	// Saturate the server before measuring it: its throughput climbs
	// for the first second or two as the Go heap grows into the load.
	warmup, _ := s.closedLoop(ctx, closedWarmup)
	closedD := time.Duration(closedShare * float64(cfg.window()))
	bursts, err := s.capacity(ctx, closedD, sp)
	if err != nil {
		return nil, err
	}
	open := s.openLoopIdle(ctx, cfg.window()-closedD, sp)
	rss := peakRSSMiB(s.srv.pid())
	s.stop()

	var c checks
	s.checkSamples(ctx, &c)
	cycles := proxyCycles(ctx, runtime.GOMAXPROCS(0), &c)

	lat := latencies(open, func(o outcome) float64 { return o.latMs }, nil)
	scaled := latencies(open, func(o outcome) float64 { return o.latMs / sp.factor(o.due) }, nil)
	var capacity, cpuPerInstr, rawCapacity, rawCPUPerInstr []float64
	closed := 0
	for _, b := range bursts {
		f := sp.factor(b.mid)
		capacity = append(capacity, b.instrsPerS*f)
		cpuPerInstr = append(cpuPerInstr, b.cpuUsPerInstr/f)
		rawCapacity = append(rawCapacity, b.instrsPerS)
		rawCPUPerInstr = append(rawCPUPerInstr, b.cpuUsPerInstr)
		closed += b.requests
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"latency_ms_p50":   percentile(scaled, 50),
		"latency_ms_p90":   percentile(scaled, 90),
		"instrs_per_s":     median(capacity),
		"cpu_us_per_instr": median(cpuPerInstr),
		"peak_rss_mib":     rss,
	}
	cycleMetrics(cycles, m)
	attempted := setupRuns*hotPrograms + len(warmup) + closed + len(open) + c.attempts
	rec, err := newRecord(cfg, attempted, s.failures+c.failures, m, endToEnd)
	if err != nil {
		return nil, err
	}
	rec.Extra = map[string]Metric{
		"measured.setup_s":          {median(raws), "s"},
		"measured.latency_ms_p50":   {percentile(lat, 50), "ms"},
		"measured.latency_ms_p90":   {percentile(lat, 90), "ms"},
		"measured.instrs_per_s":     {median(rawCapacity), "instr/s"},
		"measured.cpu_us_per_instr": {median(rawCPUPerInstr), "us/instr"},
		"host.slowdown":             {sp.overall(), "x"},
	}
	rec.Errors = append(s.errs, c.errs...)
	logf("serve: %d open-loop requests at %d/s, %d closed-loop requests in %d bursts over %d connections, %d checks, host at %.2fx the reference kernel time",
		len(open), serveRate, closed, len(bursts), s.workers, c.attempts, sp.overall())
	return rec, nil
}

// runServeTraced is the serve workload's traced run. A live phase
// drives gschedd at the open-loop rate and reads its ledger from
// outside — the client's timings, /proc, and /metrics deltas — then a
// replay phase sends each distinct body through the handler's public
// calls to attribute the request path to layers.
func runServeTraced(ctx context.Context, cfg *runConfig) (*Record, error) {
	jobs := runtime.GOMAXPROCS(0)
	s, err := newServeRun(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if err := s.start(ctx, cfg.gschedd); err != nil {
		return nil, err
	}
	extra, live, err := s.liveLedger(ctx, cfg.window()/2)
	if err != nil {
		return nil, err
	}
	s.stop()

	var bodies [][]byte
	bodies = append(bodies, s.hotBodies...)
	for u := int64(0); u < hotPrograms; u++ {
		b, _ := s.unique(u)
		bodies = append(bodies, b)
	}
	l := newLayerRun(jobs)
	var req int64
	pass := func(tr *tracer) (float64, error) {
		start := time.Now()
		for _, b := range bodies {
			var acc *layerRun
			if tr != nil {
				acc = l
			}
			if _, err := replay(ctx, b, 1, tr, req, acc); err != nil {
				return 0, err
			}
			req++
		}
		return float64(time.Since(start)), nil
	}
	deadline := time.Now().Add(cfg.window() / 2)
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
	for _, d := range l.tr.durations("sim") {
		l.simNs += int64(d * 1e6)
	}

	for _, b := range bodies {
		var r serve.Request
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		parse := func() (*ir.Program, error) { return minic.Compile(r.Source) }
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

	// The server computes requests on its worker pool, one per worker:
	// replay the bodies on one goroutine and then on jobs goroutines.
	for _, workers := range []int{1, jobs} {
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(bodies)); i = next.Add(1) - 1 {
					if _, err := replay(ctx, bodies[i], 1, nil, 0, nil); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return nil, err
		}
		if workers == 1 {
			l.seqNs = float64(time.Since(start))
		} else {
			l.parNs = float64(time.Since(start))
		}
	}

	var c checks
	s.checkSamples(ctx, &c)
	proxyCycles(ctx, jobs, &c)

	p50 := func(name string, scale float64) float64 { return median(l.tr.durations(name)) * scale }
	extra["serve.decode_us_p50"] = Metric{p50("decode", 1000), "us"}
	extra["serve.key_ms_p50"] = Metric{p50("key", 1), "ms"}
	extra["serve.compute_ms_p50"] = Metric{p50("compute", 1), "ms"}
	extra["serve.encode_us_p50"] = Metric{p50("encode", 1000), "us"}

	if cfg.traceOut != "" {
		if err := l.tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	attempted := hotPrograms + live + c.attempts
	rec, err := newRecord(cfg, attempted, s.failures+c.failures, l.metrics(), perLayer)
	if err != nil {
		return nil, err
	}
	rec.Extra = extra
	rec.Errors = append(s.errs, c.errs...)
	logf("serve: %d live requests, %d traced replay passes over %d bodies", live, len(l.tracedNs), len(bodies))
	return rec, nil
}

// liveLedger drives the open loop for d and reads the server's side of
// it: client timings split by cache state, gschedd's CPU from /proc,
// and /metrics deltas with the queue depth sampled at 2 Hz.
func (s *serveRun) liveLedger(ctx context.Context, d time.Duration) (map[string]Metric, int, error) {
	before, err := serve.Scrape(s.srv.url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	cpu0, err := s.srv.cpu()
	if err != nil {
		return nil, 0, err
	}
	var depth float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if m, err := serve.Scrape(s.srv.url + "/metrics"); err == nil {
					depth = max(depth, m["gschedd_queue_depth"])
				}
			}
		}
	}()
	open := s.openLoop(ctx, serveRate, d)
	close(stop)
	<-sampled
	cpu1, err := s.srv.cpu()
	if err != nil {
		return nil, 0, err
	}
	after, err := serve.Scrape(s.srv.url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	delta := func(k string) float64 { return after[k] - before[k] }

	hits := delta("gschedd_cache_hits_total")
	runs := delta("gschedd_schedule_runs_total")
	get := func(o outcome) float64 { return o.serverMs }
	isHit := func(o outcome) bool { return o.hit }
	isMiss := func(o outcome) bool { return !o.hit }
	extra := map[string]Metric{
		"loadgen.late_ms_p99":      {percentile(latencies(open, func(o outcome) float64 { return o.lateMs }, nil), 99), "ms"},
		"http.conn_wait_ms_p99":    {percentile(latencies(open, func(o outcome) float64 { return o.connMs }, nil), 99), "ms"},
		"serve.server_ms_p50.hit":  {median(latencies(open, get, isHit)), "ms"},
		"serve.server_ms_p50.miss": {median(latencies(open, get, isMiss)), "ms"},
		"serve.cpu_ms_per_req":     {ms(cpu1-cpu0) / float64(len(open)), "ms"},
		"store.hit_ratio":          {hits / (hits + delta("gschedd_cache_misses_total")), "ratio"},
		"store.computes":           {delta("gschedd_store_computes_total"), "count"},
		"serve.schedule_runs":      {runs, "count"},
		"serve.singleflight_waits": {delta("gschedd_singleflight_waits_total"), "count"},
		"serve.queue_depth_max":    {depth, "count"},
	}
	for _, ph := range []string{"rename", "pdg", "region", "local", "xform"} {
		secs := delta(fmt.Sprintf("gschedd_phase_seconds_total{phase=%q}", ph))
		extra["serve.phase_ms_per_run."+ph] = Metric{1000 * secs / runs, "ms"}
	}
	return extra, len(open), nil
}
