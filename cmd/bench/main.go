// Command bench runs the repo's headline performance benchmarks and
// writes a machine-readable JSON report (BENCH_schedule.json by
// default), so CI can archive per-commit numbers and regressions show
// up as diffs in an artifact instead of anecdotes.
//
//	go run ./cmd/bench -o BENCH_schedule.json -benchtime 1s
//
// The benchmarks mirror the `go test -bench` definitions — same
// workloads, same server configurations — but run through
// testing.Benchmark so the output is a stable JSON document rather
// than text to parse.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/eval"
	"gsched/internal/machine"
	"gsched/internal/progen"
	"gsched/internal/serve"
	"gsched/internal/stream"
	"gsched/internal/tune"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// Result is one benchmark's measurements. ReqPerS is present only for
// the serving benchmarks (it is requests, not iterations, per second —
// identical here because each iteration is one request). Nodes and the
// hit-ratio fields describe the cluster benchmarks: TargetHitRatio is
// the request mix the client aimed for, HitRatio the ratio the store
// counters actually measured (memory + disk + peer hits over lookups).
type Result struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	ReqPerS        float64 `json:"req_per_s,omitempty"`
	Nodes          int     `json:"nodes,omitempty"`
	TargetHitRatio float64 `json:"target_hit_ratio,omitempty"`
	HitRatio       float64 `json:"hit_ratio,omitempty"`
	ReqPerSPerCore float64 `json:"req_per_s_per_core,omitempty"`
}

// ScalePoint is one size of the big-program scaling sweep: the full
// streaming pipeline (parse → schedule → print) run once over a
// progen.Huge program of roughly TargetInstrs instructions. The
// per-instruction ratios are the headline numbers — sub-linear growth
// in ns/instr and allocs/instr across the sweep means the tool chain
// scales to big programs; a jump flags a superlinear hot spot.
type ScalePoint struct {
	TargetInstrs   int     `json:"target_instrs"`
	Funcs          int     `json:"funcs"`
	Instrs         int     `json:"instrs"`
	SourceBytes    int     `json:"source_bytes"`
	Jobs           int     `json:"jobs"`
	WallNs         int64   `json:"wall_ns"`
	NsPerInstr     float64 `json:"ns_per_instr"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
}

// Report is the top-level JSON document. NumCPU is the machine's CPU
// count; GoMaxProcs is what the benchmarks could actually use — on a
// quota-limited container the two differ, and req/s-per-core math must
// divide by GoMaxProcs, not NumCPU.
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"num_cpu"`
	GoMaxProcs  int      `json:"go_max_procs"`
	Parallel    int      `json:"client_parallelism"`
	Benchmarks  []Result `json:"benchmarks"`

	// SpeedupVsDepth is the speculation-depth curve (degree ×
	// probability gate, RTI over BASE in simulated cycles) on the four
	// workload proxies. Cycle counts are deterministic, so diffs here
	// are real scheduling changes, not timing noise.
	SpeedupVsDepth []eval.DepthPoint `json:"speedup_vs_depth,omitempty"`

	// Tuned holds one auto-tuner run per workload proxy (fixed seed,
	// mode=both): the best (policy, machine) pair found versus the
	// built-in §5.2 order on the stock RS6K. Deterministic in the seed,
	// so these diff like the curve: a change is a real search-space or
	// scheduler change.
	Tuned []*tune.Result `json:"tuned,omitempty"`

	// Scaling is the big-program scaling curve: one streaming-pipeline
	// run per program size (1×/10×/100× and beyond). Unlike the
	// benchmarks above these are single runs of multi-second workloads,
	// so ns figures carry a few percent of noise; the shape of the
	// curve, not the last digit, is the signal.
	Scaling []ScalePoint `json:"scaling,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_schedule.json", "output file (- for stdout)")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring time")
	parallel := flag.Int("parallel", 4, "client goroutines per GOMAXPROCS in the serving benchmarks")
	clusterBench := flag.Bool("cluster", true, "include the 3-node cluster capacity benchmarks")
	curve := flag.Bool("curve", true, "include the speedup-vs-speculation-depth curve")
	tuneRuns := flag.Bool("tune", true, "include per-workload auto-tuner runs (policy + machine search)")
	tuneIters := flag.Int("tune-iters", 32, "candidate evaluations per auto-tuner run")
	scaleSweep := flag.Bool("scale", true, "include the big-program scaling sweep")
	scaleSizes := flag.String("scale-sizes", "1000,10000,100000", "comma-separated target instruction counts for -scale")
	scaleJobs := flag.Int("scale-jobs", 0, "worker count for the scaling sweep (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	testing.Init()
	flag.Parse()
	if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	report := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallel:    *parallel,
	}
	type bench struct {
		name  string
		reqps bool
		extra *Result // cluster/restart measurements filled by the bench
		fn    func(*testing.B)
	}
	benches := []bench{
		{name: "scheduler_throughput", fn: benchSchedulerThroughput},
		{name: "schedule_only_li", fn: benchScheduleOnlyLI},
		{name: "serve_hit", reqps: true, fn: benchServeHit(*parallel)},
		{name: "serve_miss", reqps: true, fn: benchServeMiss(*parallel)},
	}
	{
		extra := &Result{}
		benches = append(benches, bench{name: "serve_disk_warm_restart", reqps: true, extra: extra,
			fn: benchDiskWarmRestart(*parallel, extra)})
	}
	if *clusterBench {
		for _, hr := range []float64{0, 0.5, 0.9, 0.99} {
			extra := &Result{}
			benches = append(benches, bench{
				name:  fmt.Sprintf("cluster3_hit%02d", int(hr*100)),
				reqps: true,
				extra: extra,
				fn:    benchCluster3(hr, *parallel, extra),
			})
		}
	}
	for _, b := range benches {
		fmt.Fprintf(os.Stderr, "running %s...\n", b.name)
		res := testing.Benchmark(b.fn)
		r := Result{
			Name:        b.name,
			Iterations:  res.N,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if b.reqps && res.T > 0 {
			r.ReqPerS = float64(res.N) / res.T.Seconds()
			r.ReqPerSPerCore = r.ReqPerS / float64(report.GoMaxProcs)
		}
		if b.extra != nil {
			r.Nodes = b.extra.Nodes
			r.TargetHitRatio = b.extra.TargetHitRatio
			r.HitRatio = b.extra.HitRatio
		}
		report.Benchmarks = append(report.Benchmarks, r)
		fmt.Fprintf(os.Stderr, "  %d iters, %d ns/op, %d allocs/op\n",
			res.N, res.NsPerOp(), res.AllocsPerOp())
	}

	if *curve {
		fmt.Fprintln(os.Stderr, "running speedup_vs_depth...")
		_, points, err := eval.SpeedupVsDepth(workload.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		report.SpeedupVsDepth = points
	}

	if *tuneRuns {
		for _, w := range workload.All() {
			fmt.Fprintf(os.Stderr, "tuning %s...\n", w.Name)
			res, err := tune.Run(context.Background(), tune.Config{
				Seed: 1, Iters: *tuneIters, Mode: tune.ModeBoth,
				Workloads: []*workload.Workload{w},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "  baseline %d cycles, best %d (%.1f%%)\n",
				res.BaselineCycles, res.BestCycles, res.ImprovedPct)
			report.Tuned = append(report.Tuned, res)
		}
	}

	if *scaleSweep {
		sizes, err := parseSizes(*scaleSizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		jobs := *scaleJobs
		if jobs <= 0 {
			jobs = runtime.GOMAXPROCS(0)
		}
		// Warm up code paths and the heap once so the first measured
		// point does not pay JIT-less Go's one-time costs (first GC
		// growth, lazily built tables).
		if _, err := runScalePoint(1000, jobs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, target := range sizes {
			fmt.Fprintf(os.Stderr, "scaling %d instrs...\n", target)
			pt, err := runScalePoint(target, jobs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			report.Scaling = append(report.Scaling, pt)
			fmt.Fprintf(os.Stderr, "  %d funcs, %d instrs: %.0f ns/instr, %.2f allocs/instr, peak heap %.1f MiB\n",
				pt.Funcs, pt.Instrs, pt.NsPerInstr, pt.AllocsPerInstr, float64(pt.PeakHeapBytes)/(1<<20))
		}
	}

	enc, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -scale-sizes entry %q", tok)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

// runScalePoint generates a progen.Huge program of about target
// instructions and runs it once through the streaming pipeline (parse,
// rename, schedule at the speculative level with the §6 transforms,
// print to a discarded writer), measuring wall time, allocations, and
// peak heap. Generation happens outside the measured window; a
// background sampler polls HeapAlloc so the peak covers mid-run state,
// not just the final heap.
func runScalePoint(target, jobs int) (ScalePoint, error) {
	hp := progen.Huge(11, target)
	cfg := stream.Config{
		Opts:     core.Defaults(machine.RS6K(), core.LevelSpeculative),
		Pipeline: xform.DefaultConfig(), UsePipeline: true,
		Jobs: jobs,
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	t0 := time.Now()
	res, err := stream.Schedule(context.Background(), asm.Native, hp.Source, cfg, io.Discard)
	wall := time.Since(t0)
	close(stop)
	<-sampled
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale %d: %w", target, err)
	}
	if after.HeapAlloc > peak.Load() {
		peak.Store(after.HeapAlloc)
	}

	n := float64(res.Instrs)
	return ScalePoint{
		TargetInstrs:   target,
		Funcs:          res.Funcs,
		Instrs:         res.Instrs,
		SourceBytes:    len(hp.Source),
		Jobs:           jobs,
		WallNs:         wall.Nanoseconds(),
		NsPerInstr:     float64(wall.Nanoseconds()) / n,
		AllocsPerInstr: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerInstr:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		PeakHeapBytes:  peak.Load(),
	}, nil
}

// benchSchedulerThroughput is BenchmarkSchedulerThroughput: compile +
// full pipeline per iteration on the li workload.
func benchSchedulerThroughput(b *testing.B) {
	w := workload.LI()
	mach := machine.RS6K()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, core.LevelSpeculative), xform.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScheduleOnlyLI times only the scheduling pipeline; compilation
// runs outside the timer.
func benchScheduleOnlyLI(b *testing.B) {
	w := workload.LI()
	mach := machine.RS6K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := xform.RunProgramCtx(context.Background(), prog, core.Defaults(mach, core.LevelSpeculative), xform.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func quietServer(cfg serve.Config) (*serve.Server, *httptest.Server) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return s, httptest.NewServer(s.Handler())
}

func postOnce(url string, body []byte) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// scheduleBody marshals a /schedule request for the progen program at
// seed.
func scheduleBody(seed int64) []byte {
	body, err := json.Marshal(&serve.Request{Source: progen.New(seed).Source})
	if err != nil {
		panic(err)
	}
	return body
}

// benchServeHit is BenchmarkServeThroughput: a warm cache served over
// HTTP, parallel clients.
func benchServeHit(parallel int) func(*testing.B) {
	return func(b *testing.B) {
		s, ts := quietServer(serve.Config{Workers: 4, QueueDepth: 1 << 20})
		defer ts.Close()
		defer s.Close()

		corpus := make([][]byte, 8)
		for i := range corpus {
			corpus[i] = scheduleBody(int64(i))
			if err := postOnce(ts.URL+"/schedule", corpus[i]); err != nil {
				b.Fatal(err)
			}
		}

		b.SetParallelism(parallel)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := postOnce(ts.URL+"/schedule", corpus[i%len(corpus)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	}
}

// benchServeMiss is BenchmarkServeMiss with parallel clients: caching
// disabled and every request a distinct program, so every request runs
// the pipeline (identical concurrent requests would otherwise collapse
// onto one run via single-flight and overstate throughput).
func benchServeMiss(parallel int) func(*testing.B) {
	return func(b *testing.B) {
		s, ts := quietServer(serve.Config{Workers: 4, QueueDepth: 1 << 20, CacheBytes: -1})
		defer ts.Close()
		defer s.Close()

		var seq atomic.Int64
		b.SetParallelism(parallel)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				body := scheduleBody(1_000_000 + seq.Add(1))
				if err := postOnce(ts.URL+"/schedule", body); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
}

// benchDiskWarmRestart measures the warm-start path: a server computes
// a corpus into its disk tier, dies, and its successor serves the same
// corpus from disk files with zero pipeline runs. The recorded
// HitRatio is the successor's measured store hit ratio (1.0 when every
// request warm-started).
func benchDiskWarmRestart(parallel int, rec *Result) func(*testing.B) {
	return func(b *testing.B) {
		dir := b.TempDir()
		const corpusN = 16
		corpus := make([][]byte, corpusN)
		s1, ts1 := quietServer(serve.Config{Workers: 4, CacheDir: dir})
		for i := range corpus {
			corpus[i] = scheduleBody(int64(2_000_000 + i))
			if err := postOnce(ts1.URL+"/schedule", corpus[i]); err != nil {
				b.Fatal(err)
			}
		}
		ts1.Close()
		s1.Close()

		// The successor: same directory, cold memory. Shrink the memory
		// tier below the corpus so requests keep reaching the disk tier
		// instead of being absorbed by RAM after the first touch.
		s2, ts2 := quietServer(serve.Config{Workers: 4, QueueDepth: 1 << 20,
			CacheDir: dir, CacheBytes: 1})
		defer ts2.Close()
		defer s2.Close()

		var seq atomic.Int64
		b.SetParallelism(parallel)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				body := corpus[seq.Add(1)%corpusN]
				if err := postOnce(ts2.URL+"/schedule", body); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()

		var hits, lookups float64
		for _, st := range s2.StoreStats() {
			hits += float64(st.Hits)
			if st.Tier == "memory" {
				lookups = float64(st.Hits + st.Misses)
			}
		}
		rec.Nodes = 1
		rec.TargetHitRatio = 1
		if lookups > 0 {
			rec.HitRatio = hits / lookups
		}
	}
}

// clusterTierTotals sums (memory+disk+peer hits, lookups) across all
// nodes; lookups is the memory tier's hits+misses, the top of every
// store walk.
func clusterTierTotals(c *serve.Cluster, n int) (hits, lookups float64) {
	for i := 0; i < n; i++ {
		s := c.Server(i)
		if s == nil {
			continue
		}
		for _, st := range s.StoreStats() {
			hits += float64(st.Hits)
			if st.Tier == "memory" {
				lookups += float64(st.Hits + st.Misses)
			}
		}
	}
	return hits, lookups
}

// benchCluster3 measures a 3-node in-process cluster at a target hit
// ratio: a warmed corpus supplies the hits (memory, disk or peer —
// whatever tier answers first), fresh programs supply the misses, and
// requests round-robin across nodes. The recorded HitRatio is what the
// store counters measured over the timed window.
func benchCluster3(hitRatio float64, parallel int, rec *Result) func(*testing.B) {
	return func(b *testing.B) {
		const nodes = 3
		cfg := serve.Config{Workers: 2, QueueDepth: 1 << 20,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
		c, err := serve.StartCluster(nodes, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		urls := c.URLs()

		const corpusN = 16
		corpus := make([][]byte, corpusN)
		for i := range corpus {
			corpus[i] = scheduleBody(int64(3_000_000 + i))
			// Touch every node so replication and promotion settle
			// before the timer starts.
			for k := 0; k < nodes; k++ {
				if err := postOnce(urls[k]+"/schedule", corpus[i]); err != nil {
					b.Fatal(err)
				}
			}
		}

		hitsBefore, lookupsBefore := clusterTierTotals(c, nodes)
		hitCut := int64(hitRatio * 100)
		var seq atomic.Int64
		b.SetParallelism(parallel)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := seq.Add(1)
				var body []byte
				if i%100 < hitCut {
					body = corpus[i%corpusN]
				} else {
					body = scheduleBody(4_000_000 + i)
				}
				if err := postOnce(urls[i%nodes]+"/schedule", body); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()

		hitsAfter, lookupsAfter := clusterTierTotals(c, nodes)
		rec.Nodes = nodes
		rec.TargetHitRatio = hitRatio
		if d := lookupsAfter - lookupsBefore; d > 0 {
			rec.HitRatio = (hitsAfter - hitsBefore) / d
		}
	}
}
