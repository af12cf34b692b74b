package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// speedometer measures how fast the host runs right now, so timings
// taken on a shared machine can be stated at one reference speed. Its
// kernel is fixed code of the benchmark's own that does what a compile
// does — allocate a graph of small objects and maps, walk it depth
// first, sort — on data it builds afresh each time, so neither a change
// to the scheduler nor what the workload left in the caches changes it.
// Samples are taken only while the workload is idle: between compiles,
// or while no request is in flight to gschedd. Each sample first forces
// a garbage collection, so the garbage an operation left behind does not
// slow the kernel; otherwise a change that allocates more would slow
// the kernel too, and partly cancel its own regression once scaled.
type speedometer struct {
	at    []time.Time
	durNs []float64
}

// speedEvery is how often the timed loops sample the host's speed.
const speedEvery = 100 * time.Millisecond

// setupSamples is how many kernel runs precede a timed set-up, and how
// many follow it: a fresh process has few samples to go on, and a set-up
// of seconds can see the host change speed.
const setupSamples = 15

// refKernelNs is the reference speed, a round figure near the kernel's
// time on the recorded host. A factor of 2 means the kernel took twice
// that.
const refKernelNs = 1e6

type kernelNode struct {
	succ []*kernelNode
	seen bool
	vals map[int]int
}

var kernelSink int

func (s *speedometer) kernel() {
	r := rand.New(rand.NewSource(1))
	nodes := make([]*kernelNode, 3000)
	for i := range nodes {
		nodes[i] = &kernelNode{vals: map[int]int{i: i}}
	}
	for _, n := range nodes {
		for k := 0; k < 4; k++ {
			n.succ = append(n.succ, nodes[r.Intn(len(nodes))])
		}
	}
	var order []int
	var walk func(n *kernelNode, depth int)
	walk = func(n *kernelNode, depth int) {
		if n.seen || depth > 200 {
			return
		}
		n.seen = true
		for _, m := range n.succ {
			walk(m, depth+1)
		}
		order = append(order, len(n.vals)+depth)
	}
	for _, n := range nodes {
		walk(n, 0)
	}
	sort.Ints(order)
	kernelSink += len(order)
}

// sample times one kernel run on a freshly collected heap.
func (s *speedometer) sample() {
	runtime.GC()
	t0 := time.Now()
	s.kernel()
	s.durNs = append(s.durNs, float64(time.Since(t0)))
	s.at = append(s.at, t0)
}

// tick samples when the last sample is older than speedEvery.
func (s *speedometer) tick() {
	if len(s.at) == 0 || time.Since(s.at[len(s.at)-1]) >= speedEvery {
		s.sample()
	}
}

// factor is how much slower than the reference the host ran around t:
// the median of the samples within a second and a half of t (at least
// the five nearest) over refKernelNs. A window that wide holds about
// thirty samples, enough to average out the kernel's own jitter while
// following the drift of a shared host.
func (s *speedometer) factor(t time.Time) float64 {
	const window = 1500 * time.Millisecond
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(t.Add(-window)) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t.Add(window)) })
	for hi-lo < 5 && hi-lo < len(s.at) {
		if lo > 0 && (hi == len(s.at) || t.Sub(s.at[lo-1]) < s.at[hi].Sub(t)) {
			lo--
		} else {
			hi++
		}
	}
	return median(s.durNs[lo:hi]) / refKernelNs
}

// overall is the factor over the whole run.
func (s *speedometer) overall() float64 { return median(s.durNs) / refKernelNs }

// timeSetup times fn, taking setupSamples samples before it and as many
// after, and returns its duration in seconds as measured and divided by
// the factor those samples give.
func (s *speedometer) timeSetup(fn func() error) (scaled, raw float64, err error) {
	from := len(s.durNs)
	for i := 0; i < setupSamples; i++ {
		s.sample()
	}
	start := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	raw = time.Since(start).Seconds()
	for i := 0; i < setupSamples; i++ {
		s.sample()
	}
	return raw / (median(s.durNs[from:]) / refKernelNs), raw, nil
}
