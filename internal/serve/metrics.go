package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"gsched/internal/core"
)

// latencyBuckets are the histogram upper bounds in seconds. They span
// sub-millisecond cache hits through multi-second pipeline runs.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numBuckets counts the finite buckets plus the +Inf overflow bucket.
const numBuckets = len(latencyBuckets) + 1

// histogram is a fixed-bucket latency histogram. It is guarded by the
// owning metricsRegistry mutex.
type histogram struct {
	counts [numBuckets]int64 // last bucket = +Inf
	sum    float64
	total  int64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// metricsRegistry accumulates the serving counters and renders them in the
// Prometheus text exposition format. All methods are safe for
// concurrent use.
type metricsRegistry struct {
	mu        sync.Mutex
	requests  map[string]map[int]int64 // endpoint -> status code -> count
	latencies map[string]*histogram    // endpoint -> latency histogram

	// Gauges are sampled at scrape time from the live server state.
	queueDepth func() int64
	inflight   func() int64
	// Counters sampled the same way: actual pipeline executions and
	// single-flight waits. runs < misses means collapsed duplicate work.
	scheduleRuns func() int64
	sfWaits      func() int64

	cache *memCache
	trace *core.Trace

	// stores samples every store tier's counters; replications and
	// computes sample the stack-level counters. All nil for servers
	// without a store.
	stores       func() []tierStats
	replications func() int64
	computes     func() int64
	// memoHits samples the key memo's hits (nil without a store).
	memoHits func() int64

	// exact samples the exact tier's async job-manager counters; nil
	// for servers without a job manager.
	exact func() exactStats
}

// newMetrics returns an empty registry. cache and trace may be nil;
// the sampling funcs may be nil for servers without a pool.
func newMetrics(cache *memCache, trace *core.Trace, queueDepth, inflight, scheduleRuns, sfWaits func() int64) *metricsRegistry {
	return &metricsRegistry{
		requests:     make(map[string]map[int]int64),
		latencies:    make(map[string]*histogram),
		cache:        cache,
		trace:        trace,
		queueDepth:   queueDepth,
		inflight:     inflight,
		scheduleRuns: scheduleRuns,
		sfWaits:      sfWaits,
	}
}

// ObserveRequest records one finished request against an endpoint.
func (m *metricsRegistry) ObserveRequest(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]int64)
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	h := m.latencies[endpoint]
	if h == nil {
		h = &histogram{}
		m.latencies[endpoint] = h
	}
	h.observe(d.Seconds())
}

// WriteTo renders every metric in Prometheus text format. Series are
// sorted, so the output is deterministic for a given state.
func (m *metricsRegistry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	fmt.Fprintf(cw, "# HELP gschedd_requests_total Finished HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(cw, "# TYPE gschedd_requests_total counter\n")
	for _, ep := range endpoints {
		codes := make([]int, 0, len(m.requests[ep]))
		for c := range m.requests[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(cw, "gschedd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, m.requests[ep][c])
		}
	}

	fmt.Fprintf(cw, "# HELP gschedd_request_seconds Request latency by endpoint.\n")
	fmt.Fprintf(cw, "# TYPE gschedd_request_seconds histogram\n")
	for _, ep := range endpoints {
		h := m.latencies[ep]
		if h == nil {
			continue
		}
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(cw, "gschedd_request_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(cw, "gschedd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(cw, "gschedd_request_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(cw, "gschedd_request_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}
	m.mu.Unlock()

	if m.cache != nil {
		cs := m.cache.Stats()
		fmt.Fprintf(cw, "# HELP gschedd_cache_hits_total Schedule cache hits.\n# TYPE gschedd_cache_hits_total counter\n")
		fmt.Fprintf(cw, "gschedd_cache_hits_total %d\n", cs.Hits)
		fmt.Fprintf(cw, "# HELP gschedd_cache_misses_total Schedule cache misses.\n# TYPE gschedd_cache_misses_total counter\n")
		fmt.Fprintf(cw, "gschedd_cache_misses_total %d\n", cs.Misses)
		fmt.Fprintf(cw, "# HELP gschedd_cache_evictions_total Schedule cache LRU evictions.\n# TYPE gschedd_cache_evictions_total counter\n")
		fmt.Fprintf(cw, "gschedd_cache_evictions_total %d\n", cs.Evictions)
		fmt.Fprintf(cw, "# HELP gschedd_cache_bytes Accounted bytes of cached response bodies (uncompressed, plus per-entry overhead).\n# TYPE gschedd_cache_bytes gauge\n")
		fmt.Fprintf(cw, "gschedd_cache_bytes %d\n", cs.Bytes)
		fmt.Fprintf(cw, "# HELP gschedd_cache_resident_bytes Compressed bytes of cached response bodies actually held.\n# TYPE gschedd_cache_resident_bytes gauge\n")
		fmt.Fprintf(cw, "gschedd_cache_resident_bytes %d\n", cs.Resident)
		fmt.Fprintf(cw, "# HELP gschedd_cache_entries Cached responses.\n# TYPE gschedd_cache_entries gauge\n")
		fmt.Fprintf(cw, "gschedd_cache_entries %d\n", cs.Entries)
	}

	if m.stores != nil {
		tiers := m.stores()
		writeTier := func(name, help, typ string, v func(tierStats) int64) {
			fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, t := range tiers {
				fmt.Fprintf(cw, "%s{tier=%q} %d\n", name, t.Tier, v(t))
			}
		}
		writeTier("gschedd_store_hits_total", "Store lookups served by this tier.", "counter",
			func(t tierStats) int64 { return t.Hits })
		writeTier("gschedd_store_misses_total", "Store lookups this tier could not serve.", "counter",
			func(t tierStats) int64 { return t.Misses })
		writeTier("gschedd_store_puts_total", "Bodies stored into this tier.", "counter",
			func(t tierStats) int64 { return t.Puts })
		writeTier("gschedd_store_evictions_total", "Entries evicted from this tier.", "counter",
			func(t tierStats) int64 { return t.Evictions })
		writeTier("gschedd_store_errors_total", "Tier failures: IO errors, corrupt entries deleted, failed peer calls.", "counter",
			func(t tierStats) int64 { return t.Errors })
		writeTier("gschedd_store_bytes", "Bytes held by this tier.", "gauge",
			func(t tierStats) int64 { return t.Bytes })
		writeTier("gschedd_store_entries", "Entries held by this tier (open claims for the peer tier).", "gauge",
			func(t tierStats) int64 { return int64(t.Entries) })
		for _, t := range tiers {
			if t.Tier != "peer" {
				continue
			}
			fmt.Fprintf(cw, "# HELP gschedd_store_peer_fetches_total Owner fetches attempted.\n# TYPE gschedd_store_peer_fetches_total counter\n")
			fmt.Fprintf(cw, "gschedd_store_peer_fetches_total %d\n", t.Fetches)
			fmt.Fprintf(cw, "# HELP gschedd_store_peer_timeouts_total Owner fetches abandoned at the peer timeout.\n# TYPE gschedd_store_peer_timeouts_total counter\n")
			fmt.Fprintf(cw, "gschedd_store_peer_timeouts_total %d\n", t.Timeouts)
			fmt.Fprintf(cw, "# HELP gschedd_store_peer_backfills_total Computed bodies pushed to their owning node.\n# TYPE gschedd_store_peer_backfills_total counter\n")
			fmt.Fprintf(cw, "gschedd_store_peer_backfills_total %d\n", t.Backfill)
			fmt.Fprintf(cw, "# HELP gschedd_store_peer_served_total Internal-protocol reads answered for peers.\n# TYPE gschedd_store_peer_served_total counter\n")
			fmt.Fprintf(cw, "gschedd_store_peer_served_total %d\n", t.Served)
		}
		if m.replications != nil {
			fmt.Fprintf(cw, "# HELP gschedd_store_replications_total Hot keys copied from their owner into the local tiers.\n# TYPE gschedd_store_replications_total counter\n")
			fmt.Fprintf(cw, "gschedd_store_replications_total %d\n", m.replications())
		}
		if m.memoHits != nil {
			fmt.Fprintf(cw, "# HELP gschedd_key_memo_hits_total /schedule bodies whose content key came from the request memo, skipping decode, compile and key hash.\n# TYPE gschedd_key_memo_hits_total counter\n")
			fmt.Fprintf(cw, "gschedd_key_memo_hits_total %d\n", m.memoHits())
		}
		if m.computes != nil {
			fmt.Fprintf(cw, "# HELP gschedd_store_computes_total Lookups that missed every tier and scheduled a computation (single-flight may collapse several into one run).\n# TYPE gschedd_store_computes_total counter\n")
			fmt.Fprintf(cw, "gschedd_store_computes_total %d\n", m.computes())
		}
	}

	if m.queueDepth != nil {
		fmt.Fprintf(cw, "# HELP gschedd_queue_depth Requests admitted but waiting for a worker.\n# TYPE gschedd_queue_depth gauge\n")
		fmt.Fprintf(cw, "gschedd_queue_depth %d\n", m.queueDepth())
	}
	if m.inflight != nil {
		fmt.Fprintf(cw, "# HELP gschedd_inflight Requests currently scheduling.\n# TYPE gschedd_inflight gauge\n")
		fmt.Fprintf(cw, "gschedd_inflight %d\n", m.inflight())
	}
	if m.scheduleRuns != nil {
		fmt.Fprintf(cw, "# HELP gschedd_schedule_runs_total Pipeline executions (misses actually computed).\n# TYPE gschedd_schedule_runs_total counter\n")
		fmt.Fprintf(cw, "gschedd_schedule_runs_total %d\n", m.scheduleRuns())
	}
	if m.sfWaits != nil {
		fmt.Fprintf(cw, "# HELP gschedd_singleflight_waits_total Requests that waited on an identical in-flight run.\n# TYPE gschedd_singleflight_waits_total counter\n")
		fmt.Fprintf(cw, "gschedd_singleflight_waits_total %d\n", m.sfWaits())
	}

	if m.exact != nil {
		es := m.exact()
		series := func(name, typ, help string, v int64) {
			fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			fmt.Fprintf(cw, "%s %d\n", name, v)
		}
		series("gschedd_exact_jobs_submitted_total", "counter", "Exact jobs accepted onto the queue (including retries).", es.Submitted)
		series("gschedd_exact_jobs_deduped_total", "counter", "Exact submissions that joined an existing job.", es.Deduped)
		series("gschedd_exact_jobs_rejected_total", "counter", "Exact submissions refused (queue full).", es.Rejected)
		series("gschedd_exact_jobs_completed_total", "counter", "Exact jobs finished with a result.", es.Completed)
		series("gschedd_exact_jobs_failed_total", "counter", "Exact jobs finished with an error (deadline, verifier, panic).", es.Failed)
		series("gschedd_exact_queue_depth", "gauge", "Exact jobs waiting for a worker.", es.Queued)
		series("gschedd_exact_running", "gauge", "Exact jobs currently scheduling.", es.Running)
		series("gschedd_exact_jobs_warm_total", "counter", "Exact jobs answered from the store stack without running a search.", es.Warm)
	}

	if m.trace != nil {
		fmt.Fprintf(cw, "# HELP gschedd_phase_seconds_total Cumulative scheduling time by pipeline phase.\n# TYPE gschedd_phase_seconds_total counter\n")
		for p := core.Phase(0); p < core.NumPhases; p++ {
			total, _ := m.trace.PhaseTotal(p)
			fmt.Fprintf(cw, "gschedd_phase_seconds_total{phase=%q} %g\n", p.String(), total.Seconds())
		}
		fmt.Fprintf(cw, "# HELP gschedd_phase_runs_total Cumulative phase executions.\n# TYPE gschedd_phase_runs_total counter\n")
		for p := core.Phase(0); p < core.NumPhases; p++ {
			_, runs := m.trace.PhaseTotal(p)
			fmt.Fprintf(cw, "gschedd_phase_runs_total{phase=%q} %d\n", p.String(), runs)
		}
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
