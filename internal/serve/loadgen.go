package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gsched/internal/progen"
)

// httpClient is the HTTP client of the load generator, Scrape, the
// cluster harness and this package's tests. Its timeout outlasts the
// server's default 30 s scheduling budget plus queueing, and turns a
// hung connection into an error instead of a stuck caller.
var httpClient = &http.Client{Timeout: time.Minute}

// LoadResult tallies one load-generation run against a server or a
// cluster of servers.
type LoadResult struct {
	// Total requests sent.
	Total int
	// Codes counts responses by HTTP status.
	Codes map[int]int
	// HitHeaders counts X-Cache: hit (memory tier); DiskHeaders and
	// PeerHeaders the persistent and peer tiers; MissHeaders computed
	// responses.
	HitHeaders, DiskHeaders, PeerHeaders, MissHeaders int
	// Bodies maps request class to the first 200 body observed — the
	// canonical bytes for that class, for cross-run byte-identity
	// checks (single node vs cluster vs post-restart).
	Bodies map[string][]byte
	// Errors counts transport failures, tallied only under
	// LoadOptions.Tolerate (a node killed mid-run).
	Errors int
	// Mismatches lists determinism violations: repeated requests whose
	// 200 bodies differed.
	Mismatches []string
}

type loadSpec struct {
	body []byte
	// class groups identical requests for the determinism check.
	class string
}

// LoadOptions parameterizes Load. The zero value (plus one target) is
// the classic MixedLoad: uniform corpus picks, error probes included.
type LoadOptions struct {
	// Targets are the base URLs load is spread across, round-robin.
	// One target is single-node mode.
	Targets []string
	// N is the total request count (floored at 8).
	N int
	// Concurrency is the client worker count (floored at 1).
	Concurrency int
	// Seed drives the request mix; equal seeds produce the identical
	// request sequence (the corpus key space is seed-independent, so
	// runs with different seeds still share cache entries).
	Seed int64
	// CorpusSize is the number of distinct repeated programs (default
	// 4). Repeats are cache hits after first contact.
	CorpusSize int
	// Zipf skews corpus popularity (s=1.2) instead of uniform picks:
	// the realistic hot-key distribution for replication tests.
	Zipf bool
	// SkipErrors drops the always-504 timeout probe and the always-400
	// malformed probe, so a warm run performs zero pipeline executions.
	SkipErrors bool
	// WithPanic adds one debug_panic request (server must run with
	// AllowDebugPanic).
	WithPanic bool
	// Tolerate counts transport errors (connection refused/reset — a
	// node died mid-run) in LoadResult.Errors instead of failing the
	// run. Kill/restart soaks need it; the failed requests simply
	// don't tally.
	Tolerate bool
}

// MixedLoad drives n mixed requests at the server's /schedule endpoint
// with the given concurrency: a small corpus of repeated programs
// (guaranteed cache hits after first contact), a stream of unique
// programs (guaranteed misses), one deliberately timed-out request, and
// one malformed program; withPanic adds one debug_panic request (the
// server must run with AllowDebugPanic). It verifies that repeated
// requests return byte-identical bodies regardless of interleaving.
func MixedLoad(baseURL string, n, concurrency int, withPanic bool) (*LoadResult, error) {
	return Load(LoadOptions{
		Targets:     []string{baseURL},
		N:           n,
		Concurrency: concurrency,
		WithPanic:   withPanic,
	})
}

// Load drives a mixed request stream at one or more gschedd nodes and
// tallies responses. Requests round-robin across Targets, so in
// cluster mode every node sees every request class and the determinism
// check spans nodes: a corpus program answered by node A must be
// byte-identical to the same program answered by node B.
func Load(opts LoadOptions) (*LoadResult, error) {
	if len(opts.Targets) == 0 {
		return nil, fmt.Errorf("load: no targets")
	}
	n := max(opts.N, 8)
	concurrency := max(opts.Concurrency, 1)
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	corpusSize := opts.CorpusSize
	if corpusSize <= 0 {
		corpusSize = 4
	}
	rng := rand.New(rand.NewSource(seed))

	// A fixed corpus absorbs half the load: every program is requested
	// many times, so hits dominate repeats. Corpus keys depend only on
	// the index, never the seed — different runs warm the same entries.
	var corpus []loadSpec
	for i := 0; i < corpusSize; i++ {
		src := progen.New(int64(100 + i)).Source
		body, err := json.Marshal(&Request{Source: src})
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, loadSpec{body: body, class: fmt.Sprintf("corpus%d", i)})
	}
	var zipf *rand.Zipf
	if opts.Zipf {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(corpus)-1))
	}
	pick := func() loadSpec {
		if zipf != nil {
			return corpus[zipf.Uint64()]
		}
		return corpus[rng.Intn(len(corpus))]
	}

	probes := 2
	if opts.SkipErrors {
		probes = 0
	}
	var specs []loadSpec
	for len(specs) < n-probes-1 {
		if rng.Intn(2) == 0 || len(specs) < len(corpus) {
			specs = append(specs, pick())
		} else {
			// A unique program: first and only visit, a guaranteed miss.
			// Seeded by the run seed so separate runs miss on separate
			// keys.
			src := progen.New(1000 + seed*100_000 + int64(len(specs))).Source
			body, err := json.Marshal(&Request{Source: src})
			if err != nil {
				return nil, err
			}
			specs = append(specs, loadSpec{body: body, class: fmt.Sprintf("unique%d", len(specs))})
		}
	}
	if !opts.SkipErrors {
		// One request with a budget no schedule can meet (1ns): always 504.
		tbody, err := json.Marshal(&Request{Source: progen.New(7777).Source, TimeoutMs: 0.000001})
		if err != nil {
			return nil, err
		}
		specs = append(specs, loadSpec{body: tbody, class: "timeout"})
		// One malformed program: always 400 with a parse diagnostic.
		specs = append(specs, loadSpec{body: []byte(`{"source":"int main( {"}`), class: "invalid"})
	}
	if opts.WithPanic {
		pbody, err := json.Marshal(&Request{Source: progen.New(8888).Source, DebugPanic: true})
		if err != nil {
			return nil, err
		}
		specs = append(specs, loadSpec{body: pbody, class: "panic"})
	}
	for len(specs) < n {
		specs = append(specs, pick())
	}
	rng.Shuffle(len(specs), func(i, k int) { specs[i], specs[k] = specs[k], specs[i] })

	res := &LoadResult{Codes: make(map[int]int), Bodies: make(map[string][]byte)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	type workItem struct {
		spec   loadSpec
		target string
	}
	work := make(chan workItem)
	errCh := make(chan error, concurrency)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range work {
				code, cache, body, err := postSchedule(item.target, item.spec.body)
				if err != nil {
					if opts.Tolerate {
						mu.Lock()
						res.Errors++
						mu.Unlock()
						continue
					}
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				mu.Lock()
				res.Total++
				res.Codes[code]++
				switch cache {
				case "hit":
					res.HitHeaders++
				case "disk":
					res.DiskHeaders++
				case "peer":
					res.PeerHeaders++
				case "miss":
					res.MissHeaders++
				}
				if code == http.StatusOK {
					if prev, ok := res.Bodies[item.spec.class]; !ok {
						res.Bodies[item.spec.class] = body
					} else if !bytes.Equal(prev, body) {
						res.Mismatches = append(res.Mismatches,
							fmt.Sprintf("%s: response bodies differ across repeats", item.spec.class))
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i, spec := range specs {
		work <- workItem{spec: spec, target: opts.Targets[i%len(opts.Targets)]}
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	return res, nil
}

func postSchedule(baseURL string, body []byte) (code int, cache string, respBody []byte, err error) {
	resp, err := httpClient.Post(baseURL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, nil
}

// Scrape fetches a /metrics endpoint and parses the Prometheus text
// format into a map of "name{labels}" (exactly as printed) to value.
func Scrape(url string) (map[string]float64, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics parses Prometheus text exposition into series -> value.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// CheckCounters validates the scraped metrics of a freshly booted
// server (or the per-series sum over a freshly booted cluster)
// against this run's tallies:
//
//   - every request that reached the store (200, 504, 500, 422) is
//     counted exactly once: memory hit, disk hit, peer hit, or a
//     compute — the tier identity
//     memory hits + disk hits + peer hits + computes == lookups;
//   - each tier's hit counter equals the X-Cache headers handed out
//     for it (hit / disk / peer);
//   - /schedule request counts by code match the client's view;
//   - repeated requests returned byte-identical bodies.
func (r *LoadResult) CheckCounters(m map[string]float64) error {
	if len(r.Mismatches) > 0 {
		return fmt.Errorf("non-deterministic responses: %s", strings.Join(r.Mismatches, "; "))
	}
	hits := m["gschedd_cache_hits_total"]
	misses := m["gschedd_cache_misses_total"]
	lookups := r.Codes[200] + r.Codes[202] + r.Codes[504] + r.Codes[500] + r.Codes[422]
	if int(hits+misses) != lookups {
		return fmt.Errorf("cache hits (%g) + misses (%g) = %g, want %d lookups (codes %v)",
			hits, misses, hits+misses, lookups, r.Codes)
	}
	if int(hits) != r.HitHeaders {
		return fmt.Errorf("cache hits %g but %d X-Cache: hit headers", hits, r.HitHeaders)
	}
	if _, ok := m[`gschedd_store_hits_total{tier="memory"}`]; ok {
		memHits := m[`gschedd_store_hits_total{tier="memory"}`]
		diskHits := m[`gschedd_store_hits_total{tier="disk"}`]
		peerHits := m[`gschedd_store_hits_total{tier="peer"}`]
		computes := m["gschedd_store_computes_total"]
		if int(memHits+diskHits+peerHits+computes) != lookups {
			return fmt.Errorf("memory hits (%g) + disk hits (%g) + peer hits (%g) + computes (%g) = %g, want %d lookups (codes %v)",
				memHits, diskHits, peerHits, computes,
				memHits+diskHits+peerHits+computes, lookups, r.Codes)
		}
		if int(memHits) != r.HitHeaders {
			return fmt.Errorf("memory tier hits %g but %d X-Cache: hit headers", memHits, r.HitHeaders)
		}
		if int(diskHits) != r.DiskHeaders {
			return fmt.Errorf("disk tier hits %g but %d X-Cache: disk headers", diskHits, r.DiskHeaders)
		}
		if int(peerHits) != r.PeerHeaders {
			return fmt.Errorf("peer tier hits %g but %d X-Cache: peer headers", peerHits, r.PeerHeaders)
		}
	}
	for code, n := range r.Codes {
		series := fmt.Sprintf(`gschedd_requests_total{endpoint="/schedule",code="%d"}`, code)
		if int(m[series]) != n {
			return fmt.Errorf("%s = %g, client saw %d", series, m[series], n)
		}
	}
	// The exact tier's job identity: every submitted job is completed,
	// failed, queued, or running.
	if sub, ok := m["gschedd_exact_jobs_submitted_total"]; ok {
		acc := m["gschedd_exact_jobs_completed_total"] + m["gschedd_exact_jobs_failed_total"] +
			m["gschedd_exact_queue_depth"] + m["gschedd_exact_running"]
		if sub != acc {
			return fmt.Errorf("exact jobs submitted (%g) != completed+failed+queued+running (%g)", sub, acc)
		}
	}
	return nil
}
