package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"gsched/internal/progen"
)

// Soak: many goroutines hammer the server with a shuffled progen
// corpus. Every response must be 200 and byte-identical across repeats
// of the same program, regardless of interleaving; the cache must see
// both hits and misses. Run under -race in CI, this also pins the
// server and scheduler free of data races.
func TestSoakConcurrentDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 1024})

	const goroutines = 8
	const corpusSize = 6
	const perG = 18

	corpus := make([][]byte, corpusSize)
	for i := range corpus {
		body, err := json.Marshal(&Request{Source: progen.New(int64(i)).Source})
		if err != nil {
			t.Fatal(err)
		}
		corpus[i] = body
	}

	var mu sync.Mutex
	bodies := make(map[int][]byte)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				idx := (g + k) % corpusSize
				resp, err := httpClient.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(corpus[idx]))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, b)
					return
				}
				mu.Lock()
				if prev, ok := bodies[idx]; !ok {
					bodies[idx] = b
				} else if !bytes.Equal(prev, b) {
					t.Errorf("program %d: response changed across interleavings", idx)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	st, _ := func() (cacheStats, int) { return tsStats(ts) }()
	if st.Hits == 0 {
		t.Error("soak saw no cache hits")
	}
	if st.Misses == 0 {
		t.Error("soak saw no cache misses")
	}
	if st.Hits+st.Misses != goroutines*perG {
		t.Errorf("hits %d + misses %d != %d requests", st.Hits, st.Misses, goroutines*perG)
	}
}

// tsStats scrapes the cache counters from the test server's /metrics.
func tsStats(ts *httptest.Server) (cacheStats, int) {
	m, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		return cacheStats{}, 0
	}
	return cacheStats{
		Hits:      int64(m["gschedd_cache_hits_total"]),
		Misses:    int64(m["gschedd_cache_misses_total"]),
		Evictions: int64(m["gschedd_cache_evictions_total"]),
		Bytes:     int64(m["gschedd_cache_bytes"]),
		Entries:   int(m["gschedd_cache_entries"]),
	}, int(m[`gschedd_requests_total{endpoint="/schedule",code="200"}`])
}

// The full mixed load (hits, misses, a timeout, an invalid program, an
// injected panic) against an in-process server: counters must be
// consistent with the client's view. The cmd/gschedd smoke test runs
// the same drill against the real binary.
func TestMixedLoadCountersConsistent(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 4, QueueDepth: 1024, AllowDebugPanic: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	res, err := MixedLoad(ts.URL, 60, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCounters(m); err != nil {
		t.Error(err)
	}
	if res.Codes[200] == 0 || res.Codes[400] == 0 || res.Codes[504] == 0 || res.Codes[500] != 1 {
		t.Errorf("unexpected code mix: %v", res.Codes)
	}
	if res.HitHeaders == 0 {
		t.Error("mixed load saw no cache hits")
	}
}

// BenchmarkServeThroughput measures end-to-end requests/second through
// the HTTP layer on the repeated progen corpus (cache hits dominate
// after the first round, as in steady-state serving). Companion to
// BenchmarkSchedulerThroughput in the root bench suite.
func BenchmarkServeThroughput(b *testing.B) {
	s, err := New(Config{Workers: 4, QueueDepth: 1 << 20,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	corpus := make([][]byte, 8)
	for i := range corpus {
		body, err := json.Marshal(&Request{Source: progen.New(int64(i)).Source})
		if err != nil {
			b.Fatal(err)
		}
		corpus[i] = body
		// Warm the cache so the benchmark measures steady state.
		resp, err := httpClient.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := corpus[i%len(corpus)]
			i++
			resp, err := httpClient.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeMiss measures the uncached path: every request is a
// fresh program, so each pays compile + schedule + print.
func BenchmarkServeMiss(b *testing.B) {
	s, err := New(Config{Workers: 4, QueueDepth: 1 << 20, CacheBytes: -1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(&Request{Source: progen.New(3).Source})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := httpClient.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// benchParallelism is the client goroutines per GOMAXPROCS of the
// tier benchmarks below.
const benchParallelism = 4

// scheduleBody marshals a /schedule request for the progen program at
// seed. It is called from RunParallel's goroutines, where b.Fatal is
// not allowed; a Request holding only a source always marshals.
func scheduleBody(seed int64) []byte {
	body, err := json.Marshal(&Request{Source: progen.New(seed).Source})
	if err != nil {
		panic(err)
	}
	return body
}

// postOK posts body to baseURL's /schedule and wants a 200.
func postOK(baseURL string, body []byte) error {
	code, _, resp, err := postSchedule(baseURL, body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, resp)
	}
	return err
}

// storeHits sums one server's hits over every store tier, and returns
// its lookups: the memory tier's hits plus misses, the top of every
// store walk.
func storeHits(s *Server) (hits, lookups float64) {
	for _, st := range storeStats(s) {
		hits += float64(st.Hits)
		if st.Tier == "memory" {
			lookups = float64(st.Hits + st.Misses)
		}
	}
	return hits, lookups
}

// reportTier reports the timed loop's request rate and the store hit
// ratio it measured.
func reportTier(b *testing.B, hits, lookups float64) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if lookups > 0 {
		b.ReportMetric(hits/lookups, "hit_ratio")
	}
}

// BenchmarkDiskWarmRestart measures what the disk tier buys: a server
// computes a corpus into its cache directory and closes, and its
// successor serves the same corpus from the disk files with no
// pipeline run. The successor's memory tier is shrunk below the corpus
// so requests keep reaching disk. hit_ratio is the successor's
// measured store hit ratio: 1.0 when every request warm-started.
func BenchmarkDiskWarmRestart(b *testing.B) {
	dir := b.TempDir()
	const corpusN = 16
	corpus := make([][]byte, corpusN)
	s1, err := New(quietConfig(Config{Workers: 4, CacheDir: dir}))
	if err != nil {
		b.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for i := range corpus {
		corpus[i] = scheduleBody(int64(2_000_000 + i))
		if err := postOK(ts1.URL, corpus[i]); err != nil {
			b.Fatal(err)
		}
	}
	ts1.Close()
	s1.Close()

	s2, err := New(quietConfig(Config{Workers: 4, QueueDepth: 1 << 20, CacheDir: dir, CacheBytes: 1}))
	if err != nil {
		b.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var seq atomic.Int64
	b.SetParallelism(benchParallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := postOK(ts2.URL, corpus[seq.Add(1)%corpusN]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	hits, lookups := storeHits(s2)
	reportTier(b, hits, lookups)
}

// BenchmarkCluster3 measures what the peer tier buys: a 3-node
// in-process cluster at a target hit ratio of 0, 50, 90 and 99%. A
// warmed 16-program corpus supplies the hits (whichever tier answers
// first: memory, disk or a peer), fresh programs supply the misses,
// and requests round-robin across the nodes. hit_ratio is what the
// store counters of all nodes measured over the timed loop.
func BenchmarkCluster3(b *testing.B) {
	for _, pct := range []int64{0, 50, 90, 99} {
		b.Run(fmt.Sprintf("hit%02d", pct), func(b *testing.B) {
			const nodes = 3
			c, err := StartCluster(nodes, quietConfig(Config{Workers: 2, QueueDepth: 1 << 20}), nil)
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
				for _, u := range urls {
					if err := postOK(u, corpus[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			totals := func() (hits, lookups float64) {
				for i := 0; i < nodes; i++ {
					h, l := storeHits(c.Server(i))
					hits, lookups = hits+h, lookups+l
				}
				return hits, lookups
			}
			hits0, lookups0 := totals()

			var seq atomic.Int64
			b.SetParallelism(benchParallelism)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					body := corpus[i%corpusN]
					if i%100 >= pct {
						body = scheduleBody(4_000_000 + i)
					}
					if err := postOK(urls[i%nodes], body); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			hits1, lookups1 := totals()
			reportTier(b, hits1-hits0, lookups1-lookups0)
		})
	}
}
