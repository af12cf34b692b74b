package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gsched/internal/progen"
)

func quietConfig(cfg Config) Config {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return cfg
}

func startTestCluster(t *testing.T, n int, cfg Config, dirs []string) *Cluster {
	t.Helper()
	c, err := StartCluster(n, quietConfig(cfg), dirs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sourceOwnedBy searches progen seeds for a program whose content key
// the given node owns, so routing tests are deterministic instead of
// probabilistic.
func sourceOwnedBy(t *testing.T, peer *peerStore, owner string, seedBase int64) (string, cacheKey) {
	t.Helper()
	for seed := seedBase; seed < seedBase+1000; seed++ {
		src := progen.New(seed).Source
		j, err := resolve(&Request{Source: src}, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := peer.Owner(j.key); got == owner {
			return src, j.key
		}
	}
	t.Fatalf("no program owned by %s in 1000 seeds", owner)
	return "", cacheKey{}
}

// TestClusterByteIdenticalToSingleNode is the core consistency claim:
// the same request stream answered by a 3-node cluster produces
// byte-for-byte the responses a single node produces, and the
// cluster-wide counters reconcile (memory + disk + peer hits +
// computes == lookups).
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	_, single := newTestServer(t, Config{Workers: 2})
	solo, err := Load(LoadOptions{Targets: []string{single.URL}, N: 40, Concurrency: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	c := startTestCluster(t, 3, Config{Workers: 2}, nil)
	clustered, err := Load(LoadOptions{Targets: c.URLs(), N: 40, Concurrency: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	if len(clustered.Mismatches) > 0 {
		t.Fatalf("cross-node mismatches: %v", clustered.Mismatches)
	}
	for class, body := range solo.Bodies {
		cbody, ok := clustered.Bodies[class]
		if !ok {
			t.Errorf("class %s missing from cluster run", class)
			continue
		}
		if !bytes.Equal(body, cbody) {
			t.Errorf("class %s: cluster body differs from single-node body", class)
		}
	}

	scrapes, err := c.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	if err := clustered.CheckCounters(sumMetrics(scrapes...)); err != nil {
		t.Fatal(err)
	}
}

// TestClusterWideSingleFlight: concurrent identical misses on two
// different non-owner nodes run the pipeline once cluster-wide — the
// owner's claim protocol parks the second node until the first node's
// backfill lands.
func TestClusterWideSingleFlight(t *testing.T) {
	// A generous peer timeout: the second node's claim wait must
	// outlast the first node's compute, or it legitimately falls back
	// to a local run.
	c := startTestCluster(t, 3, Config{Workers: 2, PeerTimeout: 10 * time.Second}, nil)

	src, _ := sourceOwnedBy(t, c.Server(0).store.peer, c.URL(2), 2000)
	body, err := json.Marshal(&Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}

	const perNode = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, 2*perNode)
	errs := make([]error, 2*perNode)
	for i := 0; i < 2*perNode; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, respBody, err := postSchedule(c.URL(i%2), body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, respBody)
			}
			bodies[i], errs[i] = respBody, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs", i)
		}
	}

	var runs int64
	for i := 0; i < 3; i++ {
		runs += c.Server(i).runs.Load()
	}
	if runs != 1 {
		t.Fatalf("cluster ran %d pipelines for one key, want 1", runs)
	}
}

// TestClusterOwnerDownComputesLocally: a dead owner must cost latency,
// not correctness — the asking node falls through to its own pipeline
// and still answers 200.
func TestClusterOwnerDownComputesLocally(t *testing.T) {
	c := startTestCluster(t, 3, Config{Workers: 2, PeerTimeout: 200 * time.Millisecond}, nil)
	src, _ := sourceOwnedBy(t, c.Server(0).store.peer, c.URL(2), 3000)
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(&Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	code, cache, respBody, err := postSchedule(c.URL(0), body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("code %d, X-Cache %q (%s); want 200 miss", code, cache, respBody)
	}
	st := c.Server(0).store.peer.Stats()
	if st.Errors+st.Timeouts == 0 {
		t.Fatalf("peer stats %+v: expected the dead owner to show as an error or timeout", st)
	}
	if runs := c.Server(0).runs.Load(); runs != 1 {
		t.Fatalf("node 0 ran %d pipelines, want 1 (local fallback)", runs)
	}
}

// TestClusterSlowOwnerFallsThrough: an owner slower than -peer-timeout
// is abandoned and the request computes locally, bounding the worst
// case a sick node can inflict on its peers.
func TestClusterSlowOwnerFallsThrough(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold every internal-protocol call until the test ends
		http.NotFound(w, r)
	}))
	defer slow.Close()
	defer close(release)

	s, ts := newTestServer(t, Config{
		Workers:     2,
		Self:        "http://127.0.0.1:1", // unreachable identity: only ring membership matters
		Peers:       []string{slow.URL},
		PeerTimeout: 50 * time.Millisecond,
	})
	src, _ := sourceOwnedBy(t, s.store.peer, normalizeNode(slow.URL), 4000)
	body, err := json.Marshal(&Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	code, cache, respBody, err := postSchedule(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("code %d, X-Cache %q (%s); want 200 miss", code, cache, respBody)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v: the slow owner was not abandoned at the timeout", elapsed)
	}
	if st := s.store.peer.Stats(); st.Timeouts == 0 {
		t.Fatalf("peer stats %+v: expected a timeout", st)
	}
}

// TestClusterKillRestartWarmStart is the full crash story: a node is
// killed mid-workload, the survivors keep answering, and the restarted
// node warm-starts from its disk tier — byte-identical responses
// throughout, disk hits after restart.
func TestClusterKillRestartWarmStart(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	cfg := Config{Workers: 2, ReplicateAfter: -1} // replicate on first contact
	c := startTestCluster(t, 3, cfg, dirs)

	before, err := Load(LoadOptions{Targets: c.URLs(), N: 40, Concurrency: 4, Seed: 5, SkipErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if before.Codes[200] != before.Total {
		t.Fatalf("pre-kill: %v", before.Codes)
	}

	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	during, err := Load(LoadOptions{Targets: c.URLs(), N: 40, Concurrency: 4, Seed: 6,
		SkipErrors: true, Tolerate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Seed 6's unique programs differ from seed 5's; only the corpus
	// classes name the same program across runs.
	for class, body := range before.Bodies {
		if !strings.HasPrefix(class, "corpus") {
			continue
		}
		if dbody, ok := during.Bodies[class]; ok && !bytes.Equal(body, dbody) {
			t.Errorf("class %s: body changed after node kill", class)
		}
	}

	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitHealthy(waitCtx); err != nil {
		t.Fatal(err)
	}

	// Same request stream as the pre-kill run, aimed only at the
	// restarted node: every key already exists somewhere (its own disk
	// or a peer), so responses must be byte-identical to the pre-kill
	// run.
	after, err := Load(LoadOptions{Targets: []string{c.URL(0)}, N: 40, Concurrency: 4, Seed: 5,
		SkipErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Codes[200] != after.Total {
		t.Fatalf("post-restart: %v", after.Codes)
	}
	for class, body := range before.Bodies {
		abody, ok := after.Bodies[class]
		if !ok {
			t.Errorf("class %s missing after restart", class)
			continue
		}
		if !bytes.Equal(body, abody) {
			t.Errorf("class %s: body differs across kill/restart", class)
		}
	}
	if after.DiskHeaders == 0 {
		t.Fatalf("post-restart run saw no disk hits: %+v", after)
	}
}

// sumMetrics adds per-series values across several scrapes: the
// cluster-wide view. Counter identities that hold per node (each
// request is counted exactly once, on exactly one node) survive the
// sum, so CheckCounters accepts the aggregate.
func sumMetrics(ms ...map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}
