package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawPost is a goroutine-safe post: it returns errors instead of
// calling into testing.T, so concurrent request tests can use it.
func rawPost(url string, body []byte) (*http.Response, []byte, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

// TestSingleFlightCollapsesIdenticalRequests proves the single-flight
// contract end to end: N concurrent identical cache misses produce
// exactly one pipeline run, N byte-identical 200 responses, and
// counters that reconcile (misses = N, runs = 1, waits = N-1).
//
// The test is deterministic, not probabilistic: the hook holds the
// leader inside its worker slot until all N-1 followers have joined the
// flight (observed via the sfWaits counter), so no follower can arrive
// late and start a second run.
func TestSingleFlightCollapsesIdenticalRequests(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2 * n})
	release := make(chan struct{})
	s.testHook = func() { <-release }

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		codes  []int
		caches []string
		bodies [][]byte
	)
	req := mustJSON(t, &Request{Source: testSrc})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body, err := rawPost(ts.URL+"/schedule", req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				codes = append(codes, -1)
				return
			}
			codes = append(codes, resp.StatusCode)
			caches = append(caches, resp.Header.Get("X-Cache"))
			bodies = append(bodies, body)
		}()
	}

	// Wait until every follower is parked on the flight, then let the
	// leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.sfWaits.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the flight", s.sfWaits.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, c)
		}
		if caches[i] != "miss" {
			t.Errorf("request %d: X-Cache %q, want \"miss\"", i, caches[i])
		}
	}
	for i := 1; i < len(bodies); i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if runs := s.runs.Load(); runs != 1 {
		t.Errorf("pipeline runs = %d, want 1", runs)
	}

	metrics, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"gschedd_cache_misses_total":       n,
		"gschedd_cache_hits_total":         0,
		"gschedd_schedule_runs_total":      1,
		"gschedd_singleflight_waits_total": n - 1,
	} {
		if got := metrics[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}

	// The flight's result went into the cache: one more identical
	// request is a pure hit and runs nothing.
	resp, _, err := rawPost(ts.URL+"/schedule", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("follow-up request: status %d cache %q, want 200/hit",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if runs := s.runs.Load(); runs != 1 {
		t.Errorf("pipeline runs after cached follow-up = %d, want still 1", runs)
	}
}

// TestSingleFlightLeaderFailureFollowerRecovers checks the failure leg:
// when the leader dies on its own request budget, a follower must not
// inherit the error blindly — it runs the job itself.
func TestSingleFlightLeaderFailureFollowerRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, AllowDebugPanic: true})

	// Leader panics (debug_panic); its flight publishes the error.
	panicReq := mustJSON(t, &Request{Source: testSrc, DebugPanic: true})
	resp, _, err := rawPost(ts.URL+"/schedule", panicReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic request: status %d, want 500", resp.StatusCode)
	}

	// debug_panic is not part of the content key, so this request shares
	// the failed one's key. The failure must not have been cached or left
	// a dead flight behind: the retry re-misses, starts a fresh flight,
	// and succeeds.
	okReq := mustJSON(t, &Request{Source: testSrc})
	resp, _, err = rawPost(ts.URL+"/schedule", okReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request after failed flight: status %d, want 200", resp.StatusCode)
	}
	if runs := s.runs.Load(); runs != 2 {
		t.Errorf("pipeline runs = %d, want 2 (one failed, one clean)", runs)
	}
}
