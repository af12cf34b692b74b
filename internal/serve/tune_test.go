package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gsched/internal/policy"
	"gsched/internal/tune"
)

// Two spellings of the same policy (they parse to one canonical form)
// must share a cache entry, while a semantically different policy — or
// no policy at all — must not.
func TestSchedulePolicyCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	tidy := policy.DefaultSource
	messy := strings.ReplaceAll(strings.ReplaceAll(tidy, ", ", " ,\n\t"), " - ", "-")
	if a, b := policy.MustParse(tidy).Canonical(), policy.MustParse(messy).Canonical(); a != b {
		t.Fatalf("test premise broken: spellings canonicalize differently:\n%s\n%s", a, b)
	}

	do := func(pol string) (*http.Response, []byte) {
		t.Helper()
		resp, body := post(t, ts, &Request{Source: testSrc, Level: "speculative", Policy: pol})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("policy %q: status %d: %s", pol, resp.StatusCode, body)
		}
		return resp, body
	}

	// Prime the cache without a policy; a policy-bearing request for the
	// same program must be a distinct entry even when the policy encodes
	// the built-in §5.2 order (the key hangs off the request, not the
	// bytes — and the bytes are indeed identical).
	resp, noPolBody := do("")
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request: X-Cache = %q, want miss", got)
	}
	resp, missBody := do(tidy)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("policy after no-policy: X-Cache = %q, want miss (policy must join the key)", got)
	}
	if !bytes.Equal(missBody, noPolBody) {
		t.Errorf("default §5.2 policy changed the schedule bytes")
	}

	// The other spelling of the same policy is a hit, byte-identical.
	resp, hitBody := do(messy)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("equivalent spelling: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hitBody, missBody) {
		t.Errorf("hit bytes differ from miss bytes:\n--- hit ---\n%s\n--- miss ---\n%s", hitBody, missBody)
	}

	// A semantically different policy misses.
	resp, _ = do("priority = tiers(y.class - x.class, x.d - y.d, y.pos - x.pos)")
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different policy: X-Cache = %q, want miss", got)
	}
}

// An unparseable policy is the client's fault: 400, with the parser's
// diagnostic in the body.
func TestScheduleBadPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, &Request{Source: testSrc, Policy: "priority = tiers("})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "policy") {
		t.Errorf("diagnostic does not mention the policy: %s", body)
	}
}

// postTune POSTs /tune and decodes the 202 body.
func postTune(t *testing.T, ts *httptest.Server, req *TuneRequest) (*http.Response, *TuneResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpClient.Post(ts.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var tr TuneResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(rbody, &tr); err != nil {
			t.Fatalf("tune body: %v: %s", err, rbody)
		}
	}
	return resp, &tr, rbody
}

// The whole /tune lifecycle: 202 with a job handle, poll to done, a
// well-formed deterministic tune.Result, dedup of identical requests,
// distinct jobs for distinct seeds — all reconciled against /metrics
// by the same identity CheckCounters enforces.
func TestTuneLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	req := &TuneRequest{Seed: 7, Iters: 4, Workloads: []string{"eqntott"}}
	resp, tr, body := postTune(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune POST: status %d: %s", resp.StatusCode, body)
	}
	if tr.Job.ID == "" || tr.Job.Poll != "/jobs/"+tr.Job.ID {
		t.Fatalf("bad job metadata: %+v", tr.Job)
	}

	jr := waitJob(t, ts, tr.Job.ID)
	if jr.Status != jobDone {
		t.Fatalf("tune job finished %q: %s", jr.Status, jr.Error)
	}
	var res tune.Result
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Fatalf("result: %v: %s", err, jr.Result)
	}
	if res.Mode != tune.ModePolicy {
		t.Errorf("mode = %q, want policy", res.Mode)
	}
	if res.Evaluated != 4 {
		t.Errorf("evaluated = %d, want 4", res.Evaluated)
	}
	if res.BestCycles > res.BaselineCycles {
		t.Errorf("best %d worse than baseline %d", res.BestCycles, res.BaselineCycles)
	}
	if res.Machine.Name != "rs6k" {
		t.Errorf("policy mode moved the machine: %s", res.Machine.Name)
	}
	if res.Policy != "" {
		if _, err := policy.Parse(res.Policy); err != nil {
			t.Errorf("winning policy does not parse: %v", err)
		}
	}
	if len(res.Workloads) != 1 || res.Workloads[0].Workload != "eqntott" {
		t.Errorf("per-workload scores = %+v", res.Workloads)
	}

	// Polls are stable forever.
	if jr2 := waitJob(t, ts, tr.Job.ID); !bytes.Equal(jr.Result, jr2.Result) {
		t.Error("tune result changed between polls")
	}

	// Identical requests (here with defaults spelled out) join the same
	// job; a different seed is a different job.
	_, tr2, _ := postTune(t, ts, &TuneRequest{Seed: 7, Iters: 4, Mode: "policy",
		Level: "speculative", Workloads: []string{"eqntott", "eqntott"}})
	if tr2.Job.ID != tr.Job.ID || tr2.Job.Status != jobDone {
		t.Errorf("identical tune request: id=%s status=%q, want %s/done", tr2.Job.ID, tr2.Job.Status, tr.Job.ID)
	}
	_, tr3, _ := postTune(t, ts, &TuneRequest{Seed: 8, Iters: 4, Workloads: []string{"eqntott"}})
	if tr3.Job.ID == tr.Job.ID {
		t.Error("different seed deduped onto the same job")
	}
	waitJob(t, ts, tr3.Job.ID)

	es := s.tunes.snapshot()
	if es.Submitted != 2 || es.Deduped != 1 || es.Completed != 2 {
		t.Errorf("counters submitted=%d deduped=%d completed=%d, want 2/1/2",
			es.Submitted, es.Deduped, es.Completed)
	}

	// The scraped view satisfies the job identity CheckCounters enforces.
	m, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m["gschedd_tune_jobs_submitted_total"] != 2 {
		t.Errorf("gschedd_tune_jobs_submitted_total = %g, want 2", m["gschedd_tune_jobs_submitted_total"])
	}
	var lr LoadResult
	if err := lr.CheckCounters(m); err != nil {
		t.Errorf("CheckCounters: %v", err)
	}
}

// Every malformed /tune request is refused up front with a diagnostic.
func TestTuneBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	get, err := httpClient.Get(ts.URL + "/tune")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tune: status %d", get.StatusCode)
	}

	for _, tc := range []struct {
		name string
		req  *TuneRequest
	}{
		{"unknown mode", &TuneRequest{Mode: "banana"}},
		{"unknown workload", &TuneRequest{Workloads: []string{"specint2000"}}},
		{"iters too big", &TuneRequest{Iters: 10000}},
		{"negative iters", &TuneRequest{Iters: -1}},
		{"untunable level", &TuneRequest{Level: "optimal"}},
		{"bad machine", &TuneRequest{Machine: json.RawMessage(`"cray1"`)}},
	} {
		resp, _, body := postTune(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
	}

	resp, err := httpClient.Post(ts.URL+"/tune", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d", resp.StatusCode)
	}
}

// Queue-full: with the single tune worker gated and the one-slot queue
// occupied, the next distinct run is turned away with Retry-After and
// succeeds on retry once the backlog drains.
func TestTuneQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{TuneWorkers: 1, TuneQueueDepth: 1})

	gate := make(chan struct{})
	s.testHook = func() { <-gate }
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	tuneReq := func(seed int64) *TuneRequest {
		return &TuneRequest{Seed: seed, Iters: 2, Workloads: []string{"eqntott"}}
	}
	waitState := func(id, want string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, jr, _ := getJob(t, ts, id)
			if jr.Status == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q, want %q", id, jr.Status, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	_, tr1, _ := postTune(t, ts, tuneReq(1))
	waitState(tr1.Job.ID, jobRunning)
	_, tr2, _ := postTune(t, ts, tuneReq(2))
	waitState(tr2.Job.ID, jobQueued)

	resp, _, body := postTune(t, ts, tuneReq(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full tune queue: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if es := s.tunes.snapshot(); es.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", es.Rejected)
	}

	close(gate)
	waitJob(t, ts, tr1.Job.ID)
	waitJob(t, ts, tr2.Job.ID)
	resp3, tr3, _ := postTune(t, ts, tuneReq(3))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after drain: status %d", resp3.StatusCode)
	}
	if jr := waitJob(t, ts, tr3.Job.ID); jr.Status != jobDone {
		t.Errorf("retried tune finished %q: %s", jr.Status, jr.Error)
	}
}
