package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gsched/internal/asm"
	"gsched/internal/progen"
)

// getJob polls GET /jobs/{id} once.
func getJob(t *testing.T, ts *httptest.Server, id string) (*http.Response, *jobResponse, []byte) {
	t.Helper()
	resp, err := httpClient.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("jobs body: %v: %s", err, body)
		}
	}
	return resp, &jr, body
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) *jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, jr, body := getJob(t, ts, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jobs poll: status %d: %s", resp.StatusCode, body)
		}
		if jr.Status == jobDone || jr.Status == jobFailed {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s hung in state %q", id, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postAsync POSTs a level=optimal request and decodes the 202 body.
func postAsync(t *testing.T, ts *httptest.Server, req *Request) (*http.Response, *asyncResponse) {
	t.Helper()
	resp, body := post(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("optimal POST: status %d: %s", resp.StatusCode, body)
	}
	var ar asyncResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("async body: %v: %s", err, body)
	}
	return resp, &ar
}

// The immediate half of a level=optimal response must be byte-identical
// to what the same request returns at level=speculative: both go
// through the same pipeline and share one cache entry.
func TestOptimalHeuristicBytesIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, specBody := post(t, ts, &Request{Source: testSrc, Level: "speculative"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("speculative: status %d: %s", resp.StatusCode, specBody)
	}

	oresp, ar := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	if !bytes.Equal([]byte(ar.Heuristic), specBody) {
		t.Errorf("heuristic bytes differ from level=speculative:\n--- optimal.heuristic ---\n%s\n--- speculative ---\n%s",
			ar.Heuristic, specBody)
	}
	// The speculative request primed the cache, so the heuristic half
	// must have been a hit.
	if got := oresp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("optimal after speculative: X-Cache = %q, want hit", got)
	}
	if ar.Job.ID == "" || ar.Job.Poll != "/jobs/"+ar.Job.ID {
		t.Errorf("bad job metadata: %+v", ar.Job)
	}
}

// Poll-until-done: the job finishes, its result is a full Response
// whose exact tier actually ran, and the stored bytes never change
// across polls (cached forever).
func TestJobPollUntilDone(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, ar := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	jr := waitJob(t, ts, ar.Job.ID)
	if jr.Status != jobDone {
		t.Fatalf("job finished %q (error %q), want done", jr.Status, jr.Error)
	}
	var res Response
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Stats.ExactBlocks == 0 {
		t.Errorf("exact tier admitted no blocks: %+v", res.Stats)
	}
	if _, err := asm.Parse(res.Asm); err != nil {
		t.Errorf("result asm does not parse: %v", err)
	}
	// A second poll returns the identical bytes.
	jr2 := waitJob(t, ts, ar.Job.ID)
	if !bytes.Equal(jr.Result, jr2.Result) {
		t.Error("job result changed between polls")
	}
}

// Dedup: identical submissions share one job id and one run.
func TestJobDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	_, ar1 := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	_, ar2 := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	if ar1.Job.ID != ar2.Job.ID {
		t.Fatalf("identical requests got distinct jobs: %s vs %s", ar1.Job.ID, ar2.Job.ID)
	}
	waitJob(t, ts, ar1.Job.ID)

	// Resubmitting a finished job joins it too, reporting done.
	_, ar3 := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	if ar3.Job.ID != ar1.Job.ID || ar3.Job.Status != jobDone {
		t.Errorf("resubmit after done: id=%s status=%q, want %s/done", ar3.Job.ID, ar3.Job.Status, ar1.Job.ID)
	}

	es := s.jobs.snapshot()
	if es.Submitted != 1 || es.Deduped != 2 || es.Completed != 1 {
		t.Errorf("counters submitted=%d deduped=%d completed=%d, want 1/2/1",
			es.Submitted, es.Deduped, es.Completed)
	}
}

// Queue-full: with one worker held busy and a one-slot queue occupied,
// the next distinct submission answers 503 with Retry-After, and
// succeeds once the backlog drains.
func TestJobQueueFull(t *testing.T) {
	srcs := make([]string, 3)
	for i := range srcs {
		srcs[i] = progen.New(int64(300 + i)).Source
	}
	s, ts := newTestServer(t, Config{ExactWorkers: 1, ExactQueueDepth: 1})

	// Warm the heuristic cache so nothing below touches the sync
	// worker pool (the gate must only block exact runs).
	for _, src := range srcs {
		if resp, body := post(t, ts, &Request{Source: src, Level: "speculative"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm: status %d: %s", resp.StatusCode, body)
		}
	}
	gate := make(chan struct{})
	s.testHook = func() { <-gate }
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	// Job 1 occupies the worker (blocked in the gate).
	_, ar1 := postAsync(t, ts, &Request{Source: srcs[0], Level: "optimal"})
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
	waitState(ar1.Job.ID, jobRunning)

	// Job 2 fills the one queue slot.
	_, ar2 := postAsync(t, ts, &Request{Source: srcs[1], Level: "optimal"})
	waitState(ar2.Job.ID, jobQueued)

	// Job 3 is turned away.
	resp, body := post(t, ts, &Request{Source: srcs[2], Level: "optimal"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if es := s.jobs.snapshot(); es.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", es.Rejected)
	}

	// Drain and retry: the rejected job is admitted now.
	close(gate)
	waitJob(t, ts, ar1.Job.ID)
	waitJob(t, ts, ar2.Job.ID)
	_, ar3 := postAsync(t, ts, &Request{Source: srcs[2], Level: "optimal"})
	if jr := waitJob(t, ts, ar3.Job.ID); jr.Status != jobDone {
		t.Errorf("retried job finished %q: %s", jr.Status, jr.Error)
	}
}

// A per-job deadline expiry records a failed job with a diagnostic —
// never a hung one — and the job is retriable afterwards.
func TestJobDeadlineRecordsFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{ExactTimeout: time.Nanosecond})

	_, ar := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	jr := waitJob(t, ts, ar.Job.ID)
	if jr.Status != jobFailed {
		t.Fatalf("job finished %q, want failed", jr.Status)
	}
	if !strings.Contains(jr.Error, "deadline") && !strings.Contains(jr.Error, "cancel") {
		t.Errorf("failure diagnostic %q does not mention the deadline", jr.Error)
	}
	if es := s.jobs.snapshot(); es.Failed != 1 {
		t.Errorf("failed = %d, want 1", es.Failed)
	}

	// A failed job is retried, not deduped.
	_, ar2 := postAsync(t, ts, &Request{Source: testSrc, Level: "optimal"})
	if ar2.Job.ID != ar.Job.ID {
		t.Fatalf("retry changed the job id")
	}
	if jr2 := waitJob(t, ts, ar2.Job.ID); jr2.Status != jobFailed {
		t.Errorf("1ns-budget retry finished %q", jr2.Status)
	}
	if es := s.jobs.snapshot(); es.Submitted != 2 || es.Deduped != 0 {
		t.Errorf("submitted=%d deduped=%d, want 2/0", es.Submitted, es.Deduped)
	}
}

// Bad polls: malformed ids are 400, unknown jobs 404, POST 405.
func TestJobEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _, _ := getJob(t, ts, "not-hex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d", resp.StatusCode)
	}
	resp, _, _ = getJob(t, ts, strings.Repeat("ab", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	presp, err := httpClient.Post(ts.URL+"/jobs/"+strings.Repeat("ab", 32), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /jobs: status %d", presp.StatusCode)
	}
}

// Soak the async layer: concurrent optimal submissions over a small
// corpus, then reconcile the client's view against /metrics. Every
// submission is either admitted (202: submitted or deduped) or turned
// away (503: rejected); after the queue drains, submitted jobs are
// exactly the completed plus failed ones.
func TestSoakExactMetricsReconcile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, ExactWorkers: 2, ExactQueueDepth: 64})

	const goroutines = 6
	const perG = 8
	const corpusSize = 4
	corpus := make([][]byte, corpusSize)
	for i := range corpus {
		body, err := json.Marshal(&Request{Source: progen.New(int64(i)).Source, Level: "optimal"})
		if err != nil {
			t.Fatal(err)
		}
		corpus[i] = body
	}

	var mu sync.Mutex
	accepted, rejected := 0, 0
	ids := make(map[string]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				resp, err := httpClient.Post(ts.URL+"/schedule", "application/json",
					bytes.NewReader(corpus[(g+k)%corpusSize]))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted++
					var ar asyncResponse
					if err := json.Unmarshal(body, &ar); err != nil {
						t.Errorf("async body: %v", err)
					} else {
						ids[ar.Job.ID] = true
					}
				case http.StatusServiceUnavailable:
					rejected++
				default:
					t.Errorf("status %d: %s", resp.StatusCode, body)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	for id := range ids {
		if jr := waitJob(t, ts, id); jr.Status != jobDone {
			t.Errorf("job %s finished %q: %s", id, jr.Status, jr.Error)
		}
	}

	m, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 { return m[name] }
	if got := get("gschedd_exact_jobs_submitted_total") + get("gschedd_exact_jobs_deduped_total"); int(got) != accepted {
		t.Errorf("submitted+deduped = %g, client saw %d accepted", got, accepted)
	}
	if got := get("gschedd_exact_jobs_rejected_total"); int(got) != rejected {
		t.Errorf("rejected = %g, client saw %d", got, rejected)
	}
	if got := get("gschedd_exact_queue_depth") + get("gschedd_exact_running"); got != 0 {
		t.Errorf("queue_depth+running = %g after drain", got)
	}
	want := get("gschedd_exact_jobs_completed_total") + get("gschedd_exact_jobs_failed_total")
	if got := get("gschedd_exact_jobs_submitted_total"); got != want {
		t.Errorf("submitted = %g, completed+failed = %g", got, want)
	}
	if got := get("gschedd_exact_jobs_failed_total"); got != 0 {
		t.Errorf("failed = %g, want 0", got)
	}
	// Distinct programs map to distinct jobs — and identical ones to
	// identical jobs — so the corpus produced exactly corpusSize ids.
	if len(ids) != corpusSize {
		t.Errorf("saw %d job ids for %d distinct programs", len(ids), corpusSize)
	}
	series := fmt.Sprintf(`gschedd_requests_total{endpoint="/jobs",code="%d"}`, http.StatusOK)
	if m[series] == 0 {
		t.Errorf("no %s samples; polls were not recorded under the collapsed label", series)
	}
}
