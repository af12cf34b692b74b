package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

const testSrc2 = `
int main(int n) {
	int s = 1;
	while (n > 1) {
		s = s * n;
		n = n - 1;
	}
	return s;
}
`

// TestBatchMatchesSingleRequests is the batch endpoint's core promise:
// every unit's Body is byte-identical to what POST /schedule returns
// for the same request, with per-unit statuses so one bad unit cannot
// poison the rest.
func TestBatchMatchesSingleRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Establish the single-request answers first. The first source is
	// served before the batch (so its unit is a cache hit), the second
	// only after (so its unit is a miss) — the bodies must match either
	// way.
	resp1, single1 := post(t, ts, &Request{Source: testSrc})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("single request 1: status %d: %s", resp1.StatusCode, single1)
	}

	batch := batchRequest{Units: []Request{
		{Source: testSrc},     // duplicate of the pre-served request: hit
		{Source: testSrc2},    // fresh: miss
		{Source: "int main("}, // malformed: per-unit 400
		{Source: testSrc2},    // duplicate within the batch: collapses
	}}
	resp, body, err := rawPost(ts.URL+"/schedule/batch", mustJSON(t, &batch))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(batch.Units) {
		t.Fatalf("got %d results, want %d", len(br.Results), len(batch.Units))
	}

	if r := br.Results[0]; r.Status != http.StatusOK || r.Cache != "hit" {
		t.Errorf("unit 0: status %d cache %q, want 200/hit", r.Status, r.Cache)
	}
	if string(br.Results[0].Body) != string(single1) {
		t.Errorf("unit 0 body differs from the single-request body")
	}

	if r := br.Results[1]; r.Status != http.StatusOK {
		t.Errorf("unit 1: status %d: %s", r.Status, r.Body)
	}
	resp2, single2 := post(t, ts, &Request{Source: testSrc2})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("single request 2: status %d", resp2.StatusCode)
	}
	if string(br.Results[1].Body) != string(single2) {
		t.Errorf("unit 1 body differs from the single-request body")
	}

	if r := br.Results[2]; r.Status != http.StatusBadRequest {
		t.Errorf("unit 2 (malformed): status %d, want 400", r.Status)
	} else if !strings.Contains(string(r.Body), "error") {
		t.Errorf("unit 2 body carries no error: %s", r.Body)
	}

	if r := br.Results[3]; r.Status != http.StatusOK {
		t.Errorf("unit 3 (duplicate): status %d, want 200", r.Status)
	}
	if string(br.Results[3].Body) != string(br.Results[1].Body) {
		t.Errorf("duplicate units returned different bodies")
	}
}

// A level=optimal unit answers what the single request answers: 202
// with the heuristic schedule and the async job handle, not a
// synchronous exact run. The job is finished before both requests, so
// its status cannot differ between them.
func TestBatchOptimalUnitMatchesSingleRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := Request{Source: testSrc2, Level: "optimal"}
	_, ar := postAsync(t, ts, &req)
	waitJob(t, ts, ar.Job.ID)
	single, singleBody := post(t, ts, &req)

	resp, body, err := rawPost(ts.URL+"/schedule/batch", mustJSON(t, &batchRequest{Units: []Request{req}}))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 1 {
		t.Fatalf("batch: status %d, err %v: %s", resp.StatusCode, err, body)
	}
	u := br.Results[0]
	if u.Status != single.StatusCode || u.Cache != single.Header.Get("X-Cache") {
		t.Errorf("unit answered %d/%q, single request %d/%q",
			u.Status, u.Cache, single.StatusCode, single.Header.Get("X-Cache"))
	}
	if string(u.Body) != string(singleBody) {
		t.Errorf("unit body differs from the single request's:\n--- unit ---\n%s\n--- single ---\n%s", u.Body, singleBody)
	}
}

// TestBatchRejectsBadRequests covers the request-level failure modes:
// wrong method, empty batch, unit-count cap.
func TestBatchRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := httpClient.Get(ts.URL + "/schedule/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	resp, body, err := rawPost(ts.URL+"/schedule/batch", []byte(`{"units":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d (%s), want 400", resp.StatusCode, body)
	}

	over := batchRequest{Units: make([]Request, maxBatchUnits+1)}
	for i := range over.Units {
		over.Units[i].Source = testSrc
	}
	resp, body, err = rawPost(ts.URL+"/schedule/batch", mustJSON(t, &over))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d (%s), want 400", resp.StatusCode, body)
	}
}
