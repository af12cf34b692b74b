package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"testing"
	"time"
)

// movable matches the parts of an answer that may change between two
// identical requests: an async job's state, and a batch unit's cache
// tier (the first request computes what the second finds stored).
var movable = regexp.MustCompile(`"(status|cache)":"[a-z]+"`)

// FuzzRequest sends arbitrary bodies to /schedule and /schedule/batch
// through the handler, with debug-panic off. Every body must be
// answered 2xx, or 4xx with a JSON error that says what is wrong, and
// so must every batch unit: a panic, a 5xx or an empty diagnostic is a
// bug. The same body sent twice must answer the same status and bytes
// (the second time through the key memo).
//
// The exact queue is deep enough that a sequential fuzzer cannot fill
// it, so a 503 is never load shedding. Bodies that set timeout_ms are
// skipped: their answer depends on how fast the host is.
func FuzzRequest(f *testing.F) {
	s, err := New(quietConfig(Config{
		Workers:         2,
		ExactQueueDepth: 1 << 16,
		ExactTimeout:    time.Second,
	}))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)

	for _, seed := range []struct {
		batch bool
		body  string
	}{
		{false, `{"source":"int main(int a) { return a + 1; }","simulate":{"entry":"main","args":[41]}}`},
		{false, `{"lang":"asm","source":"func f r1:\n\tLI r2=1\n\tA r3=r1,r2\n\tRET r3\n","machine":"4x2","level":"useful"}`},
		{false, `{"source":"int main(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }","level":"dup","verify":true,"pipeline":false}`},
		{false, `{"source":"int main() { return 0; }","machine":{"NumUnits":[2,1,1],"MulTime":5,"DivTime":19,"LoadDelay":1,"CmpBranchDelay":3,"FloatDelay":1,"FloatCmpBranchDelay":5}}`},
		{false, `{"source":"int main(int a) { if (a) { a = a * 3; } return a; }","level":"optimal"}`},
		{false, `{"source":"int main(int a) { return a; }","policy":"x.d - y.d","options":{"rename":false,"spec_degree":2}}`},
		{false, `{"source":"int main(int a) { return a; }","profile":"gsched-profile v1\nmain 1 9 1\n"}`},
		{false, `{"source":"int main( {"}`},
		{false, `{"source":"int main() { return 0; }","level":"fast"}`},
		{false, `{"source":"int main() { return 0; }","machine":"0x0"}`},
		{false, `{"source":"int main() { return 0; }","debug_panic":true}`},
		{false, `{"source":`},
		{false, ``},
		{true, `{"units":[{"source":"int main() { return 1; }"},{"source":"int main( {"},{"source":"int main() { return 1; }","level":"optimal"}]}`},
		{true, `{"units":[]}`},
		{true, `[]`},
	} {
		f.Add(seed.batch, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/schedule"
		if batch {
			path = "/schedule/batch"
		}
		if setsTimeout(batch, body) {
			t.Skip("timeout_ms makes the answer depend on host speed")
		}
		first := serveRaw(s, path, body)
		checkAnswer(t, path, first.Code, first.Body.Bytes())
		if batch && first.Code == http.StatusOK {
			var br batchResponse
			if err := json.Unmarshal(first.Body.Bytes(), &br); err != nil {
				t.Fatalf("batch answer is not a batchResponse: %v: %s", err, first.Body)
			}
			for _, u := range br.Results {
				checkAnswer(t, "batch unit", u.Status, u.Body)
			}
		}

		second := serveRaw(s, path, body)
		if second.Code != first.Code || !bytes.Equal(
			movable.ReplaceAll(second.Body.Bytes(), nil), movable.ReplaceAll(first.Body.Bytes(), nil)) {
			t.Fatalf("repeat answered differently:\nfirst:  %d %s\nsecond: %d %s",
				first.Code, first.Body, second.Code, second.Body)
		}
	})
}

// setsTimeout reports whether any request in body carries its own
// scheduling budget.
func setsTimeout(batch bool, body []byte) bool {
	var units []Request
	if batch {
		var br batchRequest
		if json.Unmarshal(body, &br) != nil {
			return false
		}
		units = br.Units
	} else {
		var req Request
		if json.Unmarshal(body, &req) != nil {
			return false
		}
		units = []Request{req}
	}
	for _, u := range units {
		if u.TimeoutMs > 0 {
			return true
		}
	}
	return false
}

// checkAnswer enforces the fuzz contract on one status and body.
func checkAnswer(t *testing.T, what string, code int, body []byte) {
	t.Helper()
	switch {
	case code >= 200 && code < 300:
	case code >= 400 && code < 500:
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: %d without a JSON error: %s", what, code, body)
		}
	default:
		t.Fatalf("%s: status %d: %s", what, code, body)
	}
}
