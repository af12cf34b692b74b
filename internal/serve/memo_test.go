package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gsched/internal/policy"
)

// serveRaw drives one request through the handler in-process.
func serveRaw(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func newQuietServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, _ := newTestServer(t, quietConfig(cfg))
	return s
}

const memoAsm = "func f r1:\n\tLI r2=1\n\tA r3=r1,r2\n\tRET r3\n"

// memoMatrix spans every request field that feeds the content key.
func memoMatrix(t *testing.T) map[string]*Request {
	t.Helper()
	two := 2
	prof := trainProfileText(t, hotSrc, "main", []int64{10})
	return map[string]*Request{
		"c":            {Source: testSrc},
		"asm":          {Lang: "asm", Source: memoAsm},
		"preset":       {Source: testSrc, Machine: json.RawMessage(`"4x2"`)},
		"wide":         {Source: testSrc2, Machine: json.RawMessage(`"wide"`)},
		"object":       {Source: testSrc, Machine: json.RawMessage(`{"Name":"m","NumUnits":[2,1,1],"MulTime":5,"DivTime":19,"LoadDelay":1,"CmpBranchDelay":3,"FloatDelay":1,"FloatCmpBranchDelay":5}`)},
		"profile":      {Source: hotSrc, Level: "dup", Profile: prof},
		"policy":       {Source: testSrc, Policy: policy.DefaultSource},
		"options":      {Source: testSrc, Options: &OptionsPatch{Rename: boolp(false), SpecDegree: &two}},
		"simulate":     {Source: testSrc, Simulate: &SimRequest{Entry: "main", Args: []int64{7}}},
		"verify":       {Source: testSrc2, Verify: true},
		"pipeline":     {Source: testSrc, Pipeline: boolp(false)},
		"useful":       {Source: testSrc, Level: "useful"},
		"speculative":  {Source: testSrc2, Level: "speculative"},
		"dup":          {Source: testSrc, Level: "dup"},
		"asm-simulate": {Lang: "asm", Source: memoAsm, Simulate: &SimRequest{Entry: "f", Args: []int64{4}}},
	}
}

// A repeated body answered through the memo must match, status, body
// and X-Cache, what the full decode → resolve → key path answers for
// the same request on a fresh server. The full path is forced on the
// reference server by respelling the body (a leading space decodes the
// same but hashes differently).
func TestMemoMatchesFullResolve(t *testing.T) {
	memo := newQuietServer(t, Config{Workers: 2})
	full := newQuietServer(t, Config{Workers: 2})
	for name, req := range memoMatrix(t) {
		body := mustJSON(t, req)
		first := serveRaw(memo, "/schedule", body)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, first.Code, first.Body)
		}
		before := memo.memo.hits.Load()
		got := serveRaw(memo, "/schedule", body)
		if memo.memo.hits.Load() != before+1 {
			t.Errorf("%s: repeat did not go through the memo", name)
		}

		serveRaw(full, "/schedule", body)
		want := serveRaw(full, "/schedule", append([]byte(" "), body...))
		if got.Code != want.Code || got.Header().Get("X-Cache") != want.Header().Get("X-Cache") {
			t.Errorf("%s: memo answered %d/%q, full path %d/%q", name,
				got.Code, got.Header().Get("X-Cache"), want.Code, want.Header().Get("X-Cache"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: memo body differs from the full path's", name)
		}
		if !bytes.Equal(got.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: memo body differs from the computed body", name)
		}
	}
	if n := full.memo.hits.Load(); n != 0 {
		t.Errorf("respelled bodies hit the memo %d times", n)
	}
}

// Only 200 answers below level=optimal are memoized: a diagnostic, a
// crash or an async job is recomputed on every request.
func TestMemoSkipsFailuresAndOptimal(t *testing.T) {
	s := newQuietServer(t, Config{Workers: 2, AllowDebugPanic: true})
	for _, tc := range []struct {
		name string
		req  *Request
		code int
	}{
		{"bad source", &Request{Source: "int main( {"}, http.StatusBadRequest},
		{"bad policy", &Request{Source: testSrc, Policy: "priority = tiers("}, http.StatusBadRequest},
		{"debug panic", &Request{Source: testSrc, DebugPanic: true}, http.StatusInternalServerError},
		{"optimal", &Request{Source: testSrc2, Level: "optimal"}, http.StatusAccepted},
	} {
		body := mustJSON(t, tc.req)
		for i := 0; i < 2; i++ {
			if w := serveRaw(s, "/schedule", body); w.Code != tc.code {
				t.Errorf("%s #%d: status %d, want %d: %s", tc.name, i, w.Code, tc.code, w.Body)
			}
		}
	}
	if n := s.memo.hits.Load(); n != 0 {
		t.Errorf("memo hits = %d, want 0", n)
	}
	s.memo.mu.Lock()
	n := len(s.memo.keys)
	s.memo.mu.Unlock()
	if n != 0 {
		t.Errorf("memo holds %d entries, want 0", n)
	}
}

// A memo hit whose key the store has since evicted falls through to a
// compute without counting the lookup twice: the tier ledger and the
// X-Cache tallies still reconcile. The byte cap holds one response but
// not two, so every store of one program evicts the other. With a disk
// tier the evicted key is found there instead.
func TestMemoLedgerAfterEviction(t *testing.T) {
	a := mustJSON(t, &Request{Source: testSrc})
	b := mustJSON(t, &Request{Source: testSrc2})
	probe := newQuietServer(t, Config{})
	cacheBytes := max(entryCost(serveRaw(probe, "/schedule", a).Body.Bytes()),
		entryCost(serveRaw(probe, "/schedule", b).Body.Bytes()))

	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%t", disk), func(t *testing.T) {
			cfg := Config{Workers: 1, CacheBytes: cacheBytes}
			wantEvicted := "miss"
			if disk {
				cfg.CacheDir = t.TempDir()
				wantEvicted = "disk"
			}
			s, ts := newTestServer(t, quietConfig(cfg))

			res := &LoadResult{Codes: map[int]int{}}
			var ref []byte
			send := func(body []byte, wantCache string) {
				t.Helper()
				w := serveRaw(s, "/schedule", body)
				res.Total++
				res.Codes[w.Code]++
				got := w.Header().Get("X-Cache")
				switch got {
				case "hit":
					res.HitHeaders++
				case "disk":
					res.DiskHeaders++
				case "miss":
					res.MissHeaders++
				}
				if w.Code != http.StatusOK || got != wantCache {
					t.Fatalf("status %d X-Cache %q, want 200 %q: %s", w.Code, got, wantCache, w.Body)
				}
				if bytes.Equal(body, a) {
					if ref == nil {
						ref = w.Body.Bytes()
					} else if !bytes.Equal(ref, w.Body.Bytes()) {
						t.Error("program a served different bytes")
					}
				}
			}
			send(a, "miss")
			send(a, "hit")       // memo, memory hit
			send(b, "miss")      // evicts a from memory
			send(a, wantEvicted) // memo, memory miss; evicts b
			send(a, "hit")       // memo, memory hit
			send(b, wantEvicted) // memo, memory miss; evicts a
			send(b, "hit")       // memo, memory hit
			if got := s.memo.hits.Load(); got != 5 {
				t.Errorf("memo hits = %d, want 5", got)
			}
			if ev := memoryStats(s).Evictions; ev < 2 {
				t.Errorf("evictions = %d: the cap did not force memo-hit-then-evicted", ev)
			}
			m, err := Scrape(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckCounters(m); err != nil {
				t.Error(err)
			}
			if got := m["gschedd_key_memo_hits_total"]; got != 5 {
				t.Errorf("gschedd_key_memo_hits_total = %g, want 5", got)
			}
		})
	}
}

// Concurrent requests share the memo: under -race this pins its
// locking, and every repeat of a body must return the same bytes
// whichever path answered it. A cap small enough to evict mixes
// memo-hit-then-evicted requests into the run.
func TestMemoConcurrent(t *testing.T) {
	s := newQuietServer(t, Config{Workers: 2, QueueDepth: 256, CacheBytes: 3 << 10})
	var bodies [][]byte
	for _, req := range []*Request{
		{Source: testSrc}, {Source: testSrc2}, {Lang: "asm", Source: memoAsm},
		{Source: testSrc, Level: "useful"}, {Source: testSrc2, Simulate: &SimRequest{Entry: "main", Args: []int64{5}}},
	} {
		bodies = append(bodies, mustJSON(t, req))
	}
	var mu sync.Mutex
	seen := make(map[int][]byte)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 15; k++ {
				i := (g + k) % len(bodies)
				w := serveRaw(s, "/schedule", bodies[i])
				if w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body)
					return
				}
				mu.Lock()
				if prev, ok := seen[i]; !ok {
					seen[i] = w.Body.Bytes()
				} else if !bytes.Equal(prev, w.Body.Bytes()) {
					t.Errorf("body %d changed between requests", i)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if s.memo.hits.Load() == 0 {
		t.Error("no request went through the memo")
	}
	if memoryStats(s).Evictions == 0 {
		t.Error("the cap evicted nothing")
	}
}
