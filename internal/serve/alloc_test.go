//go:build !race

package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Request-path allocation budgets, pinned so serving-path regressions
// (a stray fmt.Sprintf, a per-request buffer that stopped being reused)
// fail in CI rather than in production throughput graphs.
//
// Updating: run with -v, read the logged steady-state numbers, set the
// budget to ~1.3× measured, and record the measurement in the commit
// message. Measured 2026-08: hit ~267 allocs (dominated by net/http
// request plumbing, not the cache), miss ~964. Measured 2026-10 (2-CPU
// Xeon, go1.24.0) after the key memo let repeated bodies skip decode,
// compile and key hash: hit 31 allocs (was 269), miss 977 (unchanged).
// Measured 2026-10 once the scheduler's workers kept their scratch
// across calls and the verifier its tables: miss 292-293 (was 315).
//
// Excluded under -race: the detector's instrumentation allocates.
const (
	maxHitAllocs  = 40
	maxMissAllocs = 293
)

// serveOnce drives the handler in-process (no sockets, no client
// goroutines) so the measurement sees only the server's own work.
func serveOnce(t *testing.T, s *Server, body string) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

func TestServeHitAllocBudget(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	body := string(mustJSON(t, &Request{Source: testSrc}))
	serveOnce(t, s, body) // populate the cache

	got := testing.AllocsPerRun(50, func() { serveOnce(t, s, body) })
	t.Logf("cache hit: %.0f allocs/request (budget %d)", got, maxHitAllocs)
	if got > maxHitAllocs {
		t.Errorf("cache-hit request allocates %.0f, budget %d — see file comment before raising",
			got, maxHitAllocs)
	}
}

func TestServeMissAllocBudget(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1}) // every request schedules
	body := string(mustJSON(t, &Request{Source: testSrc}))
	serveOnce(t, s, body)

	got := testing.AllocsPerRun(10, func() { serveOnce(t, s, body) })
	t.Logf("cache miss: %.0f allocs/request (budget %d)", got, maxMissAllocs)
	if got > maxMissAllocs {
		t.Errorf("uncached request allocates %.0f, budget %d — see file comment before raising",
			got, maxMissAllocs)
	}
}
