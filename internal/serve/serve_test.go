package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

const testSrc = `
int g[8];
int main(int n) {
	int s = 0;
	while (n > 0) {
		s = s + g[n & 7] + n * 3;
		n = n - 1;
	}
	return s;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, req any) (*http.Response, []byte) {
	t.Helper()
	var body []byte
	switch v := req.(type) {
	case []byte:
		body = v
	case string:
		body = []byte(v)
	default:
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := httpClient.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// The served schedule must equal a direct RunProgramCtx run
// byte-for-byte, for both plain scheduling and the full pipeline.
func TestScheduleRoundTripMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, pipeline := range []bool{false, true} {
		p := pipeline
		resp, body := post(t, ts, &Request{Source: testSrc, Pipeline: &p})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pipeline=%t: status %d: %s", pipeline, resp.StatusCode, body)
		}
		var got Response
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}

		prog, err := minic.Compile(testSrc)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		opts.Parallelism = 1
		if pipeline {
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		want := asm.Print(prog)
		if got.Asm != want {
			t.Errorf("pipeline=%t: served schedule differs from direct run:\n--- served ---\n%s--- direct ---\n%s",
				pipeline, got.Asm, want)
		}
	}
}

// A repeated request must be served from the cache with byte-identical
// bytes and an X-Cache: hit header.
func TestCacheHitReturnsIdenticalBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	r1, b1 := post(t, ts, &Request{Source: testSrc})
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, b2 := post(t, ts, &Request{Source: testSrc})
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit bytes differ from the computed response:\n%s\nvs\n%s", b1, b2)
	}
}

// A request whose budget no schedule can meet answers 504.
func TestTimeoutAnswers504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, &Request{Source: testSrc, TimeoutMs: 0.000001})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

// A body over the configured limit answers 413.
func TestOversizedBodyAnswers413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big, err := json.Marshal(&Request{Source: "int main() { return " + strings.Repeat("1+", 500) + "1; }"})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// With one worker held busy and a queue of one, the third concurrent
// request must shed with 503 + Retry-After.
func TestSaturationAnswers503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testHook = func() {
		entered <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		seed := i
		go func() {
			defer wg.Done()
			// Distinct sources so neither is a cache hit.
			src := "int main(int a) { return a + " + strings.Repeat("1 + ", seed+1) + "0; }"
			resp, _ := post(t, ts, &Request{Source: src})
			codes <- resp.StatusCode
		}()
	}
	<-entered // the first request holds the only worker

	// Admission slots are exhausted once the second request queues. Wait
	// for that before probing: a probe admitted into the free queue slot
	// would wait on the held worker, and release is only closed below.
	for deadline := time.Now().Add(10 * time.Second); s.queued.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the second request was never admitted")
		}
	}
	var saturated *http.Response
	for tries := 0; tries < 100; tries++ {
		resp, _ := post(t, ts, &Request{Source: "int main() { return 42; }"})
		if resp.StatusCode == http.StatusServiceUnavailable {
			saturated = resp
			break
		}
	}
	close(release)
	wg.Wait()
	close(codes)
	if saturated == nil {
		t.Fatal("no request answered 503 while the pool was saturated")
	}
	if ra := saturated.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	}
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", code)
		}
	}
}

// Malformed input answers 400 with a parse diagnostic.
func TestMalformedInputAnswers400(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := post(t, ts, `{"source":"int main( {"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("400 body is not an ErrorResponse: %s", body)
	}
	if !strings.Contains(e.Error, "parse") {
		t.Errorf("400 diagnostic %q does not mention the parse failure", e.Error)
	}

	// A function defined twice is refused with its line, in either
	// language.
	for _, req := range []*Request{
		{Lang: "asm", Source: "func f:\n\tRET r0\nfunc f:\n\tRET r1\n"},
		{Source: "int f() { return 0; }\nint f() { return 1; }"},
	} {
		resp, body := post(t, ts, req)
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s duplicate: status %d, body %s; want 400", req.Lang, resp.StatusCode, body)
		}
		if !strings.Contains(e.Error, `function "f" redeclared`) {
			t.Errorf("%s duplicate: diagnostic %q does not name the redeclared function", req.Lang, e.Error)
		}
	}

	// Register numbers past ir.MaxRegs: once aliased (r4294967297 read
	// as r1) or an out-of-memory crash of the daemon, now a line-numbered
	// parse error.
	for _, src := range []string{
		"func main:\n\tLI r4294967297=5\n\tLI r1=7\n\tRET r4294967297\n",
		"func main:\n\tLI r1999999999=0\n\tRET r1999999999\n",
	} {
		resp, body := post(t, ts, &Request{Lang: "asm", Source: src, Simulate: &SimRequest{Entry: "main"}})
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, body %s; want 400", src, resp.StatusCode, body)
		}
		if !strings.Contains(e.Error, "line 2") || !strings.Contains(e.Error, "over the limit") {
			t.Errorf("%q: diagnostic %q does not name line 2 and the register limit", src, e.Error)
		}
	}

	resp, _ = post(t, ts, `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	for _, req := range []*Request{
		{Source: testSrc, Lang: "fortran"},
		{Source: testSrc, Level: "heroic"},
		{Source: testSrc, Machine: json.RawMessage(`"pdp11"`)},
		{Source: ""},
	} {
		resp, _ := post(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		}
	}
}

// Simulation results served over HTTP must match a direct sim run of
// the directly scheduled program.
func TestSimulateMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, &Request{
		Source:   testSrc,
		Simulate: &SimRequest{Entry: "main", Args: []int64{10}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Sim == nil {
		t.Fatal("no sim result in response")
	}

	prog, err := minic.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	if _, err := xform.RunProgramCtx(context.Background(), prog, opts, xform.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run("main", []int64{10}, nil, sim.Options{Machine: machine.RS6K(), ForgivingLoads: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sim.Ret != want.Ret || got.Sim.Cycles != want.Cycles || got.Sim.Instrs != want.Instrs {
		t.Errorf("served sim %+v, direct {Ret:%d Cycles:%d Instrs:%d}",
			got.Sim, want.Ret, want.Cycles, want.Instrs)
	}
}

// The verify flag must be accepted and the verified schedule served
// normally (the independent checker passing is the interesting part).
func TestVerifyFlag(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, &Request{Source: testSrc, Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verified request: status %d: %s", resp.StatusCode, body)
	}
}

// A worker panic must answer 500, log a difftest-style reproducer, and
// leave the server serving.
func TestPanicRecoveryAnswers500(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &logBuf, mu: &logMu}, nil))
	_, ts := newTestServer(t, Config{AllowDebugPanic: true, Logger: logger})

	resp, _ := post(t, ts, &Request{Source: testSrc, DebugPanic: true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "panic reproducer") || !strings.Contains(logged, "func main") {
		t.Errorf("panic log lacks the reproducer:\n%s", logged)
	}

	// The crashed worker's slot must have been released.
	resp, _ = post(t, ts, &Request{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", resp.StatusCode)
	}
}

// A panic on the program driver's worker goroutine reaches runJob's
// recovery on the job's goroutine: the job fails with a panic error and
// the reproducer and the worker's stack are logged, instead of the
// process crashing.
func TestDriverWorkerPanicRecovered(t *testing.T) {
	var logBuf bytes.Buffer
	s, _ := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	j, err := resolve(&Request{Source: testSrc}, false)
	if err != nil {
		t.Fatal(err)
	}
	// An instruction ID outside the function's ID space indexes past
	// the scheduler's dense tables: a state only a bug can produce.
	j.prog.Funcs[0].Blocks[0].Instrs[0].ID = -1
	if _, err := s.runJob(context.Background(), j); !isPanic(err) {
		t.Fatalf("runJob err = %v, want a recovered panic", err)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "panic reproducer") || !strings.Contains(logged, "gsched/internal/core.") {
		t.Errorf("panic log lacks the reproducer or the worker's stack:\n%s", logged)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Without AllowDebugPanic the debug_panic field is inert.
func TestDebugPanicIgnoredByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts, &Request{Source: testSrc, DebugPanic: true})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d, want 200 (debug_panic must be ignored)", resp.StatusCode)
	}
}

// /metrics must expose the request, cache, queue and phase series, and
// they must be internally consistent.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, &Request{Source: testSrc})
	post(t, ts, &Request{Source: testSrc}) // hit
	post(t, ts, `{"source":"int main( {"}`)

	resp, err := httpClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		`gschedd_requests_total{endpoint="/schedule",code="200"}`: 2,
		`gschedd_requests_total{endpoint="/schedule",code="400"}`: 1,
		`gschedd_cache_hits_total`:                                1,
		`gschedd_cache_misses_total`:                              1,
		`gschedd_key_memo_hits_total`:                             1,
		`gschedd_request_seconds_count{endpoint="/schedule"}`:     3,
	}
	for series, want := range checks {
		if got := m[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	for _, gauge := range []string{"gschedd_queue_depth", "gschedd_inflight", "gschedd_cache_bytes", "gschedd_cache_resident_bytes"} {
		if _, ok := m[gauge]; !ok {
			t.Errorf("missing gauge %s", gauge)
		}
	}
	if r, b := m["gschedd_cache_resident_bytes"], m["gschedd_cache_bytes"]; r <= 0 || r >= b {
		t.Errorf("resident bytes %g, want in (0, %g accounted)", r, b)
	}
	// The scheduler ran, so at least one phase accumulated time.
	phases := 0.0
	for series, v := range m {
		if strings.HasPrefix(series, "gschedd_phase_seconds_total") {
			phases += v
		}
	}
	if phases <= 0 {
		t.Error("no per-phase scheduling time recorded")
	}
}

// /healthz and /debug/pprof must be mounted.
func TestAuxEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := httpClient.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// Tuning is an offline search (cmd/experiments -fig tuned), not a
// service: POST /tune is an unrouted path and /metrics has no tune
// series.
func TestNoTuneEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := httpClient.Post(ts.URL+"/tune", "application/json", strings.NewReader(`{"iters":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /tune: status %d, want 404", resp.StatusCode)
	}
	m, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for series := range m {
		if strings.HasPrefix(series, "gschedd_tune_") {
			t.Errorf("metrics still expose %s", series)
		}
	}
}

// LRU eviction must keep the byte cap and count evictions.
func TestCacheEviction(t *testing.T) {
	c := NewCache(1024)
	var k1, k2, k3 Key
	k1[0], k2[0], k3[0] = 1, 2, 3
	big := make([]byte, 600)
	c.Put(k1, big)
	c.Put(k2, big) // evicts k1
	if _, ok := c.Get(k1); ok {
		t.Error("k1 should have been evicted")
	}
	if _, ok := c.Get(k2); !ok {
		t.Error("k2 should be resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes > 1024 {
		t.Errorf("stats %+v, want 1 eviction under the 1024-byte cap", st)
	}
	// An over-cap body is refused outright.
	c.Put(k3, make([]byte, 2048))
	if _, ok := c.Get(k3); ok {
		t.Error("over-cap body should not be stored")
	}
}
