// Package serve implements gschedd, the long-running scheduling
// service: an HTTP/JSON front end over the compile/schedule pipeline
// with a bounded worker pool, a content-addressed response cache,
// admission control, per-request timeouts, panic recovery with
// difftest-style reproducers, and a Prometheus-text observability
// layer.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/sim"
	"gsched/internal/xform"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Workers bounds concurrent scheduling jobs (default NumCPU).
	Workers int
	// QueueDepth bounds jobs admitted beyond the running workers and
	// waiting for a slot; past Workers+QueueDepth the server answers
	// 503 with Retry-After (default 2×Workers).
	QueueDepth int
	// MaxBodyBytes rejects larger request bodies with 413 (default 4 MiB).
	MaxBodyBytes int64
	// Timeout is the per-request scheduling budget, enforced by context
	// cancellation threaded into the pipeline; expiry answers 504
	// (default 30s). Requests may lower it via timeout_ms.
	Timeout time.Duration
	// CacheBytes caps the in-memory tier of the content-addressed
	// response store (default 64 MiB; negative disables the whole
	// store stack, including disk and peers).
	CacheBytes int64
	// CacheDir, when set, adds the persistent on-disk tier rooted
	// there: restarts warm-start from it and the working set can
	// exceed RAM.
	CacheDir string
	// DiskCacheBytes caps the disk tier's file bytes (default 256 MiB;
	// <=0 with CacheDir set keeps the default, there is no unbounded
	// disk mode through Config).
	DiskCacheBytes int64
	// Self is this node's advertised base URL (e.g.
	// "http://10.0.0.1:8421"), required when Peers is set: it is the
	// node's identity on the consistent-hash ring.
	Self string
	// Peers lists the other cluster nodes' base URLs. Setting it adds
	// the peer tier: owner-first fetch before recompute, cluster-wide
	// single-flight, hot-key replication. Every node must be
	// configured with the same total node set (self + peers).
	Peers []string
	// PeerTimeout bounds one owner conversation — fetch, claim wait or
	// backfill (default 500ms). A slower owner means falling through
	// to local compute.
	PeerTimeout time.Duration
	// ReplicateAfter is the hot-key threshold: a key fetched from its
	// owner this many times is copied into the local tiers (default 2;
	// negative replicates on first contact).
	ReplicateAfter int
	// ExactWorkers bounds concurrent exact-tier (level=optimal) jobs;
	// they run on their own pool so branch-and-bound search time never
	// starves the synchronous workers (default 1).
	ExactWorkers int
	// ExactQueueDepth bounds exact jobs queued beyond the running
	// workers; past it POST /schedule with level=optimal answers 503
	// with Retry-After (default 16).
	ExactQueueDepth int
	// ExactTimeout is the per-job deadline of one exact run; expiry
	// records the job as failed, never leaves it hung (default 60s).
	ExactTimeout time.Duration
	// AllowDebugPanic honours the debug_panic request field, which
	// crashes the worker to exercise the panic-to-500 recovery path.
	// For tests and smoke drills only.
	AllowDebugPanic bool
	// Logger receives structured request and error logs (default: a
	// text logger discarding below Info). Use slog.New(slog.DiscardHandler)
	// to silence.
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DiskCacheBytes <= 0 {
		c.DiskCacheBytes = 256 << 20
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 500 * time.Millisecond
	}
	if c.ReplicateAfter == 0 {
		c.ReplicateAfter = 2
	}
	if c.ExactWorkers <= 0 {
		c.ExactWorkers = 1
	}
	if c.ExactQueueDepth <= 0 {
		c.ExactQueueDepth = 16
	}
	if c.ExactTimeout <= 0 {
		c.ExactTimeout = 60 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Server is the scheduling service. Create with New, mount with
// Handler; the handler is safe for concurrent use and drains cleanly
// under http.Server.Shutdown (in-flight schedules finish).
type Server struct {
	cfg     Config
	store   *tiered  // nil when caching is disabled
	memo    *keyMemo // /schedule body → content key; nil without a store
	flights *flightGroup
	trace   *core.Trace
	metrics *metricsRegistry
	mux     *http.ServeMux
	jobs    *jobManager // async exact-tier (level=optimal) jobs

	sem      chan struct{} // worker slots
	queued   atomic.Int64  // admitted, waiting or running
	inflight atomic.Int64  // actively scheduling
	runs     atomic.Int64  // pipeline executions (cache misses actually computed)
	sfWaits  atomic.Int64  // requests that waited on another's identical run

	// testHook, when non-nil, runs in the worker after a slot is
	// acquired and before scheduling. Tests use it to hold workers
	// busy deterministically.
	testHook func()
}

// New builds a Server from cfg. It can fail only for the persistent
// and cluster tiers: an unusable cache directory or an inconsistent
// peer configuration.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:     cfg,
		flights: newFlightGroup(),
		trace:   &core.Trace{},
		sem:     make(chan struct{}, cfg.Workers),
	}
	if cfg.CacheBytes > 0 {
		mem := newMemCache(cfg.CacheBytes)
		var disk *diskStore
		var peer *peerStore
		var err error
		if cfg.CacheDir != "" {
			if disk, err = newDiskStore(cfg.CacheDir, cfg.DiskCacheBytes); err != nil {
				return nil, err
			}
		}
		if len(cfg.Peers) > 0 {
			// A claim blocks followers for at most the compute budget;
			// past it the claimer is presumed dead and the key is up
			// for grabs again.
			if peer, err = newPeerStore(cfg.Self, cfg.Peers, cfg.PeerTimeout, cfg.Timeout); err != nil {
				return nil, err
			}
		}
		s.store = newTiered(mem, disk, peer, cfg.ReplicateAfter)
		s.memo = newKeyMemo()
	}
	var mem *memCache
	if s.store != nil {
		mem = s.store.Memory()
	}
	s.metrics = newMetrics(mem, s.trace,
		func() int64 { return max(0, s.queued.Load()-s.inflight.Load()) },
		func() int64 { return s.inflight.Load() },
		func() int64 { return s.runs.Load() },
		func() int64 { return s.sfWaits.Load() })
	if s.store != nil {
		s.metrics.stores = s.store.Stats
		s.metrics.replications = s.store.Replications
		s.metrics.computes = s.store.Computes
		s.metrics.memoHits = s.memo.hits.Load
	}
	s.jobs = newJobManager(cfg.ExactWorkers, cfg.ExactQueueDepth, cfg.ExactTimeout, s.runExactJob)
	if s.store != nil {
		// Exact results flow through the same stack: proven-optimal
		// schedules persist across restarts (disk) and nodes (owner
		// backfill), and a warm key never re-runs the search.
		s.jobs.lookup = func(key cacheKey) ([]byte, bool) {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.PeerTimeout)
			defer cancel()
			return s.store.PeekThrough(ctx, key)
		}
		s.jobs.persist = func(key cacheKey, body []byte) {
			s.store.Put(context.Background(), key, body)
		}
	}
	s.metrics.exact = s.jobs.snapshot
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/schedule", s.handleSchedule)
	s.mux.HandleFunc("/schedule/batch", s.handleScheduleBatch)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/internal/cache/", s.handleInternalCache)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the root handler: /schedule, /jobs, /metrics,
// /healthz and /debug/pprof.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the exact-tier job workers after their current job,
// rejects further submissions and releases the store stack (waiting
// out in-flight peer backfills). Call after draining the HTTP server;
// queued exact jobs are abandoned, but every finished result already
// sits in the persistent tiers.
func (s *Server) Close() {
	s.jobs.close()
	if s.store != nil {
		s.store.Close()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// handleSchedule is the request path: limit → key memo → parse →
// resolve → cache lookup → admission → schedule (with timeout and panic
// recovery) → simulate → respond + store.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.finish(w, r, start, http.StatusMethodNotAllowed, "",
			errorBody("POST only"), "method not allowed")
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.finish(w, r, start, http.StatusRequestEntityTooLarge, "",
				errorBody(fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)), err.Error())
			return
		}
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody("read: "+err.Error()), err.Error())
		return
	}
	var digest [sha256.Size]byte
	missed := false
	if s.memo != nil {
		// A body answered 200 before names its content key, so a store
		// hit is served with no decode, compile or key hash. If every
		// tier has evicted the key since, this lookup has counted the
		// request's miss and the full path below must not look again.
		digest = sha256.Sum256(body)
		if key, ok := s.memo.get(digest); ok {
			if cached, tier, ok := s.store.Get(r.Context(), key); ok {
				s.finish(w, r, start, http.StatusOK, tier, cached, "")
				return
			}
			missed = true
		}
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody("json: "+err.Error()), err.Error())
		return
	}
	j, err := resolve(&req, s.cfg.AllowDebugPanic)
	if err != nil {
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody(err.Error()), err.Error())
		return
	}
	j.missed = missed

	code, cacheState, resp, errMsg := s.dispatch(r.Context(), j)
	if s.memo != nil && code == http.StatusOK && j.opts.Level < core.LevelOptimal {
		s.memo.put(digest, j.key)
	}
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.finish(w, r, start, code, cacheState, resp, errMsg)
}

// dispatch runs a resolved job by its level: level=optimal through
// executeOptimal (202 plus an async exact job), every other level
// through execute. /schedule and every /schedule/batch unit call it,
// so a unit's status and body are those of the single request.
func (s *Server) dispatch(ctx context.Context, j *job) (code int, cacheState string, body []byte, errMsg string) {
	if j.opts.Level >= core.LevelOptimal {
		return s.executeOptimal(ctx, j)
	}
	return s.execute(ctx, j)
}

// executeOptimal is the level=optimal request path: compute (or fetch)
// the heuristic schedule exactly as a level=speculative request would —
// the response bytes are byte-identical, they share the cache entry —
// then enqueue the exact run as an async job and answer 202 with both.
// The exact job is keyed by the optimal request's content address, so
// identical submissions dedup onto one job and one forever-cached
// result.
func (s *Server) executeOptimal(parent context.Context, j *job) (code int, cacheState string, body []byte, errMsg string) {
	jh := *j
	jh.opts.Level = core.LevelSpeculative
	jh.opts.ExactMaxBlock, jh.opts.ExactNodes = 0, 0
	jh.key = contentKey(&jh)
	code, cacheState, heur, errMsg := s.execute(parent, &jh)
	if code != http.StatusOK {
		return code, cacheState, heur, errMsg
	}

	status, ok := s.jobs.submit(j.key, j)
	if !ok {
		return http.StatusServiceUnavailable, "",
			errorBody("exact job queue full"), "exact queue full"
	}
	id := j.key.String()
	resp, err := json.Marshal(&asyncResponse{
		Heuristic: heur,
		Job:       jobInfo{ID: id, Status: status, Poll: "/jobs/" + id},
	})
	if err != nil {
		return http.StatusInternalServerError, "", errorBody("marshal: " + err.Error()), err.Error()
	}
	return http.StatusAccepted, cacheState, resp, ""
}

// handleJob answers GET /jobs/{id}: the job's state, its result once
// done (byte-for-byte the stored exact response, forever), or its
// failure diagnostic. An id this process has not seen is answered from
// the store stack when an earlier process or another node proved it.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		s.finish(w, r, start, http.StatusMethodNotAllowed, "",
			errorBody("GET only"), "method not allowed")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	key, err := parseJobID(id)
	if err != nil {
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody(err.Error()), err.Error())
		return
	}
	state, result, jobErr, ok := s.jobs.get(key)
	if !ok {
		s.finish(w, r, start, http.StatusNotFound, "", errorBody("unknown job"), "unknown job")
		return
	}
	resp := &jobResponse{ID: id, Status: state}
	switch state {
	case jobDone:
		resp.Result = result
	case jobFailed:
		resp.Error = jobErr
	}
	body, merr := json.Marshal(resp)
	if merr != nil {
		s.finish(w, r, start, http.StatusInternalServerError, "",
			errorBody("marshal: "+merr.Error()), merr.Error())
		return
	}
	s.finish(w, r, start, http.StatusOK, "", body, "")
}

// runExactJob executes one async exact job. The submitting request's
// program was consumed by the heuristic run, so the job replays from
// the canonical assembly captured at resolve time — also what makes the
// result a pure function of the content key, regardless of which
// textual source first submitted it.
func (s *Server) runExactJob(ctx context.Context, spec *job) ([]byte, error) {
	prog, err := asm.Parse(string(spec.canon))
	if err != nil {
		return nil, fmt.Errorf("reparse canonical program: %w", err)
	}
	j := *spec
	j.prog = prog
	j.panicd = false
	j.opts.Trace = s.trace
	return s.runJob(ctx, &j)
}

// errQueueWait marks a timeout while waiting for a worker slot, as
// opposed to one during scheduling.
var errQueueWait = errors.New("timed out waiting for a worker")

// execute runs one resolved job through the serving pipeline: store
// lookup → admission → single-flight collapse → worker slot → schedule
// → store. It returns the HTTP status, the X-Cache state ("hit" for
// the memory tier, "disk", "peer", "miss" for a computed body, "" for
// no lookup), the response body, and a log-facing error message.
func (s *Server) execute(parent context.Context, j *job) (code int, cacheState string, body []byte, errMsg string) {
	j.opts.Trace = s.trace

	// Content-addressed lookup down the tier stack. Memory hits bypass
	// the pool entirely: one map probe and an inflate of the stored
	// body, no admission needed. Disk and peer hits pay IO but never a
	// pipeline run. A job whose memo lookup already missed every tier
	// skips straight to computing, so the miss is counted once.
	if s.store != nil && !j.missed {
		if cached, tier, ok := s.store.Get(parent, j.key); ok {
			return http.StatusOK, tier, cached, ""
		}
	}

	// Admission: bound the number of requests that may hold or wait
	// for a worker slot; everything beyond answers 503 immediately so
	// overload sheds instead of piling up.
	if s.queued.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return http.StatusServiceUnavailable, "", errorBody("server saturated"), "saturated"
	}
	defer s.queued.Add(-1)

	timeout := s.cfg.Timeout
	if j.timeout > 0 && j.timeout < timeout {
		timeout = j.timeout
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()

	// Single-flight: concurrent identical misses collapse onto one
	// pipeline run. Followers wait without holding a worker slot and
	// reuse the leader's bytes; they already counted their cache miss
	// above, so the counters still reconcile (misses = N, runs = 1).
	fl, leader := s.flights.join(j.key)
	if !leader {
		s.sfWaits.Add(1)
		select {
		case <-fl.done:
		case <-ctx.Done():
			return http.StatusGatewayTimeout, "",
				errorBody(errQueueWait.Error()), ctx.Err().Error()
		}
		if fl.err == nil {
			return http.StatusOK, "miss", fl.body, ""
		}
		// The leader failed — possibly on its own request's budget,
		// which says nothing about ours. Run the job ourselves.
	}

	resp, err := s.acquireAndRun(ctx, j)
	if leader {
		s.flights.leave(j.key, fl, resp, err)
	}

	switch {
	case err == nil:
		return http.StatusOK, "miss", resp, ""
	case errors.Is(err, errQueueWait):
		return http.StatusGatewayTimeout, "", errorBody(errQueueWait.Error()), err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "",
			errorBody("scheduling exceeded the request budget"), err.Error()
	case isPanic(err):
		return http.StatusInternalServerError, "",
			errorBody("internal error (reproducer logged)"), err.Error()
	default:
		// Schedule- or simulation-time failures on well-formed input:
		// verifier rejections, simulator faults. Client-visible, not a
		// crash, so 422 keeps 5xx meaning "server bug".
		return http.StatusUnprocessableEntity, "", errorBody(err.Error()), err.Error()
	}
}

// acquireAndRun waits for a worker slot, re-checks the cache (an
// earlier flight may have stored the entry between our counted miss and
// now — Peek keeps the counters clean), runs the job, and stores a
// successful body.
func (s *Server) acquireAndRun(ctx context.Context, j *job) ([]byte, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", errQueueWait, ctx.Err())
	}
	defer func() { <-s.sem }()
	if s.store != nil {
		if cached, ok := s.store.Peek(j.key); ok {
			return cached, nil
		}
	}
	s.inflight.Add(1)
	s.runs.Add(1)
	body, err := s.runJob(ctx, j)
	s.inflight.Add(-1)
	if err == nil && s.store != nil {
		s.store.Put(ctx, j.key, body)
	}
	return body, err
}

// maxBatchUnits bounds how many units one batch request may carry; the
// request body size cap bounds their total weight.
const maxBatchUnits = 256

// handleScheduleBatch schedules several independent units in one
// request: parse → resolve each → run all units concurrently on the
// worker pool (at most Workers at a time) → one JSON response with a
// result per unit, in request order. Each unit goes through the same
// cache lookup, admission, single-flight and scheduling path as a
// single /schedule request, so its Body is byte-identical to the
// single-request response.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.finish(w, r, start, http.StatusMethodNotAllowed, "",
			errorBody("POST only"), "method not allowed")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.finish(w, r, start, http.StatusRequestEntityTooLarge, "",
				errorBody(fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)), err.Error())
			return
		}
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody("read: "+err.Error()), err.Error())
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody("json: "+err.Error()), err.Error())
		return
	}
	if len(req.Units) == 0 {
		s.finish(w, r, start, http.StatusBadRequest, "", errorBody("empty batch"), "empty batch")
		return
	}
	if len(req.Units) > maxBatchUnits {
		s.finish(w, r, start, http.StatusBadRequest, "",
			errorBody(fmt.Sprintf("batch exceeds %d units", maxBatchUnits)), "batch too large")
		return
	}

	results := make([]batchResult, len(req.Units))
	gate := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i := range req.Units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			j, err := resolve(&req.Units[i], s.cfg.AllowDebugPanic)
			if err != nil {
				results[i] = batchResult{Status: http.StatusBadRequest, Body: errorBody(err.Error())}
				return
			}
			code, cacheState, unitBody, _ := s.dispatch(r.Context(), j)
			results[i] = batchResult{Status: code, Cache: cacheState, Body: unitBody}
		}(i)
	}
	wg.Wait()

	resp, err := json.Marshal(&batchResponse{Results: results})
	if err != nil {
		s.finish(w, r, start, http.StatusInternalServerError, "",
			errorBody("marshal: "+err.Error()), err.Error())
		return
	}
	s.finish(w, r, start, http.StatusOK, "", resp, "")
}

// handleInternalCache is the node-to-node half of the peer tier:
//
//	GET /internal/cache/{key}[?claim=1]  read a body / claim a compute
//	PUT /internal/cache/{key}            backfill a computed body
//
// It is a trusted protocol for cluster-internal traffic (deploy it on
// a network peers can reach and clients cannot). GET serves only the
// local tiers — never the peer tier, so fetches cannot recurse — and
// with ?claim=1 implements the cluster-wide single-flight: a miss
// with an in-progress computation or a live claim parks the caller
// until the bytes land; a miss with neither grants the caller the
// claim (404 + X-Gschedd-Claim: granted) and lets it compute.
func (s *Server) handleInternalCache(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusNotFound
	defer func() { s.metrics.ObserveRequest("/internal/cache", code, time.Since(start)) }()

	if s.store == nil {
		http.Error(w, "store disabled", code)
		return
	}
	key, err := parseJobID(strings.TrimPrefix(r.URL.Path, "/internal/cache/"))
	if err != nil {
		code = http.StatusBadRequest
		http.Error(w, err.Error(), code)
		return
	}
	switch r.Method {
	case http.MethodGet:
		code = s.internalCacheGet(w, r, key)
	case http.MethodPut:
		code = s.internalCachePut(w, r, key)
	default:
		code = http.StatusMethodNotAllowed
		http.Error(w, "GET or PUT only", code)
	}
}

// internalCacheGet serves one protocol read. The loop re-checks the
// local tiers after every wait (a finished flight or resolved claim
// means the bytes are normally there now); it is bounded so a
// pathological claim churn degrades to "peer computes too" rather
// than a hung handler.
func (s *Server) internalCacheGet(w http.ResponseWriter, r *http.Request, key cacheKey) int {
	ctx := r.Context()
	peer := s.store.peer
	claiming := peer != nil && r.URL.Query().Get("claim") == "1"
	holder := r.Header.Get("X-Gschedd-Node")

	for tries := 0; tries < 8; tries++ {
		if body, ok := s.store.PeekLocal(ctx, key); ok {
			if peer != nil {
				peer.ServedToPeer()
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return http.StatusOK
		}
		// This node is already computing the key for a client of its
		// own: park the peer on that flight instead of duplicating.
		if fl := s.flights.current(key); fl != nil {
			select {
			case <-fl.done:
				continue // success stored the body; re-check
			case <-ctx.Done():
				http.Error(w, "not here", http.StatusNotFound)
				return http.StatusNotFound
			}
		}
		if !claiming {
			break
		}
		granted, standing := peer.tryClaim(key, holder, time.Now())
		if granted {
			w.Header().Set("X-Gschedd-Claim", "granted")
			http.Error(w, "not here, you compute", http.StatusNotFound)
			return http.StatusNotFound
		}
		wait := time.NewTimer(time.Until(standing.deadline))
		select {
		case <-standing.done:
			wait.Stop() // backfill landed; re-check the local tiers
		case <-wait.C:
			// Claimer presumed dead; the next iteration re-claims.
		case <-ctx.Done():
			wait.Stop()
			http.Error(w, "not here", http.StatusNotFound)
			return http.StatusNotFound
		}
	}
	http.Error(w, "not here", http.StatusNotFound)
	return http.StatusNotFound
}

// internalCachePut accepts a peer's computed body: store locally,
// wake claim waiters. Bodies are deterministic functions of the key,
// so a racing duplicate stores identical bytes.
func (s *Server) internalCachePut(w http.ResponseWriter, r *http.Request, key cacheKey) int {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPeerBody+1))
	if err != nil || int64(len(body)) > maxPeerBody {
		http.Error(w, "unreadable or oversized body", http.StatusBadRequest)
		return http.StatusBadRequest
	}
	s.store.PutLocal(r.Context(), key, body)
	if s.store.peer != nil {
		s.store.peer.finishClaim(key)
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent
}

// panicError marks a recovered worker panic.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

func isPanic(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

// runJob executes one resolved job under ctx, converting worker panics
// into errors after logging a difftest-style reproducer (the canonical
// input assembly plus machine and options, enough to replay the crash
// offline with gsched).
func (s *Server) runJob(ctx context.Context, j *job) (body []byte, err error) {
	// The reproducer must capture the input, not the half-scheduled
	// wreckage; resolve rendered the canonical text before scheduling
	// could mutate the program, so reuse it instead of re-rendering.
	defer func() {
		if v := recover(); v != nil {
			// A panic on the driver's worker arrives as a WorkerPanic
			// carrying that worker's stack.
			wp := core.Recovered(v)
			s.cfg.Logger.Error("worker panic",
				"panic", fmt.Sprint(wp.Value),
				"repro", reproducer(string(j.canon), j, fmt.Sprint(wp.Value)),
				"stack", string(wp.Stack))
			err = &panicError{val: wp.Value}
		}
	}()
	if s.testHook != nil {
		s.testHook()
	}
	if j.panicd {
		panic("debug_panic requested")
	}

	var pipe xform.Config // pipeline:false is plain scheduling
	if j.pipeline {
		pipe = xform.DefaultConfig()
	}
	var out strings.Builder
	res, err := xform.Drive(ctx, asm.ProgramReader(j.prog), j.opts, pipe, 1, &out)
	if err != nil {
		return nil, err
	}

	resp := &Response{Asm: out.String(), Stats: res.Stats}
	if j.simulate != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := sim.Load(j.prog)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		res, err := m.Run(j.simulate.Entry, j.simulate.Args, nil, sim.Options{
			Machine:        j.mach,
			ForgivingLoads: j.opts.Level >= core.LevelSpeculative,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		resp.Sim = &SimResponse{
			Ret:     res.Ret,
			Cycles:  res.Cycles,
			Instrs:  res.Instrs,
			Printed: res.Printed,
		}
	}
	return json.Marshal(resp)
}

// reproducer renders a difftest-style reproducer block: a comment
// header naming the machine and options, then the canonical input
// assembly. Feeding the block to gsched (or cmd/difftest) replays the
// failing schedule.
func reproducer(input string, j *job, msg string) string {
	var b strings.Builder
	b.WriteString("; gschedd panic reproducer\n")
	fmt.Fprintf(&b, "; machine: %s | %s\n", j.mach.Name, j.mach.Canonical())
	fmt.Fprintf(&b, "; options: %s\n", canonOptions(&j.opts, j.pipeline))
	if j.opts.Policy != nil {
		for _, line := range strings.Split(j.opts.Policy.Canonical(), "\n") {
			fmt.Fprintf(&b, "; policy: %s\n", line)
		}
	}
	for _, line := range strings.Split(msg, "\n") {
		fmt.Fprintf(&b, ";   %s\n", line)
	}
	b.WriteString(input)
	return b.String()
}

// finish writes one response and records it in the metrics and the
// structured log. cacheState is "hit", "miss" or "" (no lookup).
func (s *Server) finish(w http.ResponseWriter, r *http.Request, start time.Time,
	code int, cacheState string, body []byte, errMsg string) {

	if cacheState != "" {
		w.Header().Set("X-Cache", cacheState)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)

	d := time.Since(start)
	s.metrics.ObserveRequest(endpointLabel(r.URL.Path), code, d)
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"code", code,
		"dur_ms", float64(d.Microseconds()) / 1000,
		"bytes", len(body),
	}
	if cacheState != "" {
		attrs = append(attrs, "cache", cacheState)
	}
	if errMsg != "" {
		attrs = append(attrs, "err", errMsg)
	}
	if code >= 500 {
		s.cfg.Logger.Error("request", attrs...)
	} else {
		s.cfg.Logger.Info("request", attrs...)
	}
}

// endpointLabel collapses per-job paths onto one metrics label: job ids
// are content hashes, and a label per hash would grow the registry
// without bound.
func endpointLabel(path string) string {
	if strings.HasPrefix(path, "/jobs/") {
		return "/jobs"
	}
	return path
}

func errorBody(msg string) []byte {
	b, _ := json.Marshal(&errorResponse{Error: msg})
	return b
}
