package serve

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// The async job layer of the exact tier (level=optimal). A proof of
// optimality is too slow for the synchronous request path, so the
// server answers immediately and enqueues the exact run as a job on its
// own bounded queue with its own workers — the synchronous pool stays
// isolated from search time. Jobs are identified by the request's
// content-addressed cacheKey, which buys deduplication (resubmitting an
// identical request joins the existing job) and a forever-cache (a
// finished job's bytes are kept for every future poll): these results
// are expensive and deterministic in the key, so they are never
// evicted.

// Job states, as reported by the API.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// String renders the key as the job id used by the HTTP API.
func (k cacheKey) String() string { return hex.EncodeToString(k[:]) }

// parseJobID inverts cacheKey.String.
func parseJobID(id string) (cacheKey, error) {
	var k cacheKey
	b, err := hex.DecodeString(id)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("job id must be %d hex characters", 2*len(k))
	}
	copy(k[:], b)
	return k, nil
}

// exactStats is a point-in-time snapshot of the job-layer counters.
// Every submission lands in exactly one of Queued, Running, Completed
// or Failed, so Submitted == Completed + Failed + Queued + Running at
// every instant; Deduped and Rejected count turned-away POSTs and are
// outside that balance.
type exactStats struct {
	Submitted int64 // jobs accepted onto the queue (including retries of failed jobs)
	Deduped   int64 // submissions that joined an existing queued/running/done job
	Rejected  int64 // submissions refused: queue full or manager closed
	Completed int64 // jobs finished with a result
	Failed    int64 // jobs finished with an error (deadline, verifier, panic)
	Queued    int64 // gauge: accepted, waiting for a worker
	Running   int64 // gauge: currently scheduling
	// Warm counts jobs answered straight from the store stack — a
	// previous process or another node already proved this key's
	// optimum, so no search ran. A warm POST counts as Submitted and
	// Completed too (the balance above still holds); a warm poll of an
	// id unknown to this process counts only here.
	Warm int64
}

// exactJob is one job's record; guarded by the manager's mutex.
type exactJob struct {
	key    cacheKey
	spec   *job // the resolved request the exact run replays
	state  string
	body   []byte // jobDone: the response bytes, kept forever
	errMsg string // jobFailed
}

// jobManager owns the exact-tier queue, workers and forever-store.
// When lookup/persist are wired (a server with a store stack), exact
// results also flow through the content-addressed tiers: persist
// writes a finished body to memory + disk + the owning peer, and
// lookup answers a submission or poll from any tier — so a schedule
// proven optimal once is never searched for again, across restarts
// and across nodes.
type jobManager struct {
	queue   chan *exactJob
	stop    chan struct{}
	wg      sync.WaitGroup
	timeout time.Duration
	run     func(ctx context.Context, spec *job) ([]byte, error)

	// lookup consults the store stack without request-path accounting;
	// persist stores a finished result everywhere. Either may be nil
	// (manager without a store).
	lookup  func(key cacheKey) ([]byte, bool)
	persist func(key cacheKey, body []byte)

	mu     sync.Mutex
	jobs   map[cacheKey]*exactJob
	closed bool
	stats  exactStats
}

func newJobManager(workers, depth int, timeout time.Duration,
	run func(ctx context.Context, spec *job) ([]byte, error)) *jobManager {

	m := &jobManager{
		queue:   make(chan *exactJob, depth),
		stop:    make(chan struct{}),
		timeout: timeout,
		run:     run,
		jobs:    make(map[cacheKey]*exactJob),
	}
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// submit enqueues spec's job under key, or joins an existing one. It
// returns the job's current state and whether the submission was
// admitted; !ok means the queue is full (or the manager closed) and the
// client should retry later. A previously failed job is retried by
// re-enqueueing it; queued, running and done jobs dedup. A key whose
// proven result already sits in the store stack (an earlier process,
// another node) is recorded done immediately — warm keys run zero
// searches.
func (m *jobManager) submit(key cacheKey, spec *job) (state string, ok bool) {
	m.mu.Lock()
	if m.closed {
		m.stats.Rejected++
		m.mu.Unlock()
		return "", false
	}
	if ej := m.jobs[key]; ej != nil && ej.state != jobFailed {
		m.stats.Deduped++
		state := ej.state
		m.mu.Unlock()
		return state, true
	}
	m.mu.Unlock()

	// Warm lookup outside the lock: the store stack may touch disk or
	// a peer, and the manager must keep serving polls meanwhile.
	var warmBody []byte
	if m.lookup != nil {
		warmBody, _ = m.lookup(key)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.stats.Rejected++
		return "", false
	}
	// Re-check: a racing submission may have installed the job.
	ej := m.jobs[key]
	if ej != nil && ej.state != jobFailed {
		m.stats.Deduped++
		return ej.state, true
	}
	if ej == nil && warmBody != nil {
		ej = &exactJob{key: key, spec: spec, state: jobDone, body: warmBody}
		m.jobs[key] = ej
		m.stats.Submitted++
		m.stats.Completed++
		m.stats.Warm++
		return jobDone, true
	}
	if ej == nil {
		ej = &exactJob{key: key, spec: spec}
	}
	select {
	case m.queue <- ej:
	default:
		m.stats.Rejected++
		return "", false
	}
	ej.state = jobQueued
	ej.body, ej.errMsg = nil, ""
	m.jobs[key] = ej
	m.stats.Submitted++
	m.stats.Queued++
	return jobQueued, true
}

// get reports a job's state and, when finished, its result or error.
// An id this process has never seen may still name a finished job —
// one completed before a restart or on another node — so an unknown
// key falls back to the store stack before answering "no such job".
func (m *jobManager) get(key cacheKey) (state string, body []byte, errMsg string, ok bool) {
	m.mu.Lock()
	ej := m.jobs[key]
	m.mu.Unlock()
	if ej == nil {
		if m.lookup == nil {
			return "", nil, "", false
		}
		stored, found := m.lookup(key)
		if !found {
			return "", nil, "", false
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if cur := m.jobs[key]; cur != nil {
			return cur.state, cur.body, cur.errMsg, true
		}
		m.jobs[key] = &exactJob{state: jobDone, body: stored}
		m.stats.Warm++
		return jobDone, stored, "", true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return ej.state, ej.body, ej.errMsg, true
}

// snapshot samples the counters for the metrics endpoint.
func (m *jobManager) snapshot() exactStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case ej := <-m.queue:
			m.mu.Lock()
			ej.state = jobRunning
			m.stats.Queued--
			m.stats.Running++
			m.mu.Unlock()

			ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
			body, err := m.run(ctx, ej.spec)
			cancel()

			if err == nil && m.persist != nil {
				// Through the same stack as synchronous responses:
				// RAM, disk (restart-proof), the owning peer. Proven
				// optima are the most expensive bytes we make — they
				// are never searched for twice.
				m.persist(ej.key, body)
			}
			m.mu.Lock()
			if err != nil {
				ej.state = jobFailed
				ej.errMsg = err.Error()
				m.stats.Failed++
			} else {
				ej.state = jobDone
				ej.body = body
				m.stats.Completed++
			}
			m.stats.Running--
			m.mu.Unlock()
		}
	}
}

// close stops the workers after their current job; further submissions
// are rejected. Jobs still queued stay queued (the process is going
// away with their results anyway).
func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
}
