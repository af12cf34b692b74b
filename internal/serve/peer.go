package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The peer tier: multi-node mode. Every cache key has exactly one
// owning node, chosen by consistent hashing over the cluster's node
// URLs, and a miss in the local tiers asks the owner before paying a
// pipeline run. The conversation is two verbs:
//
//	GET /internal/cache/{key}?claim=1   owner-first fetch
//	PUT /internal/cache/{key}           backfill a computed body
//
// The ?claim=1 GET is also the cluster-wide single-flight: when the
// owner has neither the body nor an in-progress computation, the
// FIRST asker is granted a claim (404 + X-Gschedd-Claim: granted) and
// computes; every later asker for the same key blocks on the owner
// until the claimer's PUT lands, then gets the bytes with no pipeline
// run anywhere. Layered on each node's local single-flight, one miss
// anywhere in the cluster runs the pipeline once.
//
// Every failure path degrades to local compute, never to an error: an
// unreachable or slow owner (the -peer-timeout budget), an expired
// claim (claimer died), a disagreeing ring — the asker schedules
// locally and backfills the owner best-effort. Content addressing
// makes this safe: duplicated work wastes cycles, never bytes.

// ringReplicas is the virtual-node count per physical node. 64 points
// per node keeps the ownership split within a few percent of even for
// small clusters.
const ringReplicas = 64

// hashRing maps keys to owning nodes by consistent hashing: each node
// contributes ringReplicas points on a uint64 circle; a key belongs
// to the first point at or after its own hash. Every node builds the
// same ring from the same node list, so ownership is agreed without
// coordination.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	h    uint64
	node string
}

func newRing(nodes []string) *hashRing {
	r := &hashRing{}
	for _, n := range nodes {
		for i := 0; i < ringReplicas; i++ {
			sum := sha256.Sum256(fmt.Appendf(nil, "%s#%d", n, i))
			r.points = append(r.points, ringPoint{
				h:    binary.BigEndian.Uint64(sum[:8]),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owner returns the node owning key.
func (r *hashRing) owner(key cacheKey) string {
	h := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// normalizeNode canonicalizes a node URL for ring identity.
func normalizeNode(u string) string { return strings.TrimRight(strings.TrimSpace(u), "/") }

// claim is one granted right-to-compute on the owner. Followers wait
// on done; the claimer's backfill PUT (or the owner's own compute)
// closes it. deadline bounds how long a dead claimer can be believed;
// holder names the claiming node, so its own repeat asks re-grant
// instantly (its local single-flight already collapses them) instead
// of deadlocking on their own claim.
type claim struct {
	done     chan struct{}
	deadline time.Time
	holder   string
}

// backfillSlots bounds concurrent backfill pushes; a full set drops
// the backfill (the owner stays cold until the next compute — wasted
// cycles, never wrong bytes).
const backfillSlots = 8

// maxPeerBody caps bodies accepted over the internal protocol.
const maxPeerBody = 64 << 20

// peerStore is the peer tier and the server side of the internal
// protocol's claim state. All methods are safe for concurrent use.
type peerStore struct {
	self     string
	ring     *hashRing
	client   *http.Client
	timeout  time.Duration
	claimTTL time.Duration

	cmu    sync.Mutex
	claims map[cacheKey]*claim

	slots  chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	hits     atomic.Int64
	misses   atomic.Int64
	fetches  atomic.Int64
	timeouts atomic.Int64
	backfill atomic.Int64
	served   atomic.Int64
	errors   atomic.Int64
}

// newPeerStore builds the tier for a node self among peers. timeout
// bounds one owner conversation; claimTTL bounds how long a granted
// claim blocks followers (normally the compute budget).
func newPeerStore(self string, peers []string, timeout, claimTTL time.Duration) (*peerStore, error) {
	self = normalizeNode(self)
	if self == "" {
		return nil, errors.New("peer mode needs the node's own advertised URL (-self)")
	}
	seen := map[string]bool{self: true}
	nodes := []string{self}
	for _, p := range peers {
		p = normalizeNode(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		nodes = append(nodes, p)
	}
	if len(nodes) < 2 {
		return nil, errors.New("peer mode needs at least one peer URL distinct from -self")
	}
	sort.Strings(nodes) // ring identity independent of flag order
	return &peerStore{
		self:     self,
		ring:     newRing(nodes),
		client:   &http.Client{},
		timeout:  timeout,
		claimTTL: claimTTL,
		claims:   make(map[cacheKey]*claim),
		slots:    make(chan struct{}, backfillSlots),
	}, nil
}

// Owner reports the node owning key and whether that is this node.
func (p *peerStore) Owner(key cacheKey) (node string, self bool) {
	node = p.ring.owner(key)
	return node, node == p.self
}

// Get asks the owner for key (request path: counts a hit or a miss).
// A self-owned key is an immediate miss — this node is the authority,
// there is nobody better to ask.
func (p *peerStore) Get(ctx context.Context, key cacheKey) ([]byte, bool) {
	body, ok := p.fetch(ctx, key)
	if ok {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	return body, ok
}

// Peek is Get without the request-path hit/miss accounting (fetch and
// timeout counters still advance): job-layer lookups.
func (p *peerStore) Peek(ctx context.Context, key cacheKey) ([]byte, bool) {
	return p.fetch(ctx, key)
}

func (p *peerStore) fetch(ctx context.Context, key cacheKey) ([]byte, bool) {
	owner, self := p.Owner(key)
	if self || p.closed.Load() {
		return nil, false
	}
	p.fetches.Add(1)
	fctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		owner+"/internal/cache/"+key.String()+"?claim=1", nil)
	if err != nil {
		p.errors.Add(1)
		return nil, false
	}
	req.Header.Set("X-Gschedd-Node", p.self)
	resp, err := p.client.Do(req)
	if err != nil {
		if fctx.Err() != nil && ctx.Err() == nil {
			p.timeouts.Add(1) // our peer budget, not the request's
		} else {
			p.errors.Add(1)
		}
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil || int64(len(body)) > maxPeerBody {
		p.errors.Add(1)
		return nil, false
	}
	return body, true
}

// Put completes the tier's share of a store: when this node owns key,
// wake any peers blocked on its claim; otherwise push the body to the
// owner asynchronously so the next asker anywhere finds it there.
func (p *peerStore) Put(ctx context.Context, key cacheKey, body []byte) {
	_, self := p.Owner(key)
	if self {
		p.finishClaim(key)
		return
	}
	if p.closed.Load() {
		return
	}
	select {
	case p.slots <- struct{}{}:
	default:
		p.errors.Add(1) // backfill dropped under pressure
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.slots }()
		p.pushToOwner(key, body)
	}()
}

func (p *peerStore) pushToOwner(key cacheKey, body []byte) {
	owner, _ := p.Owner(key)
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		owner+"/internal/cache/"+key.String(), bytes.NewReader(body))
	if err != nil {
		p.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		p.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		p.errors.Add(1)
		return
	}
	p.backfill.Add(1)
}

// tryClaim grants holder the right to compute key when no live claim
// exists (or holder already has it); otherwise it returns the
// standing claim for the caller to wait on.
func (p *peerStore) tryClaim(key cacheKey, holder string, now time.Time) (granted bool, standing *claim) {
	p.cmu.Lock()
	defer p.cmu.Unlock()
	if c, ok := p.claims[key]; ok && now.Before(c.deadline) {
		if holder != "" && c.holder == holder {
			return true, nil // the claimer asking again keeps its claim
		}
		return false, c
	}
	// No claim, or the claimer's budget expired (it died or gave up):
	// the key is up for grabs again.
	p.claims[key] = &claim{done: make(chan struct{}), deadline: now.Add(p.claimTTL), holder: holder}
	return true, nil
}

// finishClaim wakes everyone blocked on key's claim. Called on every
// local store of key (a backfill PUT or the owner's own compute).
func (p *peerStore) finishClaim(key cacheKey) {
	p.cmu.Lock()
	if c, ok := p.claims[key]; ok {
		delete(p.claims, key)
		close(c.done)
	}
	p.cmu.Unlock()
}

// ServedToPeer counts one internal-protocol read answered with bytes.
func (p *peerStore) ServedToPeer() { p.served.Add(1) }

func (p *peerStore) Stats() tierStats {
	p.cmu.Lock()
	claims := len(p.claims)
	p.cmu.Unlock()
	return tierStats{
		Tier:     "peer",
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Errors:   p.errors.Load(),
		Entries:  claims, // open claims, the only state this tier holds
		Fetches:  p.fetches.Load(),
		Timeouts: p.timeouts.Load(),
		Backfill: p.backfill.Load(),
		Served:   p.served.Load(),
	}
}

// Close stops new fetches and backfills and waits out in-flight
// backfill pushes.
func (p *peerStore) Close() error {
	p.closed.Store(true)
	p.wg.Wait()
	return nil
}
