package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// The response store stack. Results are immutable and infinitely
// shareable — cache keys are sha256 content hashes of the canonical
// (program × machine × options), so a body found anywhere (RAM, disk,
// a peer node) is byte-for-byte the body this node would compute.
// That property is what lets the stack layer tiers with no
// invalidation protocol at all: a tier can only be empty or right.
//
// The tiers, cheapest first:
//
//	memory — the accounted in-memory LRU (cache.go)
//	disk   — content-addressed files, survive restarts (diskstore.go)
//	peer   — consistent-hash owner fetch over HTTP (peer.go)
//
// tiered composes them: Get walks down until a tier hits, promoting
// bodies upward (disk→memory always; peer→local once a key proves
// hot); Put writes memory + disk and backfills the owning peer.

// tierStats is a point-in-time snapshot of one tier's counters. The
// peer-traffic fields stay zero for local tiers.
type tierStats struct {
	Tier      string
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
	// Errors counts entries that could not be served: IO failures and
	// corrupt/truncated disk entries (detected, deleted, never served),
	// failed peer conversations.
	Errors  int64
	Bytes   int64
	Entries int

	// Peer tier only.
	Fetches  int64 // owner fetches attempted
	Timeouts int64 // owner fetches abandoned at the peer timeout
	Backfill int64 // computed bodies pushed to their owning node
	Served   int64 // internal-protocol reads answered for peers
}

// heatCap bounds the replication heat map; past it the map resets
// rather than growing without bound (losing heat only delays
// replication by one fetch, it never serves wrong bytes).
const heatCap = 1 << 16

// tiered is the stacked response store: memory, then disk, then peers.
// disk and peer may be nil (single-node, RAM-only deployments). All
// methods are safe for concurrent use.
type tiered struct {
	mem  *memCache
	disk *diskStore
	peer *peerStore

	// replicateAfter is the hot-key threshold: a key fetched from its
	// owning peer this many times is copied into the local tiers, so
	// skewed workloads stop paying the network hop. <=0 replicates on
	// first contact.
	replicateAfter int

	mu   sync.Mutex
	heat map[cacheKey]int

	replications atomic.Int64
	computes     atomic.Int64 // lookups that missed every tier
}

// newTiered stacks the given tiers. mem is required; disk and peer may
// be nil.
func newTiered(mem *memCache, disk *diskStore, peer *peerStore, replicateAfter int) *tiered {
	return &tiered{
		mem:            mem,
		disk:           disk,
		peer:           peer,
		replicateAfter: replicateAfter,
		heat:           make(map[cacheKey]int),
	}
}

// Memory exposes the memory tier's cache (metrics compatibility).
func (t *tiered) Memory() *memCache { return t.mem }

// Get walks the stack for key. It returns the body, the name of the
// tier that served it ("hit" for memory, "disk", "peer") or "" on a
// full miss, and whether anything hit. Exactly one of the tier
// hit/miss counters advances per tier consulted, and a full miss
// advances the computes counter — which is what makes
//
//	memory hits + disk hits + peer hits + computes == lookups
//
// an exact identity, checked by the soak's CheckCounters.
func (t *tiered) Get(ctx context.Context, key cacheKey) (body []byte, tier string, ok bool) {
	if body, ok := t.mem.Get(key); ok {
		return body, "hit", true
	}
	if t.disk != nil {
		if body, ok := t.disk.Get(ctx, key); ok {
			// Promote: the working set's hot edge belongs in RAM.
			t.mem.Put(key, body)
			return body, "disk", true
		}
	}
	if t.peer != nil {
		if body, ok := t.peer.Get(ctx, key); ok {
			t.replicate(key, body)
			return body, "peer", true
		}
	}
	t.computes.Add(1)
	return nil, "", false
}

// replicate copies a peer-fetched body into the local tiers once the
// key has proven hot (replicateAfter owner fetches).
func (t *tiered) replicate(key cacheKey, body []byte) {
	t.mu.Lock()
	if len(t.heat) >= heatCap {
		t.heat = make(map[cacheKey]int)
	}
	t.heat[key]++
	hot := t.heat[key] >= t.replicateAfter
	if hot {
		delete(t.heat, key)
	}
	t.mu.Unlock()
	if !hot {
		return
	}
	t.replications.Add(1)
	t.PutLocal(context.Background(), key, body)
}

// Peek is the second-chance lookup: memory only, no counters. The
// single-flight leader re-checks after acquiring a worker slot; a body
// stored meanwhile is always in the memory tier (every store path
// writes it first).
func (t *tiered) Peek(key cacheKey) ([]byte, bool) { return t.mem.Peek(key) }

// PeekLocal consults the local tiers (memory, disk) without counters:
// the peer-protocol read path, which must never recurse into the peer
// tier.
func (t *tiered) PeekLocal(ctx context.Context, key cacheKey) ([]byte, bool) {
	if body, ok := t.mem.Peek(key); ok {
		return body, true
	}
	if t.disk != nil {
		if body, ok := t.disk.Peek(ctx, key); ok {
			t.mem.Put(key, body)
			return body, true
		}
	}
	return nil, false
}

// PeekThrough consults every tier without request-path hit/miss
// accounting (peer fetches still count as fetches): the job layer's
// warm lookup, which must not skew the request reconciliation.
func (t *tiered) PeekThrough(ctx context.Context, key cacheKey) ([]byte, bool) {
	if body, ok := t.PeekLocal(ctx, key); ok {
		return body, true
	}
	if t.peer != nil {
		if body, ok := t.peer.Peek(ctx, key); ok {
			t.PutLocal(ctx, key, body)
			return body, true
		}
	}
	return nil, false
}

// Put stores a freshly computed body everywhere it belongs: the local
// memory and disk tiers, then the peer tier (which backfills the
// owning node when that is somebody else, and wakes any peers waiting
// on our claim when it is us).
func (t *tiered) Put(ctx context.Context, key cacheKey, body []byte) {
	t.PutLocal(ctx, key, body)
	if t.peer != nil {
		t.peer.Put(ctx, key, body)
	}
}

// PutLocal stores body in the local tiers only — the peer-protocol
// write path (a backfill must not re-backfill) and replication.
func (t *tiered) PutLocal(ctx context.Context, key cacheKey, body []byte) {
	t.mem.Put(key, body)
	if t.disk != nil {
		t.disk.Put(ctx, key, body)
	}
}

// Stats snapshots every present tier, cheapest first.
func (t *tiered) Stats() []tierStats {
	cs := t.mem.Stats()
	out := []tierStats{{
		Tier:      "memory",
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Evictions: cs.Evictions,
		Bytes:     cs.Bytes,
		Entries:   cs.Entries,
	}}
	if t.disk != nil {
		out = append(out, t.disk.Stats())
	}
	if t.peer != nil {
		out = append(out, t.peer.Stats())
	}
	return out
}

// Replications reports hot keys copied from their owner into the
// local tiers.
func (t *tiered) Replications() int64 { return t.replications.Load() }

// Computes reports lookups that missed every tier and fell through to
// the scheduler (single-flight may still collapse several into one
// pipeline run).
func (t *tiered) Computes() int64 { return t.computes.Load() }

// Close releases the tiers (disk index, peer backfill workers).
func (t *tiered) Close() error {
	var err error
	if t.disk != nil {
		err = t.disk.Close()
	}
	if t.peer != nil {
		if cerr := t.peer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
