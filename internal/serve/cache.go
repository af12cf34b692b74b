package serve

import (
	"bytes"
	"compress/flate"
	"container/list"
	"crypto/sha256"
	"io"
	"sync"
	"sync/atomic"
)

// cacheKey is a content address: the SHA-256 of the canonicalized request
// (program × machine × options). Two requests whose inputs are
// semantically equal — same ir.EqualPrograms-canonical program, same
// machine parameters, same scheduling options — produce the same cacheKey
// even if their textual sources differ.
type cacheKey [32]byte

// entryOverhead approximates the fixed per-entry bookkeeping bytes
// beyond key and body: the cacheEntry header, the list.Element, and the
// entry's share of the map buckets. Charging it keeps the byte cap
// honest for workloads of many tiny responses, where the raw body bytes
// undercount real memory by an order of magnitude.
const entryOverhead = 128

// entryCost is what one cached body charges against the byte cap.
func entryCost(body []byte) int64 {
	return int64(len(body)) + int64(len(cacheKey{})) + entryOverhead
}

// memCache is a bounded, LRU-evicting, content-addressed store of finished
// response bodies. All methods are safe for concurrent use. Eviction is
// by total accounted bytes — body plus key plus fixed per-entry
// overhead — not entry count: scheduling results vary from a few
// hundred bytes to hundreds of kilobytes, so a byte cap is the only
// meaningful memory bound.
//
// Bodies are held flate-compressed (scheduled assembly is repetitive
// text and shrinks several-fold) but charged at their uncompressed
// size, so the cap, the eviction order and the accounted bytes are
// those of the plain bodies; resident counts what is actually held.
type memCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	resident int64 // compressed bytes held
	entries  map[cacheKey]*list.Element
	lru      *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	size int    // uncompressed body length
	cost int64  // entryCost of the uncompressed body
	data []byte // the body, flate-compressed
}

// deflaters pools flate writers: a fresh one allocates about a
// megabyte of tables, far more than the bodies it compresses.
var deflaters = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed) // BestSpeed is a valid level
	return &deflater{zw: zw}
}}

type deflater struct {
	buf bytes.Buffer
	zw  *flate.Writer
}

// compress returns body deflated into an exactly sized slice: the
// scratch buffer stays pooled, so the entry holds no spare capacity.
func compress(body []byte) []byte {
	d := deflaters.Get().(*deflater)
	d.buf.Reset()
	d.zw.Reset(&d.buf)
	d.zw.Write(body) // writes into a bytes.Buffer cannot fail
	d.zw.Close()
	out := bytes.Clone(d.buf.Bytes())
	deflaters.Put(d)
	return out
}

var inflaters = sync.Pool{New: func() any {
	return &inflater{zr: flate.NewReader(nil)}
}}

type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser
}

// decompress inflates an entry into a fresh slice the caller owns.
func (e *cacheEntry) decompress() []byte {
	out := make([]byte, e.size)
	f := inflaters.Get().(*inflater)
	f.src.Reset(e.data)
	f.zr.(flate.Resetter).Reset(&f.src, nil)
	_, err := io.ReadFull(f.zr, out)
	inflaters.Put(f)
	if err != nil {
		// data is what compress wrote for exactly e.size bytes.
		panic("serve: corrupt in-memory cache entry: " + err.Error())
	}
	return out
}

// newMemCache returns a cache bounded to maxBytes of accounted entry
// bytes. maxBytes <= 0 means unbounded.
func newMemCache(maxBytes int64) *memCache {
	return &memCache{
		maxBytes: maxBytes,
		entries:  make(map[cacheKey]*list.Element),
		lru:      list.New(),
	}
}

// Get returns the stored body for key, updating the hit/miss counters
// and the LRU order. The returned slice is a fresh copy the caller owns.
func (c *memCache) Get(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*cacheEntry).decompress(), true
}

// Peek is Get without counters or LRU movement: a second-chance lookup
// for callers that already counted a miss for this request (the
// single-flight leader re-checks after acquiring a worker slot, in case
// an earlier flight stored the entry meanwhile).
func (c *memCache) Peek(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).decompress(), true
}

// Put stores body under key, evicting least-recently-used entries until
// the byte cap holds. A body whose accounted cost exceeds the whole cap
// is not stored. Storing an existing key refreshes its position but
// keeps the first body: results are deterministic in the key, so both
// bodies are identical by construction.
func (c *memCache) Put(key cacheKey, body []byte) {
	cost := entryCost(body)
	if c.maxBytes > 0 && cost > c.maxBytes {
		return
	}
	e := &cacheEntry{key: key, size: len(body), cost: cost, data: compress(body)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += cost
	c.resident += int64(len(e.data))
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		last := c.lru.Back()
		if last == nil {
			break
		}
		e := last.Value.(*cacheEntry)
		c.lru.Remove(last)
		delete(c.entries, e.key)
		c.bytes -= e.cost
		c.resident -= int64(len(e.data))
		c.evictions.Add(1)
	}
}

// cacheStats is a point-in-time snapshot of the cache counters.
type cacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Resident  int64
	Entries   int
}

// Stats snapshots the counters and current size. Bytes is the
// accounted size (uncompressed bodies plus keys plus per-entry
// overhead); Resident is the compressed body bytes actually held.
func (c *memCache) Stats() cacheStats {
	c.mu.Lock()
	bytes, resident, entries := c.bytes, c.resident, len(c.entries)
	c.mu.Unlock()
	return cacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     bytes,
		Resident:  resident,
		Entries:   entries,
	}
}

// memoCap bounds the key memo's entries; past it the memo resets
// rather than growing, like heatCap (a lost entry costs one full
// resolve, it never serves wrong bytes).
const memoCap = 1 << 16

// keyMemo maps the SHA-256 of a raw /schedule request body to the
// content cacheKey that body resolved to, so a repeated body reaches the
// store without decoding, compiling, canonicalizing or hashing the
// program again. resolve is a pure function of the body and the
// server's fixed Config, so the memoized key is exactly the one the
// full path would compute. The raw body is the memo key, not a digest
// of decoded fields: no field list has to track contentKey, and the
// JSON decode is skipped too; a body spelled differently (whitespace,
// field order) only takes the full path once more.
type keyMemo struct {
	mu   sync.Mutex
	keys map[[sha256.Size]byte]cacheKey
	hits atomic.Int64
}

func newKeyMemo() *keyMemo {
	return &keyMemo{keys: make(map[[sha256.Size]byte]cacheKey)}
}

func (m *keyMemo) get(body [sha256.Size]byte) (cacheKey, bool) {
	m.mu.Lock()
	key, ok := m.keys[body]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	}
	return key, ok
}

func (m *keyMemo) put(body [sha256.Size]byte, key cacheKey) {
	m.mu.Lock()
	if len(m.keys) >= memoCap {
		m.keys = make(map[[sha256.Size]byte]cacheKey)
	}
	m.keys[body] = key
	m.mu.Unlock()
}

// flight is one in-progress computation of a content key. The leader
// closes done after publishing body/err; followers read them after.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// flightGroup collapses concurrent identical cache misses onto a single
// pipeline run (single-flight). The first caller of a key becomes the
// leader and computes; the rest wait for its result. Results are not
// retained past the flight — the cache is the durable store.
type flightGroup struct {
	mu      sync.Mutex
	flights map[cacheKey]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[cacheKey]*flight)}
}

// join returns the flight for key and whether the caller is its leader.
// The leader MUST call leave with the result when done, even on error.
func (g *flightGroup) join(key cacheKey) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.flights[key] = fl
	return fl, true
}

// current returns the in-progress flight for key, or nil. The peer
// protocol's read path uses it to park a peer on a computation this
// node already started instead of telling it to duplicate the work.
func (g *flightGroup) current(key cacheKey) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flights[key]
}

// leave publishes the leader's result and wakes the followers.
func (g *flightGroup) leave(key cacheKey, fl *flight, body []byte, err error) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	fl.body, fl.err = body, err
	close(fl.done)
}
