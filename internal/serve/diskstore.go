package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// The content-addressed on-disk tier. Every entry is one file named by
// its hex key under a 256-way fanout directory (first key byte), so
// restarts warm-start by scanning the tree and the working set can
// exceed RAM. Writes are crash-safe by construction: the body is
// framed with a magic, its length and its sha256, written to a temp
// file in the same directory and atomically renamed into place — a
// crash leaves either the complete old state or a temp file the next
// startup sweeps away. Reads verify the frame; a truncated or corrupt
// entry (torn write, flipped bit, short disk) is detected, deleted and
// reported as a miss, never served.

// entryMagic opens every disk entry file ("gschedd store, frame v1").
var entryMagic = [4]byte{'G', 'S', 'D', '1'}

// frameHeaderSize is magic(4) + big-endian body length(8) +
// sha256(body)(32).
const frameHeaderSize = 4 + 8 + sha256.Size

// entrySuffix names complete entries; tempPattern names in-progress
// writes (swept at startup).
const (
	entrySuffix = ".e"
	tempPattern = ".tmp-*"
)

// diskStore is the persistent tier: size-capped, LRU-evicting (by
// in-memory access order, seeded from file mtimes at startup),
// content-addressed files. All methods are safe for concurrent use.
type diskStore struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	evictions atomic.Int64
	errors    atomic.Int64
	scanned   int   // valid entries recovered at startup
	dropped   int   // corrupt/truncated entries deleted at startup
	scanErr   error // first unexpected scan failure, for diagnostics
}

type diskEntry struct {
	key  cacheKey
	size int64 // full file size (frame + body)
}

// newDiskStore opens (creating if needed) the store rooted at dir,
// bounded to maxBytes of file bytes (<=0 means unbounded), and runs
// the recovery scan: temp files are deleted, every entry's frame is
// verified, corrupt entries are deleted, and the survivors seed the
// LRU in mtime order. The scan reads every file once — the price of
// the guarantee that nothing corrupt is ever served.
func newDiskStore(dir string, maxBytes int64) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	d := &diskStore{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[cacheKey]*list.Element),
		lru:      list.New(),
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	d.evictOver()
	return d, nil
}

// path returns dir/ab/<64 hex chars>.e for the key.
func (d *diskStore) path(key cacheKey) string {
	hexKey := hex.EncodeToString(key[:])
	return filepath.Join(d.dir, hexKey[:2], hexKey+entrySuffix)
}

// frame renders the entry file bytes for body.
func frame(body []byte) []byte {
	out := make([]byte, frameHeaderSize+len(body))
	copy(out, entryMagic[:])
	binary.BigEndian.PutUint64(out[4:12], uint64(len(body)))
	sum := sha256.Sum256(body)
	copy(out[12:12+sha256.Size], sum[:])
	copy(out[frameHeaderSize:], body)
	return out
}

// unframe validates raw as an entry file and returns the body. Any
// violation — short file, bad magic, length mismatch, checksum
// mismatch — is an error; the caller deletes the file.
func unframe(raw []byte) ([]byte, error) {
	if len(raw) < frameHeaderSize {
		return nil, fmt.Errorf("truncated header: %d bytes", len(raw))
	}
	if [4]byte(raw[:4]) != entryMagic {
		return nil, fmt.Errorf("bad magic %q", raw[:4])
	}
	n := binary.BigEndian.Uint64(raw[4:12])
	if uint64(len(raw)-frameHeaderSize) != n {
		return nil, fmt.Errorf("length %d, frame says %d", len(raw)-frameHeaderSize, n)
	}
	body := raw[frameHeaderSize:]
	sum := sha256.Sum256(body)
	if sum != [sha256.Size]byte(raw[12:12+sha256.Size]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return body, nil
}

// scan recovers the index from the directory tree: sweep temp files,
// verify every entry, delete the corrupt, seed the LRU oldest-first
// from mtimes.
func (d *diskStore) scan() error {
	type found struct {
		e     diskEntry
		mtime int64
	}
	var valid []found
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("scan cache dir: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		shardPath := filepath.Join(d.dir, shard.Name())
		files, err := os.ReadDir(shardPath)
		if err != nil {
			d.scanErr = err
			continue
		}
		for _, f := range files {
			p := filepath.Join(shardPath, f.Name())
			name := f.Name()
			if ok, _ := filepath.Match(tempPattern, name); ok || name == "" || name[0] == '.' {
				os.Remove(p) // torn write in progress at crash time
				d.dropped++
				continue
			}
			keyHex, isEntry := trimSuffix(name, entrySuffix)
			keyBytes, err := hex.DecodeString(keyHex)
			if !isEntry || err != nil || len(keyBytes) != len(cacheKey{}) {
				os.Remove(p) // not ours; a cache dir holds only entries
				d.dropped++
				continue
			}
			raw, err := os.ReadFile(p)
			if err != nil {
				d.scanErr = err
				continue
			}
			if _, err := unframe(raw); err != nil {
				os.Remove(p)
				d.dropped++
				continue
			}
			info, err := f.Info()
			if err != nil {
				d.scanErr = err
				continue
			}
			var key cacheKey
			copy(key[:], keyBytes)
			valid = append(valid, found{
				e:     diskEntry{key: key, size: int64(len(raw))},
				mtime: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].mtime < valid[j].mtime })
	for _, v := range valid {
		// Oldest first, each push lands in front: newest ends up MRU.
		d.entries[v.e.key] = d.lru.PushFront(&diskEntry{key: v.e.key, size: v.e.size})
		d.bytes += v.e.size
		d.scanned++
	}
	return nil
}

func trimSuffix(s, suffix string) (string, bool) {
	if len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}

// Get returns the body for key, counting a hit or miss and refreshing
// the LRU position. A corrupt or unreadable file is deleted and
// reported as a miss.
func (d *diskStore) Get(ctx context.Context, key cacheKey) ([]byte, bool) {
	body, ok := d.read(key, true)
	return body, ok
}

// Peek is Get without hit/miss counters or LRU movement.
func (d *diskStore) Peek(ctx context.Context, key cacheKey) ([]byte, bool) {
	return d.read(key, false)
}

func (d *diskStore) read(key cacheKey, counted bool) ([]byte, bool) {
	d.mu.Lock()
	el, ok := d.entries[key]
	if ok && counted {
		d.lru.MoveToFront(el)
	}
	d.mu.Unlock()
	if !ok {
		if counted {
			d.misses.Add(1)
		}
		return nil, false
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		// Indexed but unreadable: evicted by a racing Put's eviction
		// pass, or real IO trouble. Either way it is a miss.
		d.drop(key, err)
		if counted {
			d.misses.Add(1)
		}
		return nil, false
	}
	body, err := unframe(raw)
	if err != nil {
		// Corrupt on disk: delete, never serve.
		os.Remove(d.path(key))
		d.drop(key, err)
		if counted {
			d.misses.Add(1)
		}
		return nil, false
	}
	if counted {
		d.hits.Add(1)
	}
	return body, true
}

// drop removes key from the index (the file is the caller's problem)
// and counts an error.
func (d *diskStore) drop(key cacheKey, _ error) {
	d.errors.Add(1)
	d.mu.Lock()
	if el, ok := d.entries[key]; ok {
		d.bytes -= el.Value.(*diskEntry).size
		d.lru.Remove(el)
		delete(d.entries, key)
	}
	d.mu.Unlock()
}

// Put stores body under key: frame → temp file in the shard dir →
// atomic rename → index insert → evict over cap. Storing an existing
// key is a no-op (bodies are deterministic in the key). A body larger
// than the whole cap is declined.
func (d *diskStore) Put(ctx context.Context, key cacheKey, body []byte) {
	raw := frame(body)
	if d.maxBytes > 0 && int64(len(raw)) > d.maxBytes {
		return
	}
	d.mu.Lock()
	_, exists := d.entries[key]
	d.mu.Unlock()
	if exists {
		return
	}

	dst := d.path(key)
	shard := filepath.Dir(dst)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		d.errors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(shard, tempPattern)
	if err != nil {
		d.errors.Add(1)
		return
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}

	d.puts.Add(1)
	d.mu.Lock()
	if _, raced := d.entries[key]; !raced {
		d.entries[key] = d.lru.PushFront(&diskEntry{key: key, size: int64(len(raw))})
		d.bytes += int64(len(raw))
	}
	d.mu.Unlock()
	d.evictOver()
}

// evictOver deletes least-recently-used entries until the byte cap
// holds.
func (d *diskStore) evictOver() {
	if d.maxBytes <= 0 {
		return
	}
	for {
		d.mu.Lock()
		if d.bytes <= d.maxBytes {
			d.mu.Unlock()
			return
		}
		last := d.lru.Back()
		if last == nil {
			d.mu.Unlock()
			return
		}
		e := last.Value.(*diskEntry)
		d.lru.Remove(last)
		delete(d.entries, e.key)
		d.bytes -= e.size
		d.mu.Unlock()
		os.Remove(d.path(e.key))
		d.evictions.Add(1)
	}
}

// Stats snapshots the tier counters. Bytes counts file bytes (frame
// included), the honest disk footprint.
func (d *diskStore) Stats() tierStats {
	d.mu.Lock()
	bytes, entries := d.bytes, len(d.entries)
	d.mu.Unlock()
	return tierStats{
		Tier:      "disk",
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Puts:      d.puts.Load(),
		Evictions: d.evictions.Load(),
		Errors:    d.errors.Load(),
		Bytes:     bytes,
		Entries:   entries,
	}
}

// Recovered reports the startup scan's outcome: entries restored and
// corrupt/stray files deleted.
func (d *diskStore) Recovered() (valid, dropped int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.scanned, d.dropped
}

func (d *diskStore) Close() error { return nil }
