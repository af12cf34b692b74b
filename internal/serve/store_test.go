package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"gsched/internal/progen"
)

func testKey(i int) Key {
	return sha256.Sum256(fmt.Appendf(nil, "test-key-%d", i))
}

func mustDisk(t *testing.T, dir string, maxBytes int64) *DiskStore {
	t.Helper()
	d, err := NewDiskStore(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d := mustDisk(t, t.TempDir(), 0)
	ctx := context.Background()
	key, body := testKey(1), []byte(`{"result":"schedule"}`)

	if _, ok := d.Get(ctx, key); ok {
		t.Fatal("got body before any put")
	}
	d.Put(ctx, key, body)
	got, ok := d.Get(ctx, key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, body)
	}
	if got, ok := d.Peek(ctx, key); !ok || !bytes.Equal(got, body) {
		t.Fatalf("Peek = %q, %v; want %q", got, ok, body)
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put, 1 entry", st)
	}
	if want := int64(frameHeaderSize + len(body)); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d (frame included)", st.Bytes, want)
	}
}

// TestDiskStoreWarmRestart proves the tier survives a clean process
// boundary: a second store over the same directory serves the first
// store's entries.
func TestDiskStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d1 := mustDisk(t, dir, 0)
	for i := 0; i < 10; i++ {
		d1.Put(ctx, testKey(i), fmt.Appendf(nil, "body-%d", i))
	}
	d1.Close()

	d2 := mustDisk(t, dir, 0)
	valid, dropped := d2.Recovered()
	if valid != 10 || dropped != 0 {
		t.Fatalf("recovered %d valid, %d dropped; want 10, 0", valid, dropped)
	}
	for i := 0; i < 10; i++ {
		got, ok := d2.Get(ctx, testKey(i))
		if !ok || !bytes.Equal(got, fmt.Appendf(nil, "body-%d", i)) {
			t.Fatalf("key %d: Get = %q, %v after restart", i, got, ok)
		}
	}
}

// TestDiskStoreRecoveryScanDropsCorrupt crashes mid-write in every way
// we can fake — truncated entry, flipped body byte, bad magic, leftover
// temp file, stray non-entry file — and checks the startup scan deletes
// them all and never serves them.
func TestDiskStoreRecoveryScanDropsCorrupt(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d1 := mustDisk(t, dir, 0)
	for i := 0; i < 5; i++ {
		d1.Put(ctx, testKey(i), fmt.Appendf(nil, "body-%d", i))
	}
	d1.Close()

	corrupt := func(key Key, mutate func([]byte) []byte) string {
		p := d1.path(key)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Torn write: file cut mid-body.
	p0 := corrupt(testKey(0), func(raw []byte) []byte { return raw[:len(raw)-3] })
	// Bit rot: one body byte flipped (checksum catches it).
	p1 := corrupt(testKey(1), func(raw []byte) []byte {
		raw[frameHeaderSize] ^= 0x40
		return raw
	})
	// Wrong format entirely.
	p2 := corrupt(testKey(2), func(raw []byte) []byte { return []byte("not a frame") })
	// A write in progress at crash time, and a stray file.
	shard := filepath.Dir(d1.path(testKey(0)))
	tmp := filepath.Join(shard, ".tmp-123456")
	if err := os.WriteFile(tmp, []byte("half a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(shard, "notes.txt")
	if err := os.WriteFile(stray, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustDisk(t, dir, 0)
	valid, dropped := d2.Recovered()
	if valid != 2 || dropped != 5 {
		t.Fatalf("recovered %d valid, %d dropped; want 2 valid (keys 3,4), 5 dropped", valid, dropped)
	}
	for _, p := range []string{p0, p1, p2, tmp, stray} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s still exists after recovery scan", p)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := d2.Get(ctx, testKey(i)); ok {
			t.Errorf("corrupt key %d was served", i)
		}
	}
	for i := 3; i < 5; i++ {
		got, ok := d2.Get(ctx, testKey(i))
		if !ok || !bytes.Equal(got, fmt.Appendf(nil, "body-%d", i)) {
			t.Errorf("intact key %d lost: %q, %v", i, got, ok)
		}
	}
}

// TestDiskStoreCorruptionAtReadTime covers rot after the scan: the
// read path re-verifies the frame, deletes the bad file and reports a
// miss.
func TestDiskStoreCorruptionAtReadTime(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := mustDisk(t, dir, 0)
	key := testKey(42)
	d.Put(ctx, key, []byte("pristine"))

	p := d.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if body, ok := d.Get(ctx, key); ok {
		t.Fatalf("served corrupt body %q", body)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt file not deleted at read time")
	}
	if st := d.Stats(); st.Errors != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want 1 error, 0 entries", st)
	}
}

func TestDiskStoreEviction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	body := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(frameHeaderSize + len(body))
	d := mustDisk(t, dir, 3*entrySize)

	for i := 0; i < 5; i++ {
		d.Put(ctx, testKey(i), body)
	}
	st := d.Stats()
	if st.Evictions != 2 || st.Entries != 3 || st.Bytes > 3*entrySize {
		t.Fatalf("stats = %+v; want 2 evictions, 3 entries, <= %d bytes", st, 3*entrySize)
	}
	// Oldest two went; the files must be gone too.
	for i := 0; i < 2; i++ {
		if _, ok := d.Get(ctx, testKey(i)); ok {
			t.Errorf("evicted key %d still served", i)
		}
		if _, err := os.Stat(d.path(testKey(i))); !os.IsNotExist(err) {
			t.Errorf("evicted key %d's file still on disk", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := d.Get(ctx, testKey(i)); !ok {
			t.Errorf("resident key %d missing", i)
		}
	}
}

// TestServerDiskWarmRestart is the end-to-end crash-recovery property:
// a server over a cache directory computes a working set, dies, and
// its successor over the same directory serves every key from disk —
// zero pipeline executions, X-Cache: disk, byte-identical bodies.
func TestServerDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, CacheDir: dir}

	s1, ts1 := newTestServer(t, cfg)
	var reqs [][]byte
	var want [][]byte
	for i := 0; i < 4; i++ {
		body, err := json.Marshal(&Request{Source: progen.New(int64(300 + i)).Source})
		if err != nil {
			t.Fatal(err)
		}
		code, _, respBody, err := postSchedule(ts1.URL, body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("warm-up request %d: code %d, err %v", i, code, err)
		}
		reqs = append(reqs, body)
		want = append(want, respBody)
	}
	if runs := s1.runs.Load(); runs != 4 {
		t.Fatalf("first server ran %d pipelines, want 4", runs)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, cfg)
	for i, body := range reqs {
		code, cache, respBody, err := postSchedule(ts2.URL, body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("restart request %d: code %d, err %v", i, code, err)
		}
		if cache != "disk" {
			t.Errorf("request %d: X-Cache = %q, want \"disk\"", i, cache)
		}
		if !bytes.Equal(respBody, want[i]) {
			t.Errorf("request %d: body differs across restart", i)
		}
	}
	if runs := s2.runs.Load(); runs != 0 {
		t.Fatalf("restarted server ran %d pipelines, want 0 (all disk hits)", runs)
	}
	stats := storeStats(s2)
	var disk *StoreStats
	for i := range stats {
		if stats[i].Tier == "disk" {
			disk = &stats[i]
		}
	}
	if disk == nil || disk.Hits != 4 {
		t.Fatalf("disk tier stats = %+v; want 4 hits", stats)
	}
}

// storeStats snapshots every store tier of s (nil when caching is
// disabled); /metrics exports the same counters.
func storeStats(s *Server) []StoreStats {
	if s.store == nil {
		return nil
	}
	return s.store.Stats()
}
