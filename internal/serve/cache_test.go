package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

func mustResolve(t *testing.T, req *Request) *job {
	t.Helper()
	j, err := resolve(req, false)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// Two textually different but ir.EqualPrograms-equal assembly inputs —
// different comments, a trailing unlabeled empty block — must produce
// the same content address.
func TestCacheKeyCanonicalization(t *testing.T) {
	a := mustResolve(t, &Request{Lang: "asm", Source: `
func f r1:
	LI r2=1	; produce the constant
	A r3=r1,r2
	RET r3
`})
	// Same program: different comment, extra blank lines (the parser
	// renumbers instruction IDs either way).
	b := mustResolve(t, &Request{Lang: "asm", Source: `
func f r1:

	LI r2=1
	A r3=r1,r2	; a different annotation

	RET r3
`})
	if a.key != b.key {
		t.Error("EqualPrograms-equal inputs produced different cache keys")
	}
}

// Differing machine descriptions must miss, and a renamed but otherwise
// identical machine must hit.
func TestCacheKeyMachineSensitivity(t *testing.T) {
	base := &Request{Lang: "asm", Source: "func f r1:\n\tRET r1\n"}
	k0 := mustResolve(t, base).key

	wide := *base
	wide.Machine = json.RawMessage(`"4x2"`)
	if mustResolve(t, &wide).key == k0 {
		t.Error("different machine produced the same cache key")
	}

	custom := *base
	// rs6k's parameters under a different name: semantically the same
	// machine, so the key must match the default.
	custom.Machine = json.RawMessage(`{
		"Name": "my-rs6k", "NumUnits": [1, 1, 1],
		"MulTime": 5, "DivTime": 19,
		"LoadDelay": 1, "CmpBranchDelay": 3,
		"FloatDelay": 1, "FloatCmpBranchDelay": 5
	}`)
	if mustResolve(t, &custom).key != k0 {
		t.Error("renamed-but-identical machine produced a different cache key")
	}
}

// Differing semantic options must miss; Parallelism-like knobs that
// cannot change the schedule are excluded by construction.
func TestCacheKeyOptionSensitivity(t *testing.T) {
	base := &Request{Lang: "asm", Source: "func f r1:\n\tRET r1\n"}
	k0 := mustResolve(t, base).key

	mods := map[string]*Request{
		"level":    {Lang: "asm", Source: base.Source, Level: "useful"},
		"verify":   {Lang: "asm", Source: base.Source, Verify: true},
		"pipeline": {Lang: "asm", Source: base.Source, Pipeline: new(bool)}, // false
		"rename":   {Lang: "asm", Source: base.Source, Options: &OptionsPatch{Rename: new(bool)}},
		"dup":      {Lang: "asm", Source: base.Source, Options: &OptionsPatch{Duplicate: boolp(true)}},
		"simulate": {Lang: "asm", Source: base.Source, Simulate: &SimRequest{Entry: "f", Args: []int64{3}}},
	}
	for name, req := range mods {
		if mustResolve(t, req).key == k0 {
			t.Errorf("%s: option change produced the same cache key", name)
		}
	}
	// Different simulate args are different results.
	s1 := mustResolve(t, &Request{Lang: "asm", Source: base.Source, Simulate: &SimRequest{Entry: "f", Args: []int64{3}}})
	s2 := mustResolve(t, &Request{Lang: "asm", Source: base.Source, Simulate: &SimRequest{Entry: "f", Args: []int64{4}}})
	if s1.key == s2.key {
		t.Error("different simulate args produced the same cache key")
	}
}

func boolp(b bool) *bool { return &b }

// End to end: two different C spellings that compile to the same IR
// must share one cache entry (the second request is a hit).
func TestCacheHitAcrossEquivalentSources(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Identical token stream, different whitespace and comments: the
	// mini-C front end emits identical IR for both.
	r1, _ := post(t, ts, &Request{Source: "int main(int a) { return a + 1; }"})
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, _ := post(t, ts, &Request{Source: "int main(int a) {\n\treturn a + 1;   \n}\n"})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d", r2.StatusCode)
	}
	if r2.Header.Get("X-Cache") != "hit" {
		t.Errorf("equivalent source missed the cache (X-Cache %q)", r2.Header.Get("X-Cache"))
	}
}

// TestCacheEvictionUnderPressure pins the accounted-bytes eviction
// policy: entries charge body + key + fixed overhead, so a cap that
// would hold every raw body must still evict once the accounted sizes
// overflow, and the accounted total must never exceed the cap.
func TestCacheEvictionUnderPressure(t *testing.T) {
	const cap = 1024
	body := bytes.Repeat([]byte{'x'}, 48)
	// 10 bodies are 480 raw bytes — under the cap — but each entry
	// accounts 48+32+128 = 208 bytes, so only four fit.
	if cost := entryCost(body); cost != 208 {
		t.Fatalf("entryCost(48-byte body) = %d, want 208", cost)
	}
	c := newMemCache(cap)
	var keys [10]cacheKey
	for i := range keys {
		keys[i][0] = byte(i)
		c.Put(keys[i], body)
	}

	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions despite accounted overflow")
	}
	if st.Bytes > cap {
		t.Errorf("accounted bytes %d exceed the %d cap", st.Bytes, cap)
	}
	if want := int(cap / entryCost(body)); st.Entries != want {
		t.Errorf("entries = %d, want %d", st.Entries, want)
	}
	if _, ok := c.Peek(keys[len(keys)-1]); !ok {
		t.Error("newest entry was evicted")
	}
	if _, ok := c.Peek(keys[0]); ok {
		t.Error("oldest entry survived LRU eviction")
	}

	// A body whose accounted cost alone exceeds the cap is refused, and
	// refusing it neither evicts nor changes the accounted size.
	before := c.Stats()
	c.Put(cacheKey{0xff}, bytes.Repeat([]byte{'y'}, cap))
	if _, ok := c.Peek(cacheKey{0xff}); ok {
		t.Error("oversized body was cached")
	}
	if after := c.Stats(); after.Bytes != before.Bytes || after.Evictions != before.Evictions {
		t.Errorf("refused Put changed state: %+v -> %+v", before, after)
	}
}

// The memory tier holds bodies compressed: every size must come back
// byte-exact, each Get and Peek must hand out a copy the caller may
// modify, and the byte cap must charge the uncompressed size.
func TestCacheCompressedRoundTrip(t *testing.T) {
	big := make([]byte, 70<<10)
	for i := range big {
		big[i] = byte(i*i>>7) ^ byte(i)
	}
	c := newMemCache(0)
	for i, body := range [][]byte{{}, {'x'}, big} {
		key := cacheKey{byte(i)}
		c.Put(key, body)
		for _, lookup := range []func(cacheKey) ([]byte, bool){c.Get, c.Peek} {
			got, ok := lookup(key)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("%d-byte body: got %d bytes, ok=%t", len(body), len(got), ok)
			}
			if len(got) > 0 {
				got[0]++
			}
		}
		if again, _ := c.Get(key); !bytes.Equal(again, body) {
			t.Errorf("%d-byte body: modifying a returned slice changed the stored body", len(body))
		}
	}
	st := c.Stats()
	if want := entryCost(nil) + entryCost([]byte{'x'}) + entryCost(big); st.Bytes != want {
		t.Errorf("accounted bytes %d, want the uncompressed %d", st.Bytes, want)
	}
	if st.Resident <= 0 || st.Resident >= st.Bytes {
		t.Errorf("resident bytes %d, want in (0, %d)", st.Resident, st.Bytes)
	}
}
