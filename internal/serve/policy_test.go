package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"gsched/internal/policy"
)

// Two spellings of the same policy (they parse to one canonical form)
// must share a cache entry, while a semantically different policy — or
// no policy at all — must not.
func TestSchedulePolicyCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	tidy := policy.DefaultSource
	messy := strings.ReplaceAll(strings.ReplaceAll(tidy, ", ", " ,\n\t"), " - ", "-")
	if a, b := policy.MustParse(tidy).Canonical(), policy.MustParse(messy).Canonical(); a != b {
		t.Fatalf("test premise broken: spellings canonicalize differently:\n%s\n%s", a, b)
	}

	do := func(pol string) (*http.Response, []byte) {
		t.Helper()
		resp, body := post(t, ts, &Request{Source: testSrc, Level: "speculative", Policy: pol})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("policy %q: status %d: %s", pol, resp.StatusCode, body)
		}
		return resp, body
	}

	// Prime the cache without a policy; a policy-bearing request for the
	// same program must be a distinct entry even when the policy encodes
	// the built-in §5.2 order (the key hangs off the request, not the
	// bytes — and the bytes are indeed identical).
	resp, noPolBody := do("")
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request: X-Cache = %q, want miss", got)
	}
	resp, missBody := do(tidy)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("policy after no-policy: X-Cache = %q, want miss (policy must join the key)", got)
	}
	if !bytes.Equal(missBody, noPolBody) {
		t.Errorf("default §5.2 policy changed the schedule bytes")
	}

	// The other spelling of the same policy is a hit, byte-identical.
	resp, hitBody := do(messy)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("equivalent spelling: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hitBody, missBody) {
		t.Errorf("hit bytes differ from miss bytes:\n--- hit ---\n%s\n--- miss ---\n%s", hitBody, missBody)
	}

	// A semantically different policy misses.
	resp, _ = do("priority = tiers(y.class - x.class, x.d - y.d, y.pos - x.pos)")
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different policy: X-Cache = %q, want miss", got)
	}
}

// An unparseable policy is the client's fault: 400, with the parser's
// diagnostic in the body.
func TestScheduleBadPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, &Request{Source: testSrc, Policy: "priority = tiers("})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "policy") {
		t.Errorf("diagnostic does not mention the policy: %s", body)
	}
}
