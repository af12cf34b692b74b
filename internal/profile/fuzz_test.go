package profile

import (
	"strings"
	"testing"
)

// FuzzProfile feeds arbitrary text to the profile parser. Parse must
// never panic: it either rejects the input or produces a profile whose
// canonical form re-parses to an identical profile (the round-trip
// fixpoint the serving daemon's cache keys rely on). Run with
//
//	go test -fuzz=FuzzProfile ./internal/profile
func FuzzProfile(f *testing.F) {
	f.Add(header + "\n")
	f.Add(header + "\nmain 3 10 2\nmain 9 0 7\n")
	f.Add(header + "\n# comment\n\ndispatch 14 9223372036854775807 0\n")
	f.Add(header + "\nf 1 2 3\nf 1 4 5\n") // repeated key accumulates
	f.Add("gsched-profile v2\nf 1 2 3\n")  // wrong version
	f.Add(header + "\nf -1 2 3\n")
	f.Add(header + "\nf 1 -2 3\nf")
	f.Add(strings.Repeat(header+"\n", 3))
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		canon := p.Canonical()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		if got := q.Canonical(); got != canon {
			t.Fatalf("canonicalization is not a fixpoint:\n%q\nvs\n%q", canon, got)
		}
		for k, c := range p.Edges {
			if q.Edges[k] != c {
				t.Fatalf("counts for %v changed across round trip: %+v vs %+v", k, c, q.Edges[k])
			}
		}
		if len(q.Edges) != len(p.Edges) {
			t.Fatalf("edge count changed across round trip: %d vs %d", len(p.Edges), len(q.Edges))
		}
	})
}
