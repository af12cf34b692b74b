package profile

import (
	"strings"
	"testing"
)

func TestCountsAndProbabilities(t *testing.T) {
	p := New()
	for k := 0; k < 30; k++ {
		p.Record("f", 7, true)
	}
	for k := 0; k < 10; k++ {
		p.Record("f", 7, false)
	}
	c := p.Branch("f", 7)
	if c.Taken != 30 || c.NotTaken != 10 || c.Total() != 40 {
		t.Errorf("counts = %+v", c)
	}
	if got := c.TakenProb(); got != 0.75 {
		t.Errorf("TakenProb = %v, want 0.75", got)
	}
	// Unknown branches are uninformative.
	if got := p.Branch("f", 99).TakenProb(); got != 0.5 {
		t.Errorf("unknown branch prob = %v, want 0.5", got)
	}
	if got := p.Branch("g", 7).TakenProb(); got != 0.5 {
		t.Errorf("other function prob = %v, want 0.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var p *Profile
	if got := p.Branch("f", 1).TakenProb(); got != 0.5 {
		t.Errorf("nil profile prob = %v, want 0.5", got)
	}
}

func TestCanonicalParseRoundTrip(t *testing.T) {
	p := New()
	p.Record("b", 2, true)
	for k := 0; k < 5; k++ {
		p.Record("a", 9, false)
	}
	p.Record("a", 1, true)
	p.Record("a", 1, false)

	text := p.Canonical()
	if !strings.HasPrefix(text, header+"\n") {
		t.Fatalf("canonical form missing header:\n%s", text)
	}
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(Canonical()): %v", err)
	}
	if q.Canonical() != text {
		t.Errorf("round trip not identical:\n%s\nvs\n%s", text, q.Canonical())
	}
	if c := q.Branch("a", 9); c.NotTaken != 5 || c.Taken != 0 {
		t.Errorf("a/9 = %+v", c)
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	build := func(order []int) string {
		p := New()
		for _, i := range order {
			p.Record("f", i, i%2 == 0)
		}
		return p.Canonical()
	}
	if a, b := build([]int{3, 1, 2}), build([]int{2, 3, 1}); a != b {
		t.Errorf("canonical form depends on insertion order:\n%s\nvs\n%s", a, b)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                                        // no header
		"gsched-profile v2\n",                     // wrong version
		header + "\nf 1 2\n",                      // short line
		header + "\nf 1 2 3 4\n",                  // long line
		header + "\nf x 2 3\n",                    // bad id
		header + "\nf -1 2 3\n",                   // negative id
		header + "\nf 1 -2 3\n",                   // negative taken
		header + "\nf 1 2 -3\n",                   // negative not-taken
		header + "\nf 1 99999999999999999999 0\n", // overflow int64
		header + "\nf 1 9223372036854775807 0\nf 1 1 0\n", // accumulate overflow
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestParseAcceptsCommentsAndAccumulates(t *testing.T) {
	p, err := Parse(header + "\n# comment\n\nf 1 2 3\nf 1 1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Branch("f", 1); c.Taken != 3 || c.NotTaken != 4 {
		t.Errorf("accumulated counts = %+v", c)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Record("f", 1, true)
	b.Record("f", 1, false)
	b.Record("g", 2, true)
	a.Merge(b)
	if c := a.Branch("f", 1); c.Taken != 1 || c.NotTaken != 1 {
		t.Errorf("f/1 = %+v", c)
	}
	if c := a.Branch("g", 2); c.Taken != 1 {
		t.Errorf("g/2 = %+v", c)
	}
	a.Merge(nil) // must not panic
}

func TestStringSorted(t *testing.T) {
	p := New()
	p.Record("b", 2, true)
	p.Record("a", 9, false)
	p.Record("a", 1, true)
	s := p.String()
	ia, ib := strings.Index(s, "a/1"), strings.Index(s, "b/2")
	i9 := strings.Index(s, "a/9")
	if !(ia >= 0 && i9 > ia && ib > i9) {
		t.Errorf("not sorted:\n%s", s)
	}
}
