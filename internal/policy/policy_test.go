package policy

import (
	"math"
	"strings"
	"testing"
)

// eval compiles a priority expression and evaluates it on x, y.
func eval(t *testing.T, src string, x, y *Features) float64 {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return p.Priority(x, y)
}

func TestSemantics(t *testing.T) {
	var x, y Features
	x[FeatD], y[FeatD] = 3, 5
	x[FeatProb], y[FeatProb] = 0.9, 0.2
	cases := []struct {
		src  string
		want float64
	}{
		{"x.d + y.d", 8},
		{"x.d - y.d", -2},
		{"x.d * y.d", 15},
		{"y.d / x.d", 5.0 / 3},
		{"x.d / 0", 0},          // total division
		{"0 / 0", 0},            //
		{"x.d < y.d", 1},        // comparisons are 1/0
		{"x.d >= y.d", 0},       //
		{"x.d == 3", 1},         //
		{"x.d != 3", 0},         //
		{"1 && 0", 0},           // booleans over non-zero
		{"1 || 0", 1},           //
		{"!5", 0},               //
		{"!0", 1},               //
		{"-x.d", -3},            //
		{"min(x.d, y.d, 4)", 3}, //
		{"max(x.d, y.d, 4)", 5}, //
		{"abs(x.d - y.d)", 2},
		{"sign(x.d - y.d)", -1},
		{"sign(0)", 0},
		{"select(x.prob > y.prob, 7, 9)", 7},
		{"select(x.prob < y.prob, 7, 9)", 9},
		{"tiers(0, 0, 4, 5)", 4},
		{"tiers(0, 0)", 0},
		{"tiers(0 / 0, 2)", 2}, // NaN tiers are skipped
		{"0x10", 16},           // integer spellings
		{"2.5e1", 25},
	}
	for _, c := range cases {
		if got := eval(t, c.src, &x, &y); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestCanonicalAliases(t *testing.T) {
	pairs := [][2]string{
		{"x.height - y.height", "x.cp - y.cp"},
		{"(x.d) - ((y.d))", "x.d - y.d"},
		{"priority = x.d", "x.d"},
		{"x.taken_prob", "x.prob"},
		{"gate = height + taken_prob", "gate = cp + prob"},
		{"x.d - y.d\ngate = prob", "priority = x.d - y.d; gate = prob"},
	}
	for _, pr := range pairs {
		a, err := Parse(pr[0])
		if err != nil {
			t.Fatalf("%q: %v", pr[0], err)
		}
		b, err := Parse(pr[1])
		if err != nil {
			t.Fatalf("%q: %v", pr[1], err)
		}
		if a.Canonical() != b.Canonical() {
			t.Errorf("%q and %q canonicalise apart:\n%s\n%s", pr[0], pr[1], a.Canonical(), b.Canonical())
		}
		if a != b {
			t.Errorf("%q and %q did not share one cached policy", pr[0], pr[1])
		}
		if a.Hash() != b.Hash() {
			t.Errorf("hash mismatch for equivalent spellings")
		}
	}
}

func TestCanonicalFixpoint(t *testing.T) {
	srcs := []string{
		DefaultSource,
		"x.d*2 + -3*(y.cp/4)",
		"gate = !is_load || d >= 0.25",
		"priority = min(x.d, 1e-7)\ngate = prob >= 0.15",
		"select(x.spec && x.prob > 0.5, 1, -1)",
	}
	for _, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		c := p.Canonical()
		p2, err := Parse(c)
		if err != nil {
			t.Fatalf("canonical %q does not reparse: %v", c, err)
		}
		if p2.Canonical() != c {
			t.Errorf("canonical not a fixpoint:\n%q\n%q", c, p2.Canonical())
		}
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",                           // empty
		"x.bogus",                    // unknown feature
		"bogus",                      // unknown identifier in pair context
		"d - cp",                     // bare feature in priority context
		"gate = x.prob",              // selector in gate context
		"x.d % y.d",                  // unsupported operator
		`"str"`,                      // unsupported literal
		"x.d << 1",                   // unsupported operator
		"z.d",                        // bad selector base
		"foo(x.d)",                   // unknown function
		"abs(x.d, y.d)",              // wrong arity
		"select(1, 2)",               // wrong arity
		"priority = 1; priority = 2", // duplicate statement
		"x.d; y.d",                   // two bare expressions
		"other = 1",                  // unknown statement
		"priority := 1",              // only plain assignment
		"for {}",                     // not an expression statement
		"1e999",                      // out-of-range literal
		"func() {}",                  // nested function
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: accepted, want error", src)
		}
	}
}

func TestGate(t *testing.T) {
	p, err := Parse("gate = prob >= 0.5 && !is_load")
	if err != nil {
		t.Fatal(err)
	}
	if p.HasPriority() {
		t.Error("gate-only program claims a priority")
	}
	var f Features
	f[FeatProb] = 0.7
	if !p.Gate(&f) {
		t.Error("prob=0.7 non-load rejected")
	}
	f[FeatIsLoad] = 1
	if p.Gate(&f) {
		t.Error("load admitted against !is_load")
	}
	// A policy without a gate admits everything.
	p2 := MustParse("x.d - y.d")
	if !p2.Gate(&f) {
		t.Error("gateless policy rejected a candidate")
	}
}

func TestCompareTiebreak(t *testing.T) {
	p := MustParse(DefaultSource)
	var x, y Features
	// Equal on every feature: fall back to program order.
	if got := p.Compare(&x, &y, 2, 5); got >= 0 {
		t.Errorf("equal candidates: Compare = %d, want negative (pos order)", got)
	}
	if got := p.Compare(&x, &y, 5, 2); got <= 0 {
		t.Errorf("equal candidates: Compare = %d, want positive", got)
	}
	x[FeatD] = 4
	y[FeatD] = 1
	if got := p.Compare(&x, &y, 5, 2); got >= 0 {
		t.Errorf("bigger D must win: Compare = %d", got)
	}
}

func TestRandomDeterministicAndValid(t *testing.T) {
	sawGate := false
	for seed := int64(0); seed < 64; seed++ {
		a, b := Random(seed), Random(seed)
		if a.Canonical() != b.Canonical() {
			t.Fatalf("seed %d: Random is not deterministic", seed)
		}
		if !a.HasPriority() {
			t.Fatalf("seed %d: no priority tier", seed)
		}
		if a.HasGate() {
			sawGate = true
		}
		// Round-trip through the canonical form.
		if rt := MustParse(a.Canonical()); rt.Canonical() != a.Canonical() {
			t.Fatalf("seed %d: canonical not a fixpoint", seed)
		}
	}
	if !sawGate {
		t.Error("no seed in [0,64) produced a gate; generator gate arm looks dead")
	}
	if Random(1).Canonical() == Random(2).Canonical() {
		t.Error("seeds 1 and 2 produced identical policies")
	}
}

func TestPriorityTotality(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	vecs := []Features{{}, {nan, nan, nan, nan}, {inf, -inf, inf, -inf}}
	srcs := []string{DefaultSource, "x.d / y.d", "tiers(x.d / 0, 0 / 0, x.cp)"}
	for _, src := range srcs {
		p := MustParse(src)
		for i := range vecs {
			for j := range vecs {
				v1 := p.Priority(&vecs[i], &vecs[j])
				v2 := p.Priority(&vecs[i], &vecs[j])
				if math.Float64bits(v1) != math.Float64bits(v2) {
					t.Errorf("%q: non-deterministic evaluation", src)
				}
			}
		}
	}
}

func TestNames(t *testing.T) {
	for _, want := range []string{"d", "cp", "height", "slack", "taken_prob", "specdeg"} {
		if _, ok := featureIndex[want]; !ok {
			t.Errorf("feature spelling %q is not accepted", want)
		}
	}
	if !strings.Contains(DefaultSource, "tiers") {
		t.Error("DefaultSource lost its tiers structure")
	}
}
