package asm

import (
	"strings"
	"testing"

	"gsched/internal/ir"
)

// canonical is CanonicalTo into a string.
func canonical(p *ir.Program) string {
	var sb strings.Builder
	CanonicalTo(&sb, p)
	return sb.String()
}

// Two textually different sources that are ir.EqualPrograms-equal must
// canonicalize identically: comments differ, instruction IDs are
// assigned in different orders, and one version carries an unlabeled
// empty block.
func TestCanonicalNormalizesEqualPrograms(t *testing.T) {
	a, err := Parse(`
func f r1:
	LI r2=1	; produce the constant
	A r3=r1,r2
	RET r3
`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(`
func f r1:
	LI r2=1
	A r3=r1,r2	; different annotation
	RET r3
`)
	if err != nil {
		t.Fatal(err)
	}
	// Skew b's instruction IDs and append an unlabeled empty block:
	// neither carries program meaning.
	for _, f := range b.Funcs {
		f.Instrs(func(_ *ir.Block, i *ir.Instr) { i.ID += 100 })
		f.Blocks = append(f.Blocks, &ir.Block{})
	}
	if !ir.EqualPrograms(a, b) {
		t.Fatal("test setup: programs should be EqualPrograms-equal")
	}
	ca, cb := canonical(a), canonical(b)
	if ca != cb {
		t.Errorf("canonical forms differ:\n--- a ---\n%s--- b ---\n%s", ca, cb)
	}
	if strings.Contains(ca, ";") {
		t.Errorf("canonical form still contains a comment:\n%s", ca)
	}
}

// Canonical must keep every distinction EqualPrograms keeps: a changed
// operand or symbol changes the canonical form.
func TestCanonicalPreservesDifferences(t *testing.T) {
	a, err := Parse("func f r1:\n\tLI r2=1\n\tRET r2\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("func f r1:\n\tLI r2=2\n\tRET r2\n")
	if err != nil {
		t.Fatal(err)
	}
	if canonical(a) == canonical(b) {
		t.Error("programs with different immediates canonicalize identically")
	}
}

// Canonical of a parsed program must round-trip: parsing the canonical
// form and canonicalizing again is a fixed point.
func TestCanonicalRoundTrip(t *testing.T) {
	p, err := Parse("data g 4 = 1 2\nfunc f r1:\n\tL r2=g(r1,0)\t; load\n\tRET r2\n")
	if err != nil {
		t.Fatal(err)
	}
	c1 := canonical(p)
	p2, err := Parse(c1)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, c1)
	}
	if c2 := canonical(p2); c1 != c2 {
		t.Errorf("canonical form is not a fixed point:\n--- first ---\n%s--- second ---\n%s", c1, c2)
	}
}
