package machine

import (
	"testing"

	"gsched/internal/ir"
)

func TestCanonicalIgnoresName(t *testing.T) {
	a, b := RS6K(), RS6K()
	b.Name = "renamed"
	if a.Canonical() != b.Canonical() {
		t.Errorf("renaming changed the canonical form: %q vs %q", a.Canonical(), b.Canonical())
	}
}

func TestCanonicalDistinguishesSemantics(t *testing.T) {
	base := RS6K()
	mods := map[string]func(*Desc){
		"units":     func(d *Desc) { d.NumUnits[ir.UnitFixed] = 2 },
		"mul":       func(d *Desc) { d.MulTime++ },
		"div":       func(d *Desc) { d.DivTime++ },
		"load":      func(d *Desc) { d.LoadDelay++ },
		"cmpbr":     func(d *Desc) { d.CmpBranchDelay++ },
		"float":     func(d *Desc) { d.FloatDelay++ },
		"fcmpbr":    func(d *Desc) { d.FloatCmpBranchDelay++ },
		"takenonly": func(d *Desc) { d.TakenOnlyBranchDelay = true },
	}
	for name, mod := range mods {
		d := *base
		mod(&d)
		if d.Canonical() == base.Canonical() {
			t.Errorf("%s: modification not reflected in canonical form %q", name, base.Canonical())
		}
	}
}
