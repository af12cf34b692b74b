package machine

import (
	"fmt"
	"io"
	"strings"

	"gsched/internal/ir"
)

// Canonical renders the semantically meaningful parameters of d as a
// deterministic single-line string, for use in content-addressed cache
// keys. The Name is deliberately excluded: two descriptions that differ
// only in their label schedule every program identically, so they must
// hash to the same key. Every field that can change a schedule or a
// simulated cycle count is included.
func (d *Desc) Canonical() string {
	var sb strings.Builder
	d.CanonicalTo(&sb)
	return sb.String()
}

// CanonicalTo streams the canonical form into w (typically a hash).
// Write errors are ignored: the intended sinks cannot fail.
func (d *Desc) CanonicalTo(w io.Writer) {
	fmt.Fprintf(w, "units=%d/%d/%d", d.NumUnits[ir.UnitFixed], d.NumUnits[ir.UnitFloat], d.NumUnits[ir.UnitBranch])
	fmt.Fprintf(w, " mul=%d div=%d", d.MulTime, d.DivTime)
	fmt.Fprintf(w, " dload=%d dcmpbr=%d dfloat=%d dfcmpbr=%d",
		d.LoadDelay, d.CmpBranchDelay, d.FloatDelay, d.FloatCmpBranchDelay)
	fmt.Fprintf(w, " takenonly=%t", d.TakenOnlyBranchDelay)
}
