// Package profile holds edge profiles: per-branch taken/not-taken
// counts gathered by the simulator. The paper points out (§1) that
// global scheduling "is capable of taking advantage of the branch
// probabilities, whenever available (e.g. computed by profiling)" — the
// scheduler consumes these profiles to avoid speculating into rarely
// executed blocks, and the superblock former (internal/xform) to pick
// hot traces for tail duplication.
//
// Profiles have a canonical text form so they can travel: one header
// line "gsched-profile v1", then one line per branch,
//
//	<func> <instrID> <taken> <notTaken>
//
// sorted by function name and instruction ID. Canonical and Parse round
// trip exactly; the serving daemon hashes the canonical form into its
// content-addressed cache keys.
package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Key identifies one conditional branch instruction.
type Key struct {
	Func    string
	InstrID int
}

// Counts records the two outcomes of a branch.
type Counts struct {
	NotTaken int64
	Taken    int64
}

// Total returns the number of executions.
func (c Counts) Total() int64 { return c.NotTaken + c.Taken }

// TakenProb returns the empirical probability the branch is taken;
// branches never executed report 0.5 (no information).
func (c Counts) TakenProb() float64 {
	t := c.Total()
	if t == 0 {
		return 0.5
	}
	return float64(c.Taken) / float64(t)
}

// Profile maps branches to outcome counts.
type Profile struct {
	Edges map[Key]Counts
}

// New returns an empty profile.
func New() *Profile { return &Profile{Edges: make(map[Key]Counts)} }

// Record adds one observation.
func (p *Profile) Record(fn string, instrID int, taken bool) {
	k := Key{Func: fn, InstrID: instrID}
	c := p.Edges[k]
	if taken {
		c.Taken++
	} else {
		c.NotTaken++
	}
	p.Edges[k] = c
}

// Branch returns the counts for a branch (zero counts if never seen).
func (p *Profile) Branch(fn string, instrID int) Counts {
	if p == nil || p.Edges == nil {
		return Counts{}
	}
	return p.Edges[Key{Func: fn, InstrID: instrID}]
}

// Len returns the number of branches with recorded outcomes.
func (p *Profile) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Edges)
}

// Merge adds every count of other into p.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for k, c := range other.Edges {
		cur := p.Edges[k]
		cur.Taken += c.Taken
		cur.NotTaken += c.NotTaken
		p.Edges[k] = cur
	}
}

// header is the first line of the canonical text form.
const header = "gsched-profile v1"

// sortedKeys returns the branch keys in canonical order.
func (p *Profile) sortedKeys() []Key {
	keys := make([]Key, 0, len(p.Edges))
	for k := range p.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Func != keys[j].Func {
			return keys[i].Func < keys[j].Func
		}
		return keys[i].InstrID < keys[j].InstrID
	})
	return keys
}

// AppendCanonical appends the canonical text form to b and returns the
// extended slice. Equal profiles produce equal bytes, so the form is
// safe to hash into content-addressed cache keys.
func (p *Profile) AppendCanonical(b []byte) []byte {
	b = append(b, header...)
	b = append(b, '\n')
	if p == nil {
		return b
	}
	for _, k := range p.sortedKeys() {
		c := p.Edges[k]
		b = append(b, k.Func...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(k.InstrID), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.Taken, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.NotTaken, 10)
		b = append(b, '\n')
	}
	return b
}

// Canonical renders the canonical text form (see the package comment).
func (p *Profile) Canonical() string {
	return string(p.AppendCanonical(nil))
}

// Parse reads the canonical text form back into a Profile. It accepts
// exactly what Canonical emits, modulo blank lines, '#' comment lines,
// repeated keys (counts accumulate) and unsorted order; everything else
// is an error. Counts must be non-negative and totals must not
// overflow.
func Parse(src string) (*Profile, error) {
	lines := strings.Split(src, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != header {
		return nil, fmt.Errorf("profile: missing %q header", header)
	}
	p := New()
	for ln, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("profile: line %d: want \"func instrID taken notTaken\", got %q", ln+2, line)
		}
		fn := fields[0]
		id, err := strconv.Atoi(fields[1])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("profile: line %d: bad instruction id %q", ln+2, fields[1])
		}
		taken, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || taken < 0 {
			return nil, fmt.Errorf("profile: line %d: bad taken count %q", ln+2, fields[2])
		}
		notTaken, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || notTaken < 0 {
			return nil, fmt.Errorf("profile: line %d: bad not-taken count %q", ln+2, fields[3])
		}
		k := Key{Func: fn, InstrID: id}
		c := p.Edges[k]
		if c.Taken+taken < c.Taken || c.NotTaken+notTaken < c.NotTaken {
			return nil, fmt.Errorf("profile: line %d: count overflow for %s/%d", ln+2, fn, id)
		}
		c.Taken += taken
		c.NotTaken += notTaken
		p.Edges[k] = c
	}
	return p, nil
}

// String renders the profile sorted by function and instruction.
func (p *Profile) String() string {
	var sb strings.Builder
	for _, k := range p.sortedKeys() {
		c := p.Edges[k]
		fmt.Fprintf(&sb, "%s/%d: taken %d, not taken %d (p=%.2f)\n",
			k.Func, k.InstrID, c.Taken, c.NotTaken, c.TakenProb())
	}
	return sb.String()
}
