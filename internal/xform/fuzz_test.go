package xform

import (
	"context"
	"testing"
	"time"

	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
)

// malformedSeed is compiled afresh for every run: a loop holding a
// two-way branch, so unrolling, rotation and speculative motion all
// have work on the edited function.
const malformedSeed = `
int a[32];
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = a[i] * 3;
        if (x > s) { s = s + x; } else { s = s - i; }
    }
    return s;
}
`

// The edit kinds FuzzMalformedIR applies, one per byte triple.
const (
	editDupID      = iota // a second instruction takes an existing ID
	editDangling          // a branch targets a label no block has
	editMidTerm           // a terminator lands before a block's end
	editEmptyBlock        // a block loses every instruction
	editEmptyFunc         // the function loses every block
	editDupLabel          // a block takes another block's label
	numEdits
)

// malformedBound is the wall-clock time one RunCtx call may take before
// the fuzz target calls it a hang; the unedited seed schedules in about
// a millisecond.
const malformedBound = 10 * time.Second

// FuzzMalformedIR edits a compiled function through the IR API into
// shapes the front ends never produce, and checks that the pass
// returns, nil or an error, within malformedBound at levels none and
// speculative, without a panic. Each byte triple (kind, x, y) of the
// input is one edit; x and y pick the instructions or blocks it
// touches. Run with
//
//	go test -fuzz=FuzzMalformedIR ./internal/xform
func FuzzMalformedIR(f *testing.F) {
	for kind := byte(0); kind < numEdits; kind++ {
		f.Add([]byte{kind, 1, 2})
	}
	f.Fuzz(func(t *testing.T, edits []byte) {
		for _, level := range []core.Level{core.LevelNone, core.LevelSpeculative} {
			fn := compileSeed(t)
			for k := 0; k+2 < len(edits); k += 3 {
				applyEdit(fn, edits[k]%numEdits, int(edits[k+1]), int(edits[k+2]))
			}
			type outcome struct {
				err      error
				panicked any
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- outcome{panicked: r}
					}
				}()
				_, err := RunCtx(context.Background(), fn, core.Defaults(machine.RS6K(), level), DefaultConfig())
				done <- outcome{err: err}
			}()
			select {
			case o := <-done:
				if o.panicked != nil {
					t.Fatalf("level %v: panic: %v", level, o.panicked)
				}
				if len(edits) < 3 && o.err != nil {
					t.Fatalf("level %v: unedited seed: %v", level, o.err)
				}
			case <-time.After(malformedBound):
				t.Fatalf("level %v: RunCtx did not return within %v", level, malformedBound)
			}
		}
	})
}

func compileSeed(t *testing.T) *ir.Func {
	t.Helper()
	p, err := minic.Compile(malformedSeed)
	if err != nil {
		t.Fatal(err)
	}
	return p.Func("main")
}

// applyEdit applies one edit of the given kind to fn; x and y select
// what it touches, modulo what exists. An edit with nothing to touch
// (no blocks, no branches) does nothing.
func applyEdit(fn *ir.Func, kind byte, x, y int) {
	var instrs []*ir.Instr
	var branches []*ir.Instr
	fn.Instrs(func(_ *ir.Block, i *ir.Instr) {
		instrs = append(instrs, i)
		if i.Target != "" && i.Op != ir.OpCall {
			branches = append(branches, i)
		}
	})
	nb := len(fn.Blocks)
	switch kind {
	case editDupID:
		if len(instrs) > 0 {
			instrs[y%len(instrs)].ID = instrs[x%len(instrs)].ID
		}
	case editDangling:
		if len(branches) > 0 {
			branches[x%len(branches)].Target = "dangling"
		}
	case editMidTerm:
		if nb > 0 {
			b := fn.Blocks[x%nb]
			ret := fn.NewInstr(ir.OpRet)
			at := y % (len(b.Instrs) + 1)
			b.Instrs = append(b.Instrs[:at], append([]*ir.Instr{ret}, b.Instrs[at:]...)...)
		}
	case editEmptyBlock:
		if nb > 0 {
			fn.Blocks[x%nb].Instrs = nil
		}
	case editEmptyFunc:
		fn.Blocks = nil
	case editDupLabel:
		if nb > 0 {
			fn.Blocks[y%nb].Label = fn.Blocks[x%nb].Label
		}
	}
}
