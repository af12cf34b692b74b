package asm

import (
	"fmt"
	"strings"
	"testing"

	"gsched/internal/minic"
	"gsched/internal/progen"
)

// FuzzParseAsm feeds arbitrary text to the assembly parser. The parser
// must never panic, and anything it accepts must round-trip: printing
// the parsed program and parsing that text again must succeed and reach
// a print fixpoint. Run with
//
//	go test -fuzz=FuzzParseAsm ./internal/asm
func FuzzParseAsm(f *testing.F) {
	f.Add("data a 4096\nfunc main r1 r2:\nCL.0:\n\tAI r3=r1,1\n\tRET r3\n")
	f.Add("data seed 1 = 42\nfunc f:\nCL.0:\n\tL r2=seed(r0,0)\n\tC cr7=r2,r0\n\tBF CL.1,cr7,gt\n\tRET r2\nCL.1:\n\tLI r4=7\n\tRET r4\n")
	f.Add("func main:\nCL.0:\n\tBCT CL.0,ctr\n\tRET r0\n")
	// Real compiled programs make the deepest seeds: every opcode the
	// printer can emit appears in some generated program.
	for seed := int64(0); seed < 3; seed++ {
		prog, err := minic.Compile(progen.New(seed).Source)
		if err != nil {
			f.Fatalf("seed %d: %v", seed, err)
		}
		f.Add(Print(prog))
	}
	// A Huge-corpus prefix truncated mid-function: the streaming reader
	// must handle a unit that ends without a terminator or closing
	// definition as gracefully as the whole-program parser.
	huge := progen.Huge(2, 300).Source
	f.Add(huge[:2*len(huge)/3])
	// Register numbers past ir.MaxRegs: one wrapped to r1 in the int32
	// field, the other made renaming ask for 8 GB.
	f.Add("func main:\n\tLI r4294967297=5\n\tLI r1=7\n\tRET r4294967297\n")
	f.Add("func main:\n\tLI r1999999999=0\n\tRET r1999999999\n")
	// A function defined twice: rejected by the prescan.
	f.Add("func f:\n\tRET r0\nfunc g:\n\tRET r0\nfunc f:\n\tRET r1\n")
	// One function, many tiny blocks: stresses label handling, block
	// reindexing, and the per-function (not per-block) scratch reuse.
	{
		var sb strings.Builder
		sb.WriteString("func maze r1:\n")
		for i := 0; i < 48; i++ {
			fmt.Fprintf(&sb, "maze.b%d:\n\tAI r2=r1,1\n\tC cr0=r2,r1\n\tBT maze.b%d,cr0,lt\n", i, i+1)
		}
		sb.WriteString("maze.b48:\n\tRET r2\n")
		f.Add(sb.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		text := Print(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("accepted program does not reparse: %v\nprinted:\n%s", err, text)
		}
		if text2 := Print(prog2); text2 != text {
			t.Fatalf("print not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, text2)
		}
	})
}
