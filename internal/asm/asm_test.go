package asm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gsched/internal/ir"
	"gsched/internal/paperex"
	"gsched/internal/sim"
)

func TestParseMinimal(t *testing.T) {
	src := `
; a tiny program
data g 8 = 5 6

func main:
	LI r0=0
	L r1=g(r0,0)
	L r2=g(r0,4)
	A r3=r1,r2
	RET r3
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m, err := sim.Load(p)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := m.Run("main", nil, nil, sim.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ret != 11 {
		t.Errorf("ret = %d, want 11", res.Ret)
	}
}

func TestRoundTripMinMax(t *testing.T) {
	prog, _ := paperex.MinMax()
	text := Print(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse of printed program failed: %v\n%s", err, text)
	}
	text2 := Print(prog2)
	if text != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
	// And the reparsed program still computes minmax correctly.
	m, err := sim.Load(prog2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	a := []int64{5, 9, -2, 3, 14, 7, 0, 11, 6}
	res, err := m.Run("minmax", []int64{int64(len(a))}, map[string][]int64{"a": a}, sim.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ret != -2 {
		t.Errorf("ret = %d, want -2", res.Ret)
	}
}

func TestRoundTripAllOpcodes(t *testing.T) {
	src := `data mem 16
func every r1 r2:
	NOP
	LI r3=-42
	LR r4=r3
	A r5=r1,r2
	S r5=r5,r1
	MUL r5=r5,r2
	DIV r5=r5,r2
	REM r6=r5,r2
	AND r6=r6,r1
	OR r6=r6,r2
	XOR r6=r6,r1
	SL r6=r6,r1
	SR r6=r6,r1
	AI r6=r6,7
	MULI r6=r6,3
	ANDI r6=r6,255
	ORI r6=r6,1
	XORI r6=r6,15
	SLI r6=r6,2
	SRI r6=r6,1
	NEG r7=r6
	NOT r7=r7
	C cr0=r1,r2
	CI cr1=r1,5
	L r8=mem(r3,4)
	LU r8,r3=mem(r3,4)
	ST mem(r3,8)=r8
	STU mem(r3,4),r3=r8
	FCVT f0=r1
	FCVT f1=r2
	FA f2=f0,f1
	FS f2=f2,f0
	FM f2=f2,f1
	FD f2=f2,f1
	FNEG f3=f2
	FMR f4=f3
	FC cr2=f3,f4
	STF mem(r3,8)=f4
	LF f5=mem(r3,8)
	FTRUNC r10=f5
	BF skip,cr0,lt
unlabeled:
	B skip
skip:
	CALL print,r8
	CALL r9=helper,r8,r7
	RET r9
func helper r1 r2:
	BT done,cr0,eq
done:
	RET r1
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := Print(p)
	p2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if Print(p2) != out {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", out, Print(p2))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"instr outside func", "LI r0=1", "outside a function"},
		{"bad mnemonic", "func f:\n\tFROB r1\n\tRET", "unknown mnemonic"},
		{"bad register", "func f:\n\tLI x0=1\n\tRET", "register"},
		{"bad branch target", "func f:\n\tB nowhere\n", "unresolved branch target"},
		{"bad data", "data g\n", "data wants"},
		{"bad bit", "func f:\n\tC cr0=r1,r2\n\tBT x,cr0,zz\nx:\n\tRET", "condition bit"},
		{"label outside func", "lbl:\n", "outside a function"},
		{"undefined call", "func f:\n\tCALL missing\n\tRET", "undefined function"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRegisterLimit: register numbers at or over ir.MaxRegs are a
// line-numbered error, not a number wrapped into the int32 field (which
// made r4294967297 alias r1) or a table of gigabytes downstream.
func TestRegisterLimit(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"func main:\n\tLI r4294967297=5\n\tLI r1=7\n\tRET r4294967297\n", 2},
		{"func main:\n\tLI r1999999999=0\n\tRET r0\n", 2},
		{"func main r1048576:\n\tRET r0\n", 1},
		{"func main:\n\tC cr1048576=r0,r0\n\tRET r0\n", 2},
		{"func main:\n\tFM f0=f0,f1048576\n\tRET r0\n", 2},
		{"data a 4\nfunc main:\n\tL r0=a(r1048576,0)\n\tRET r0\n", 3},
	} {
		_, err := Parse(tc.src)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != tc.line || !strings.Contains(pe.Msg, "over the limit") {
			t.Errorf("%q: error %v, want line %d: ... over the limit", tc.src, err, tc.line)
		}
	}
	last := fmt.Sprintf("r%d", ir.MaxRegs-1)
	p, err := Parse("func main:\n\tLI " + last + "=5\n\tRET " + last + "\n")
	if err != nil {
		t.Fatalf("highest register rejected: %v", err)
	}
	if n := p.Func("main").NumRegs(ir.ClassGPR); n != ir.MaxRegs {
		t.Errorf("NumRegs = %d, want %d", n, ir.MaxRegs)
	}
}

func TestParseLineNumbers(t *testing.T) {
	_, err := Parse("data g 4\n\nfunc f:\n\tLI r0=1\n\tBOOM\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T (%v)", err, err)
	}
	if pe.Line != 5 {
		t.Errorf("error line = %d, want 5", pe.Line)
	}
}

// TestDuplicateFunctionRejected: a second definition of a function is a
// line-numbered error from the whole-unit parser and from the streaming
// reader's prescan, before any function is returned.
func TestDuplicateFunctionRejected(t *testing.T) {
	src := "func f:\n\tRET r0\n; g calls f\nfunc g:\n\tRET r0\nfunc f r1:\n\tRET r1\n"
	_, perr := Parse(src)
	_, rerr := NewReader(src)
	for name, err := range map[string]error{"Parse": perr, "NewReader": rerr} {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want *ParseError, got %T (%v)", name, err, err)
		}
		if pe.Line != 6 || pe.Msg != `function "f" redeclared` {
			t.Errorf("%s: error %q, want line 6: function \"f\" redeclared", name, pe)
		}
	}
}

func TestParamParsing(t *testing.T) {
	p, err := Parse("func f r3 r7:\n\tRET r3\n")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Func("f")
	if len(f.Params) != 2 || f.Params[0] != ir.GPR(3) || f.Params[1] != ir.GPR(7) {
		t.Errorf("params = %v", f.Params)
	}
}
