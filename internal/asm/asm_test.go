package asm

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
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

// TestRoundTripAllOpcodes writes one instruction of every form in
// ir.Forms, in the syntax ir.Form documents, and one more with its
// optional operands left out where it has any. Parse must read each
// back to its form's opcode, and Print must give the text back
// byte for byte.
func TestRoundTripAllOpcodes(t *testing.T) {
	var src strings.Builder
	src.WriteString("data mem 16\nfunc helper r1:\n\tRET r1\nfunc every r1 r2:\n")
	var wrote []ir.Form // the form of each instruction of every, in order
	for _, fm := range ir.Forms() {
		writeForm(&src, fm, false, len(wrote))
		wrote = append(wrote, fm)
		if slices.ContainsFunc(slices.Concat(fm.Left, fm.Right), func(o ir.Operand) bool {
			return o.Optional || o.Slot == ir.SlotArgs
		}) {
			writeForm(&src, fm, true, len(wrote))
			wrote = append(wrote, fm)
		}
	}
	p, err := Parse(src.String())
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src.String())
	}
	var got []*ir.Instr
	p.Func("every").Instrs(func(_ *ir.Block, i *ir.Instr) { got = append(got, i) })
	if len(got) != len(wrote) {
		t.Fatalf("parsed %d instructions, wrote %d", len(got), len(wrote))
	}
	for k, i := range got {
		if i.Op != wrote[k].Op || i.OnTrue != wrote[k].OnTrue {
			t.Errorf("%s parsed as op %s, OnTrue %v", i, i.Op, i.OnTrue)
		}
	}
	if out := Print(p); out != src.String() {
		t.Errorf("printed text differs from the source:\n%s\nvs\n%s", out, src.String())
	}
}

// writeForm writes an instruction of form fm, the n-th of its
// function, to b: registers of each operand's class, and a label
// after it for a branch to target. With omit, the optional operands
// and the call arguments are left out.
func writeForm(b *strings.Builder, fm ir.Form, omit bool, n int) {
	b.WriteString("\t" + fm.Mnemonic)
	sep := " "
	write := func(list []ir.Operand) {
		for k, o := range list {
			var toks []string
			switch o.Slot {
			case ir.SlotImm:
				toks = []string{strconv.Itoa(-n)}
			case ir.SlotMem:
				toks = []string{"mem(r3,8)"}
			case ir.SlotTarget:
				toks = []string{fmt.Sprintf("L%d", n)}
				if fm.Op == ir.OpCall {
					toks = []string{"helper"}
				}
			case ir.SlotBit:
				toks = []string{ir.CRBit(n % 3).String()}
			case ir.SlotArgs:
				if !omit {
					toks = []string{"r1", "r2"}
				}
			default:
				if !o.Optional || !omit {
					r := ir.Reg{Class: o.Class, Num: int32(n%5 + k)}
					toks = []string{r.String()}
				}
			}
			for _, tok := range toks {
				b.WriteString(sep + tok)
				sep = ","
			}
		}
	}
	write(fm.Left)
	if sep == "," {
		sep = "="
	}
	write(fm.Right)
	b.WriteString("\n")
	if fm.Op.IsBranch() {
		fmt.Fprintf(b, "L%d:\n", n)
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
		{"operands after NOP", "func f:\n\tNOP r1, r2\n\tRET", `line 2: NOP: extra operand "r1"`},
		{"operand after immediate", "func f:\n\tLI r1=5,6\n\tRET", `line 2: LI: extra operand "6"`},
		{"missing source", "func f:\n\tA r1=r2\n\tRET", "line 2: A: missing second source"},
		{"missing '='", "func f:\n\tLI r1\n\tRET", "line 2: LI: missing '='"},
		{"wrong-class destination", "func f:\n\tLI cr0=5\n\tRET", "line 2: LI cr0=5: destination cr0 has class cr, want gpr"},
		{"wrong-class branch condition", "func f:\n\tBT x,r1,lt\nx:\n\tRET", "line 2: BT x,r1,lt: condition source r1 has class gpr, want cr"},
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
		var pe *parseError
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

// TestNamesOperandsCanName: a data or label name holding ',', '=' or
// '(' is an error on the line that declares it, since no operand could
// name it.
func TestNamesOperandsCanName(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"data a,b 4\nfunc f:\n\tRET r0\n", 1},
		{"data x 1\ndata a=b 4\nfunc f:\n\tRET r0\n", 2},
		{"data a(b 4\nfunc f:\n\tRET r0\n", 1},
		{"func f:\n\tNOP\na,b:\n\tRET r0\n", 3},
		{"func f:\na=b:\n\tRET r0\n", 2},
		{"func f:\n\tNOP\n\tNOP\na(b:\n\tRET r0\n", 4},
	} {
		_, err := Parse(tc.src)
		var pe *parseError
		if !errors.As(err, &pe) || pe.Line != tc.line {
			t.Errorf("%q: error %v, want one at line %d", tc.src, err, tc.line)
		}
	}
}

func TestParseLineNumbers(t *testing.T) {
	_, err := Parse("data g 4\n\nfunc f:\n\tLI r0=1\n\tBOOM\n")
	pe, ok := err.(*parseError)
	if !ok {
		t.Fatalf("want *parseError, got %T (%v)", err, err)
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
	_, rerr := newReader(src)
	for name, err := range map[string]error{"Parse": perr, "newReader": rerr} {
		var pe *parseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want *parseError, got %T (%v)", name, err, err)
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
