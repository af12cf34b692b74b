// Package asm parses and prints the textual assembly form of ir
// programs. The syntax matches what ir.Program.String() produces, which
// in turn follows the pseudo-code notation of Figure 2 of the paper:
//
//	data a 4096
//	data seed 1 = 42
//	func minmax r27:
//	CL.0:
//		L r12=a(r31,4)          ; load u
//		LU r0,r31=a(r31,8)
//		C cr7=r12,r0
//		BF CL.4,cr7,gt
//
// Lines are instructions, labels ("name:"), function headers
// ("func name [params...]:"), or data directives. ';' starts a comment.
package asm

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"gsched/internal/ir"
)

// parseError reports a syntax error with its line number.
type parseError struct {
	Line int
	Msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type parser struct {
	prog    *ir.Program
	f       *ir.Func
	b       *ir.Block
	line    int
	comment string   // trailing comment of the current line
	scratch []string // operand-split buffer reused across instructions
}

func (p *parser) errf(format string, args ...any) error {
	return &parseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a whole program from src. It drives the streaming reader
// (see dialect.go), so whole-program and per-function parsing share one
// implementation, including the rejection of a function defined twice.
func Parse(src string) (*ir.Program, error) { return ReadProgram(Native, src) }

func (p *parser) parseData(line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "data "))
	var init []int64
	if i := strings.IndexByte(rest, '='); i >= 0 {
		for _, tok := range strings.Fields(rest[i+1:]) {
			v, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return p.errf("bad initialiser %q", tok)
			}
			init = append(init, v)
		}
		rest = strings.TrimSpace(rest[:i])
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return p.errf("data wants \"data name size [= v...]\"")
	}
	words, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || words <= 0 {
		return p.errf("bad data size %q", fields[1])
	}
	if int64(len(init)) > words {
		return p.errf("%d initialisers exceed size %d", len(init), words)
	}
	s := p.prog.AddSym(fields[0], words)
	s.Init = init
	return nil
}

// beginFunc starts a new function from its header line. The caller
// (reader.ParseFunc) owns finishing the previous function and deciding
// where the new one goes.
func (p *parser) beginFunc(line string) error {
	rest := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), ":")
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return p.errf("func wants a name")
	}
	p.f = ir.NewFunc(fields[0])
	for _, tok := range fields[1:] {
		if n, ok := strings.CutPrefix(tok, "frame="); ok {
			words, err := strconv.ParseInt(n, 10, 64)
			if err != nil || words < 0 {
				return p.errf("bad frame size %q", tok)
			}
			p.f.FrameWords = words
			continue
		}
		r, err := parseReg(tok)
		if err != nil {
			return p.errf("bad parameter %q: %v", tok, err)
		}
		p.f.Params = append(p.f.Params, r)
		p.f.NoteReg(r)
	}
	p.b = nil
	return nil
}

// parseReg reads a register name. Numbers must lie below ir.MaxRegs:
// passes size tables by register number, and a larger number would
// otherwise wrap in the int32 register field or ask for gigabytes.
func parseReg(tok string) (ir.Reg, error) {
	var class ir.RegClass
	var num, what string
	switch {
	case strings.HasPrefix(tok, "cr"):
		class, num, what = ir.ClassCR, tok[2:], "condition register"
	case strings.HasPrefix(tok, "r"):
		class, num, what = ir.ClassGPR, tok[1:], "register"
	case strings.HasPrefix(tok, "f"):
		class, num, what = ir.ClassFPR, tok[1:], "float register"
	default:
		return ir.NoReg, fmt.Errorf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return ir.NoReg, fmt.Errorf("bad %s %q", what, tok)
	}
	if n >= ir.MaxRegs {
		return ir.NoReg, fmt.Errorf("%s %q over the limit (numbers below %d)", what, tok, ir.MaxRegs)
	}
	return ir.Reg{Class: class, Num: int32(n)}, nil
}

// parseMem accepts "sym(rB,off)", "(rB,off)", "sym(,off)".
func parseMem(tok string) (*ir.Mem, error) {
	open := strings.IndexByte(tok, '(')
	closeP := strings.LastIndexByte(tok, ')')
	if open < 0 || closeP != len(tok)-1 {
		return nil, fmt.Errorf("bad memory operand %q", tok)
	}
	m := &ir.Mem{Sym: tok[:open], Base: ir.NoReg}
	if m.Sym == "frame" {
		// "frame" is a reserved name: frame-local slot addressing.
		m.Sym, m.Frame = "", true
	}
	inner := tok[open+1 : closeP]
	comma := strings.IndexByte(inner, ',')
	if comma < 0 {
		return nil, fmt.Errorf("memory operand %q wants (base,offset)", tok)
	}
	if base := strings.TrimSpace(inner[:comma]); base != "" {
		r, err := parseReg(base)
		if err != nil {
			return nil, err
		}
		m.Base = r
	}
	off, err := strconv.ParseInt(strings.TrimSpace(inner[comma+1:]), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad offset in %q", tok)
	}
	m.Off = off
	return m, nil
}

func parseBit(tok string) (ir.CRBit, error) {
	switch tok {
	case "lt":
		return ir.BitLT, nil
	case "gt":
		return ir.BitGT, nil
	case "eq":
		return ir.BitEQ, nil
	}
	return 0, fmt.Errorf("bad condition bit %q (want lt/gt/eq)", tok)
}

var op2ByName = map[string]ir.Op{
	"A": ir.OpAdd, "S": ir.OpSub, "MUL": ir.OpMul, "DIV": ir.OpDiv,
	"REM": ir.OpRem, "AND": ir.OpAnd, "OR": ir.OpOr, "XOR": ir.OpXor,
	"SL": ir.OpShl, "SR": ir.OpShr,
	"FA": ir.OpFAdd, "FS": ir.OpFSub, "FM": ir.OpFMul, "FD": ir.OpFDiv,
}

var unaryByName = map[string]ir.Op{
	"NEG": ir.OpNeg, "NOT": ir.OpNot, "LR": ir.OpLR,
	"FNEG": ir.OpFNeg, "FMR": ir.OpFMove, "FCVT": ir.OpFCvt, "FTRUNC": ir.OpFTrunc,
}

var opIByName = map[string]ir.Op{
	"AI": ir.OpAddI, "MULI": ir.OpMulI, "ANDI": ir.OpAndI, "ORI": ir.OpOrI,
	"XORI": ir.OpXorI, "SLI": ir.OpShlI, "SRI": ir.OpShrI,
}

func (p *parser) block() *ir.Block {
	if p.b == nil {
		p.b = p.f.NewBlock("")
	}
	return p.b
}

// splitTop splits s on commas that are not nested inside parentheses,
// so memory operands like "mem(r3,4)" survive as single tokens. The
// result aliases p.scratch and is only valid until the next call; no
// instruction needs two splits at once, and reusing the buffer keeps
// parse allocations per-function rather than per-instruction.
func (p *parser) splitTop(s string) []string {
	parts := p.scratch[:0]
	depth, start := 0, 0
	for k := 0; k < len(s); k++ {
		switch s[k] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:k]))
				start = k + 1
			}
		}
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	p.scratch = parts
	return parts
}

func (p *parser) emit(i *ir.Instr) {
	i.Comment = p.comment
	p.f.NoteReg(i.Def)
	p.f.NoteReg(i.Def2)
	p.f.NoteReg(i.A)
	p.f.NoteReg(i.B)
	if i.Mem != nil {
		p.f.NoteReg(i.Mem.Base)
	}
	for _, a := range i.CallArgs {
		p.f.NoteReg(a)
	}
	b := p.block()
	b.Instrs = append(b.Instrs, i)
	if i.Op.IsTerminator() {
		p.b = nil // next instruction starts a fresh (unlabelled) block
	}
}

func (p *parser) parseInstr(line string) error {
	mn := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	i := p.f.NewInstr(ir.OpNop)

	// eq splits "lhs=rhs" forms.
	eq := func() (string, string, bool) {
		k := strings.IndexByte(rest, '=')
		if k < 0 {
			return "", "", false
		}
		return strings.TrimSpace(rest[:k]), strings.TrimSpace(rest[k+1:]), true
	}
	comma := p.splitTop

	switch {
	case mn == "NOP":
		i.Op = ir.OpNop

	case mn == "LI":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("LI wants rD=imm")
		}
		r, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		imm, err := strconv.ParseInt(rhs, 10, 64)
		if err != nil {
			return p.errf("bad immediate %q", rhs)
		}
		i.Op, i.Def, i.Imm = ir.OpLI, r, imm

	case unaryByName[mn] != 0:
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("%s wants rD=rA", mn)
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		a, err := parseReg(rhs)
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Def, i.A = unaryByName[mn], d, a

	case op2ByName[mn] != 0 || mn == "A":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("%s wants rD=rA,rB", mn)
		}
		parts := comma(rhs)
		if len(parts) != 2 {
			return p.errf("%s wants two sources", mn)
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		a, err := parseReg(parts[0])
		if err != nil {
			return p.errf("%v", err)
		}
		b, err := parseReg(parts[1])
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Def, i.A, i.B = op2ByName[mn], d, a, b

	case opIByName[mn] != 0:
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("%s wants rD=rA,imm", mn)
		}
		parts := comma(rhs)
		if len(parts) != 2 {
			return p.errf("%s wants source and immediate", mn)
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		a, err := parseReg(parts[0])
		if err != nil {
			return p.errf("%v", err)
		}
		imm, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return p.errf("bad immediate %q", parts[1])
		}
		i.Op, i.Def, i.A, i.Imm = opIByName[mn], d, a, imm

	case mn == "FC":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("FC wants crD=fA,fB")
		}
		parts := comma(rhs)
		if len(parts) != 2 {
			return p.errf("FC wants two operands")
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		a, err := parseReg(parts[0])
		if err != nil {
			return p.errf("%v", err)
		}
		bb, err := parseReg(parts[1])
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Def, i.A, i.B = ir.OpFCmp, d, a, bb

	case mn == "LF":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("LF wants fD=mem")
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		m, err := parseMem(rhs)
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Def, i.Mem = ir.OpFLoad, d, m

	case mn == "STF":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("STF wants mem=fA")
		}
		a, err := parseReg(rhs)
		if err != nil {
			return p.errf("%v", err)
		}
		m, err := parseMem(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.A, i.Mem = ir.OpFStore, a, m

	case mn == "C" || mn == "CI":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("%s wants crD=rA,<rB|imm>", mn)
		}
		parts := comma(rhs)
		if len(parts) != 2 {
			return p.errf("%s wants two operands", mn)
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		a, err := parseReg(parts[0])
		if err != nil {
			return p.errf("%v", err)
		}
		i.Def, i.A = d, a
		if mn == "C" {
			b, err := parseReg(parts[1])
			if err != nil {
				return p.errf("%v", err)
			}
			i.Op, i.B = ir.OpCmp, b
		} else {
			imm, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return p.errf("bad immediate %q", parts[1])
			}
			i.Op, i.Imm = ir.OpCmpI, imm
		}

	case mn == "L":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("L wants rD=mem")
		}
		d, err := parseReg(lhs)
		if err != nil {
			return p.errf("%v", err)
		}
		m, err := parseMem(rhs)
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Def, i.Mem = ir.OpLoad, d, m

	case mn == "LU":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("LU wants rD,rB'=mem")
		}
		parts := comma(lhs)
		if len(parts) != 2 {
			return p.errf("LU wants two destinations")
		}
		d, err := parseReg(parts[0])
		if err != nil {
			return p.errf("%v", err)
		}
		d2, err := parseReg(parts[1])
		if err != nil {
			return p.errf("%v", err)
		}
		m, err := parseMem(rhs)
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Def, i.Def2, i.Mem = ir.OpLoadU, d, d2, m

	case mn == "ST" || mn == "STU":
		lhs, rhs, ok := eq()
		if !ok {
			return p.errf("%s wants mem=rA", mn)
		}
		a, err := parseReg(rhs)
		if err != nil {
			return p.errf("%v", err)
		}
		memTok := lhs
		if mn == "STU" {
			parts := comma(lhs)
			if len(parts) != 2 {
				return p.errf("STU wants mem,rB'")
			}
			memTok = parts[0]
			d2, err := parseReg(parts[1])
			if err != nil {
				return p.errf("%v", err)
			}
			i.Def2 = d2
		}
		m, err := parseMem(memTok)
		if err != nil {
			return p.errf("%v", err)
		}
		if mn == "ST" {
			i.Op = ir.OpStore
		} else {
			i.Op = ir.OpStoreU
		}
		i.A, i.Mem = a, m

	case mn == "B":
		if rest == "" {
			return p.errf("B wants a target")
		}
		i.Op, i.Target = ir.OpB, rest

	case mn == "BT" || mn == "BF":
		parts := comma(rest)
		if len(parts) != 3 {
			return p.errf("%s wants target,cr,bit", mn)
		}
		cr, err := parseReg(parts[1])
		if err != nil {
			return p.errf("%v", err)
		}
		bit, err := parseBit(parts[2])
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Target, i.A, i.CRBit, i.OnTrue = ir.OpBC, parts[0], cr, bit, mn == "BT"

	case mn == "BCT":
		parts := comma(rest)
		if len(parts) != 2 {
			return p.errf("BCT wants target,counter")
		}
		ctr, err := parseReg(parts[1])
		if err != nil {
			return p.errf("%v", err)
		}
		i.Op, i.Target, i.A, i.Def = ir.OpBCT, parts[0], ctr, ctr

	case mn == "CALL":
		body := rest
		if lhs, rhs, ok := eq(); ok {
			d, err := parseReg(lhs)
			if err != nil {
				return p.errf("%v", err)
			}
			i.Def = d
			body = rhs
		}
		parts := comma(body)
		if parts[0] == "" {
			return p.errf("CALL wants a target")
		}
		i.Op, i.Target = ir.OpCall, parts[0]
		for _, tok := range parts[1:] {
			r, err := parseReg(tok)
			if err != nil {
				return p.errf("%v", err)
			}
			i.CallArgs = append(i.CallArgs, r)
		}

	case mn == "RET":
		i.Op = ir.OpRet
		if rest != "" {
			r, err := parseReg(rest)
			if err != nil {
				return p.errf("%v", err)
			}
			i.A = r
		}

	default:
		return p.errf("unknown mnemonic %q", mn)
	}
	p.emit(i)
	return nil
}

// Print renders a program as parseable assembly (Program.String).
func Print(p *ir.Program) string { return p.String() }

// PrintTo streams the same rendering into w, reusing one buffer per
// function so printing allocates O(largest function), not O(program).
func PrintTo(w io.Writer, p *ir.Program) error {
	var buf []byte
	for _, s := range p.Syms {
		buf = s.AppendString(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for _, f := range p.Funcs {
		buf = f.AppendString(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
