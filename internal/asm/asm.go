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
//
// An instruction's syntax is its opcode's entry in ir.Forms, the single
// statement of it: the mnemonic, then comma-separated operands left and
// right of '='. The parser looks the mnemonic up and reads one token per
// operand slot; ir.(*Instr).AppendString prints by the same entry, and
// ir.(*Func).CheckInstr, which Validate also calls, checks each parsed
// instruction's operand classes. A missing, extra or wrong-class operand
// is an error with its line number.
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
	if err := p.checkName("data", fields[0]); err != nil {
		return err
	}
	s := p.prog.AddSym(fields[0], words)
	s.Init = init
	return nil
}

// checkName rejects a data or label name that no operand can name:
// operands are split at ',' and '=', '(' opens a memory operand, and a
// memory operand frame(...) is always a frame slot, never the data
// symbol frame.
func (p *parser) checkName(what, name string) error {
	if strings.ContainsAny(name, ",=(") {
		return p.errf("bad %s name %q (no ',', '=' or '(')", what, name)
	}
	if what == "data" && name == "frame" {
		return p.errf("bad data name %q (reserved: frame(...) is a frame slot)", name)
	}
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

// formByMnemonic indexes ir.Forms by mnemonic.
var formByMnemonic = func() map[string]*ir.Form {
	forms := ir.Forms()
	m := make(map[string]*ir.Form, len(forms))
	for k := range forms {
		m[forms[k].Mnemonic] = &forms[k]
	}
	return m
}()

// parseInstr reads one instruction by its mnemonic's form, then checks
// it with the same ir.Func.CheckInstr that Validate calls, so a wrong
// operand class is reported with its line number.
func (p *parser) parseInstr(line string) error {
	mn, rest := line, ""
	if k := strings.IndexAny(line, " \t"); k >= 0 {
		mn, rest = line[:k], strings.TrimSpace(line[k+1:])
	}
	fm := formByMnemonic[mn]
	if fm == nil {
		return p.errf("unknown mnemonic %q", mn)
	}
	i := p.f.NewInstr(fm.Op)
	i.OnTrue = fm.OnTrue
	lhs, rhs, hasEq := "", rest, false
	if len(fm.Left) > 0 {
		l, r, ok := strings.Cut(rest, "=")
		switch {
		case ok:
			lhs, rhs, hasEq = l, r, true
		case !fm.Left[0].Optional:
			return p.errf("%s: missing '='", mn)
		}
	}
	if err := p.operands(i, fm, fm.Left, lhs, hasEq); err != nil {
		return err
	}
	if err := p.operands(i, fm, fm.Right, rhs, rhs != ""); err != nil {
		return err
	}
	if fm.DefIsA {
		i.Def = i.A
	}
	if err := p.f.CheckInstr(i); err != nil {
		return p.errf("%s: %v", i, err)
	}
	p.emit(i)
	return nil
}

// operands reads text, the comma-separated operands of list, into i.
// When written is false the text is absent and holds no operand; a
// written empty text, as left of the '=' in "CALL =f", is one empty
// operand.
func (p *parser) operands(i *ir.Instr, fm *ir.Form, list []ir.Operand, text string, written bool) error {
	var toks []string
	if written {
		toks = p.splitTop(text)
	}
	k := 0
	for _, o := range list {
		switch {
		case o.Slot == ir.SlotArgs:
			for ; k < len(toks); k++ {
				if err := p.operand(i, o.Slot, toks[k]); err != nil {
					return err
				}
			}
		case k < len(toks):
			if err := p.operand(i, o.Slot, toks[k]); err != nil {
				return err
			}
			k++
		case !o.Optional:
			return p.errf("%s: missing %s", fm.Mnemonic, o.Role)
		}
	}
	if k < len(toks) {
		return p.errf("%s: extra operand %q", fm.Mnemonic, toks[k])
	}
	return nil
}

// operand reads one operand token into i's slot s.
func (p *parser) operand(i *ir.Instr, s ir.Slot, tok string) error {
	var err error
	switch s {
	case ir.SlotDef, ir.SlotDef2, ir.SlotA, ir.SlotB:
		*i.RegField(s), err = parseReg(tok)
	case ir.SlotArgs:
		var r ir.Reg
		r, err = parseReg(tok)
		i.CallArgs = append(i.CallArgs, r)
	case ir.SlotImm:
		if i.Imm, err = strconv.ParseInt(tok, 10, 64); err != nil {
			return p.errf("bad immediate %q", tok)
		}
	case ir.SlotMem:
		i.Mem, err = parseMem(tok)
	case ir.SlotTarget:
		i.Target = tok
	case ir.SlotBit:
		i.CRBit, err = parseBit(tok)
	}
	if err != nil {
		return p.errf("%v", err)
	}
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
