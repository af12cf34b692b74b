package minic

// Streaming front-end: mini-C's counterpart to asm's FuncReader,
// exported as the asm.Dialect Dialect. The whole unit is lexed once
// (tokens are a flat array of zero-copy substrings), but ASTs are
// built and lowered one function at a time, so per-function
// allocations dominate and the AST of each function is dropped as
// soon as its ir.Func exists.
//
// Opening a source performs a scan pass that fully parses global
// declarations and function signatures while skipping function bodies
// by brace matching. That gives every function's lowering the complete
// symbol table up front (calls may reference functions declared later)
// and lets data symbols print before the first body is parsed.

import (
	"fmt"
	"io"

	"gsched/internal/asm"
	"gsched/internal/ir"
)

// Dialect is mini-C as a streaming asm.Dialect.
var Dialect asm.Dialect = dialect{}

type dialect struct{}

func (dialect) Open(src string) (asm.FuncReader, error) {
	r, err := open(src)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// funcUnit is a scanned-but-not-parsed function: its signature plus
// the token index of its body's opening brace.
type funcUnit struct {
	decl *funcDecl // Body is nil until ParseFunc reaches it
	body int
}

// reader streams the functions of one mini-C compilation unit.
type reader struct {
	g     *gen
	toks  []token
	units []funcUnit
	next  int
}

// open lexes and scans src. Global declarations are parsed completely
// (Prog().Syms is fully populated on return); function bodies are
// located but not parsed.
func open(src string) (*reader, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parserState{toks: toks}
	var globals []*globalDecl
	var units []funcUnit
	for !p.at(tokEOF) {
		t := p.cur()
		isVoid := t.Kind == kwVoid
		if t.Kind == kwFloat {
			return nil, errAt(t.Line, t.Col, "float is only allowed for locals")
		}
		if t.Kind != kwInt && t.Kind != kwVoid {
			return nil, errAt(t.Line, t.Col, "expected 'int' or 'void' declaration, found %s", t)
		}
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if p.at(tokLParen) {
			fn := &funcDecl{Name: name.Text, Void: isVoid, Line: name.Line}
			if err := p.parseFuncSig(fn); err != nil {
				return nil, err
			}
			body, err := p.skipBlock()
			if err != nil {
				return nil, err
			}
			units = append(units, funcUnit{decl: fn, body: body})
			continue
		}
		if isVoid {
			return nil, errAt(name.Line, name.Col, "void globals are not allowed")
		}
		if name.Text == "frame" {
			// Printed, its accesses would read as frame slots.
			return nil, errAt(name.Line, name.Col, "global name %q is reserved for frame slots", name.Text)
		}
		g, err := p.parseGlobalRest(name.Text, name.Line)
		if err != nil {
			return nil, err
		}
		globals = append(globals, g)
	}
	decls := make([]*funcDecl, len(units))
	for i := range units {
		decls[i] = units[i].decl
	}
	g, err := newGen(globals, decls)
	if err != nil {
		return nil, err
	}
	return &reader{g: g, toks: toks, units: units}, nil
}

// Prog returns the program skeleton: data symbols are fully populated
// by Open; functions are not appended — each ParseFunc result belongs
// to the caller.
func (r *reader) Prog() *ir.Program { return r.g.out }

// ParseFunc parses the next function's body, lowers it to ir, and
// drops the AST. Results are validated like Generate's whole-program
// check: structure plus call targets against the unit's signatures.
func (r *reader) ParseFunc() (*ir.Func, error) {
	if r.next >= len(r.units) {
		return nil, io.EOF
	}
	u := r.units[r.next]
	r.next++
	p := &parserState{toks: r.toks, pos: u.body}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	u.decl.Body = body
	f, err := r.g.genFunc(u.decl)
	u.decl.Body = nil
	if err != nil {
		return nil, err
	}
	if err := r.validate(f); err != nil {
		return nil, fmt.Errorf("minic: internal: generated invalid ir: %w", err)
	}
	return f, nil
}

func (r *reader) validate(f *ir.Func) error {
	if err := f.Validate(); err != nil {
		return err
	}
	var err error
	f.Instrs(func(b *ir.Block, i *ir.Instr) {
		if err != nil || i.Op != ir.OpCall {
			return
		}
		if r.g.funcs[i.Target] == nil && !ir.IsBuiltin(i.Target) {
			err = fmt.Errorf("%s: call to undefined function %q", f.Name, i.Target)
		}
	})
	return err
}
