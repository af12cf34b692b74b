// Streaming front-end: a Dialect turns one source unit into a
// FuncReader that yields ir.Funcs one at a time, so parse allocations
// are proportional to the largest function, not the whole program.
// Package asm implements the native assembly dialect here; package
// minic implements the same interface for mini-C, and xform.Drive runs
// either through the overlapped parse→schedule→print pipeline.
package asm

import (
	"fmt"
	"io"
	"strings"

	"gsched/internal/ir"
)

// FuncReader streams the functions of one source unit in source order.
type FuncReader interface {
	// Prog returns the program skeleton. Global data symbols are
	// populated eagerly when the reader is opened (data directives may
	// appear anywhere in the source but print before all functions, so
	// streaming printers need them up front). A source reader does NOT
	// append functions: each ParseFunc result belongs to the caller,
	// which may AddFunc it to Prog or drop it after use to bound
	// memory.
	Prog() *ir.Program

	// ParseFunc parses and returns the next function definition, or
	// io.EOF when the source is exhausted. A returned function is
	// fully validated (structure and call targets, resolved against
	// every function name in the unit plus builtins).
	ParseFunc() (*ir.Func, error)
}

// Dialect is a source language with a streaming per-function parser.
type Dialect interface {
	// Open prepares src for streaming. It performs any whole-unit
	// prescan the dialect needs (data directives and the function name
	// set here; global declarations and function signatures for
	// mini-C) but does not parse function bodies. A function defined
	// twice is an error here, before any function is returned.
	Open(src string) (FuncReader, error)
}

type nativeDialect struct{}

func (nativeDialect) Open(src string) (FuncReader, error) { return newReader(src) }

// Native is the assembly Dialect implemented by this package.
var Native Dialect = nativeDialect{}

// ReadProgram opens src in dialect d and reads every function into the
// reader's program, which it returns.
func ReadProgram(d Dialect, src string) (*ir.Program, error) {
	r, err := d.Open(src)
	if err != nil {
		return nil, err
	}
	for {
		f, err := r.ParseFunc()
		if err == io.EOF {
			return r.Prog(), nil
		}
		if err != nil {
			return nil, err
		}
		r.Prog().AddFunc(f)
	}
}

// ProgramReader returns a FuncReader over an already-parsed program:
// Prog is p itself, functions included, and ParseFunc yields p.Funcs
// in order, so a driver schedules them in place.
func ProgramReader(p *ir.Program) FuncReader { return &programReader{p: p} }

type programReader struct {
	p    *ir.Program
	next int
}

func (r *programReader) Prog() *ir.Program { return r.p }

func (r *programReader) ParseFunc() (*ir.Func, error) {
	if r.next == len(r.p.Funcs) {
		return nil, io.EOF
	}
	r.next++
	return r.p.Funcs[r.next-1], nil
}

// reader is the native-assembly FuncReader.
type reader struct {
	p          parser
	sc         lineScanner
	header     string // pending unconsumed "func ..." line
	headerLine int
	haveHeader bool
	names      map[string]struct{} // every function name in the unit
}

// newReader opens src for streaming. The prescan parses data
// directives (populating Prog().Syms in source order), records the
// function name set used for per-function call-target validation, and
// rejects a second definition of a function name.
func newReader(src string) (*reader, error) {
	r := &reader{
		p:     parser{prog: ir.NewProgram()},
		sc:    lineScanner{src: src},
		names: make(map[string]struct{}),
	}
	if err := r.prescan(src); err != nil {
		return nil, err
	}
	return r, nil
}

// Prog returns the program skeleton (symbols only; see FuncReader).
func (r *reader) Prog() *ir.Program { return r.p.prog }

func (r *reader) prescan(src string) error {
	sc := lineScanner{src: src}
	for {
		raw, ok := sc.next()
		if !ok {
			return nil
		}
		line, _ := splitComment(raw)
		switch {
		case strings.HasPrefix(line, "data "):
			r.p.line = sc.line
			if err := r.p.parseData(line); err != nil {
				return err
			}
		case strings.HasPrefix(line, "func "):
			rest := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), ":")
			if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
				rest = rest[:sp]
			}
			if rest != "" {
				if _, seen := r.names[rest]; seen {
					r.p.line = sc.line
					return r.p.errf("function %q redeclared", rest)
				}
				r.names[rest] = struct{}{}
			}
		}
	}
}

// ParseFunc implements FuncReader.
func (r *reader) ParseFunc() (*ir.Func, error) {
	p := &r.p
	for !r.haveHeader {
		raw, ok := r.sc.next()
		if !ok {
			return nil, io.EOF
		}
		line, _ := splitComment(raw)
		if line == "" {
			continue
		}
		p.line = r.sc.line
		switch {
		case strings.HasPrefix(line, "data "):
			// Fully parsed by the prescan; skip here.
		case strings.HasPrefix(line, "func "):
			r.header, r.headerLine, r.haveHeader = line, r.sc.line, true
		case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t"):
			return nil, p.errf("label outside a function")
		default:
			return nil, p.errf("instruction outside a function")
		}
	}
	p.line = r.headerLine
	r.haveHeader = false
	if err := p.beginFunc(r.header); err != nil {
		return nil, err
	}
	for {
		raw, ok := r.sc.next()
		if !ok {
			break
		}
		line, comment := splitComment(raw)
		if line == "" {
			continue
		}
		p.line, p.comment = r.sc.line, comment
		switch {
		case strings.HasPrefix(line, "data "):
			// Prescanned; a data directive does not end the function.
		case strings.HasPrefix(line, "func "):
			r.header, r.headerLine, r.haveHeader = line, r.sc.line, true
		case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t"):
			label := strings.TrimSuffix(line, ":")
			if err := p.checkName("label", label); err != nil {
				return nil, err
			}
			p.b = p.f.NewBlock(label)
		default:
			if err := p.parseInstr(line); err != nil {
				return nil, err
			}
		}
		if r.haveHeader {
			break
		}
	}
	f := p.f
	p.f, p.b = nil, nil
	f.ReindexBlocks()
	if err := r.validate(f); err != nil {
		return nil, err
	}
	return f, nil
}

// validate applies the same checks Program.Validate would: structural
// invariants plus call-target resolution against the unit's function
// name set and the simulator builtins.
func (r *reader) validate(f *ir.Func) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("asm: %w", err)
	}
	var err error
	f.Instrs(func(b *ir.Block, i *ir.Instr) {
		if err != nil || i.Op != ir.OpCall {
			return
		}
		if _, ok := r.names[i.Target]; !ok && !ir.IsBuiltin(i.Target) {
			err = fmt.Errorf("asm: %s: call to undefined function %q", f.Name, i.Target)
		}
	})
	return err
}
