// Package minic compiles a small C subset to the ir used by the
// scheduler. It stands in for the IBM XL C front end of the paper: the
// SPEC proxy workloads (package workload) and examples are written in
// this language, compiled to pseudo-RS/6K code, scheduled, and run on the
// simulator.
//
// The subset: global int scalars and arrays (optionally initialised),
// functions over ints, locals, assignment, arithmetic and bitwise
// operators, comparisons, short-circuit && and ||, if/else, while, for,
// do-while, break/continue, return, and calls including the print
// builtin.
package minic

import "fmt"

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokFNumber

	// Keywords.
	kwInt
	kwFloat
	kwVoid
	kwIf
	kwElse
	kwWhile
	kwFor
	kwDo
	kwReturn
	kwBreak
	kwContinue

	// Punctuation and operators.
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokSemi
	tokComma
	tokAssign // =
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokAmp
	tokPipe
	tokCaret
	tokShl // <<
	tokShr // >>
	tokLt
	tokGt
	tokLe
	tokGe
	tokEqEq
	tokNotEq
	tokAndAnd
	tokOrOr
	tokNot // !
	tokTilde
	tokPlusPlus
	tokMinusMinus
	tokPlusAssign  // +=
	tokMinusAssign // -=
)

var kindNames = map[tokKind]string{
	tokEOF: "end of file", tokIdent: "identifier", tokNumber: "number",
	tokFNumber: "float number",
	kwInt:      "'int'", kwFloat: "'float'", kwVoid: "'void'", kwIf: "'if'", kwElse: "'else'",
	kwWhile: "'while'", kwFor: "'for'", kwDo: "'do'", kwReturn: "'return'",
	kwBreak: "'break'", kwContinue: "'continue'",
	tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'", tokRBrace: "'}'",
	tokLBracket: "'['", tokRBracket: "']'", tokSemi: "';'", tokComma: "','",
	tokAssign: "'='", tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'",
	tokPercent: "'%'", tokAmp: "'&'", tokPipe: "'|'", tokCaret: "'^'",
	tokShl: "'<<'", tokShr: "'>>'", tokLt: "'<'", tokGt: "'>'", tokLe: "'<='", tokGe: "'>='",
	tokEqEq: "'=='", tokNotEq: "'!='", tokAndAnd: "'&&'", tokOrOr: "'||'",
	tokNot: "'!'", tokTilde: "'~'", tokPlusPlus: "'++'", tokMinusMinus: "'--'",
	tokPlusAssign: "'+='", tokMinusAssign: "'-='",
}

func (k tokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

// token is one lexical token with its source position.
type token struct {
	Kind tokKind
	Text string
	Num  int64   // value of tokNumber tokens
	FNum float64 // value of tokFNumber tokens
	Line int
	Col  int
}

func (t token) String() string {
	switch t.Kind {
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case tokNumber:
		return fmt.Sprintf("number %d", t.Num)
	case tokFNumber:
		return fmt.Sprintf("number %g", t.FNum)
	}
	return t.Kind.String()
}

// compileError is a compile error with position information.
type compileError struct {
	Line, Col int
	Msg       string
}

func (e *compileError) Error() string { return fmt.Sprintf("minic: %d:%d: %s", e.Line, e.Col, e.Msg) }

func errAt(line, col int, format string, args ...any) error {
	return &compileError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
