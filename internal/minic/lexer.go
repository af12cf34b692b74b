package minic

import "strconv"

var keywords = map[string]Kind{
	"int": KwInt, "float": KwFloat, "void": KwVoid, "if": KwIf, "else": KwElse,
	"while": KwWhile, "for": KwFor, "do": KwDo, "return": KwReturn,
	"break": KwBreak, "continue": KwContinue,
}

// oneKind maps each one-character operator or punctuator to its kind;
// every other byte maps to EOF.
var oneKind = [256]Kind{
	'(': LParen, ')': RParen, '{': LBrace, '}': RBrace,
	'[': LBracket, ']': RBracket, ';': Semi, ',': Comma,
	'=': Assign, '+': Plus, '-': Minus, '*': Star, '/': Slash,
	'%': Percent, '&': Amp, '|': Pipe, '^': Caret,
	'<': Lt, '>': Gt, '!': Not, '~': Tilde,
}

// pairKind returns the kind of the two-character operator c0 c1, or EOF
// if the pair is not one.
func pairKind(c0, c1 byte) Kind {
	switch c1 {
	case '=':
		switch c0 {
		case '<':
			return Le
		case '>':
			return Ge
		case '=':
			return EqEq
		case '!':
			return NotEq
		case '+':
			return PlusAssign
		case '-':
			return MinusAssign
		}
	case c0:
		switch c0 {
		case '<':
			return Shl
		case '>':
			return Shr
		case '&':
			return AndAnd
		case '|':
			return OrOr
		case '+':
			return PlusPlus
		case '-':
			return MinusMinus
		}
	}
	return EOF
}

// Lex tokenises src, returning all tokens including a final EOF.
func Lex(src string) ([]Token, error) {
	// The workload and generated sources average three to four bytes
	// per token, so this presize rarely grows and never doubles.
	toks := make([]Token, 0, len(src)/3+16)
	line, col := 1, 1
	i := 0
	emit := func(k Kind, text string, num int64, c int) {
		toks = append(toks, Token{Kind: k, Text: text, Num: num, Line: line, Col: c})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			col = 1
			i++
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
			continue
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			col += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
					col = 1
				} else {
					col++
				}
				i++
			}
			if i+1 >= len(src) {
				return nil, errAt(line, col, "unterminated block comment")
			}
			i += 2
			col += 2
			continue
		case isAlpha(c):
			start, startCol := i, col
			for i < len(src) && (isAlpha(src[i]) || isDigit(src[i])) {
				i++
				col++
			}
			word := src[start:i]
			if k, ok := keywords[word]; ok {
				emit(k, word, 0, startCol)
			} else {
				emit(IDENT, word, 0, startCol)
			}
			continue
		case isDigit(c):
			start, startCol := i, col
			for i < len(src) && isDigit(src[i]) {
				i++
				col++
			}
			// A dot followed by a digit continues into a float literal.
			if i+1 < len(src) && src[i] == '.' && isDigit(src[i+1]) {
				i++
				col++
				for i < len(src) && isDigit(src[i]) {
					i++
					col++
				}
				v, err := strconv.ParseFloat(src[start:i], 64)
				if err != nil {
					return nil, errAt(line, startCol, "bad float %q", src[start:i])
				}
				toks = append(toks, Token{Kind: FNUMBER, Text: src[start:i], FNum: v, Line: line, Col: startCol})
				continue
			}
			n, err := strconv.ParseInt(src[start:i], 10, 64)
			if err != nil {
				return nil, errAt(line, startCol, "bad number %q", src[start:i])
			}
			emit(NUMBER, src[start:i], n, startCol)
			continue
		}

		startCol := col
		if i+1 < len(src) {
			if k := pairKind(c, src[i+1]); k != EOF {
				emit(k, src[i:i+2], 0, startCol)
				i += 2
				col += 2
				continue
			}
		}
		if k := oneKind[c]; k != EOF {
			emit(k, src[i:i+1], 0, startCol)
			i++
			col++
			continue
		}
		return nil, errAt(line, col, "unexpected character %q", string(c))
	}
	emit(EOF, "", 0, col)
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
