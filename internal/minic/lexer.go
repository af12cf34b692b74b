package minic

import "strconv"

var keywords = map[string]tokKind{
	"int": kwInt, "float": kwFloat, "void": kwVoid, "if": kwIf, "else": kwElse,
	"while": kwWhile, "for": kwFor, "do": kwDo, "return": kwReturn,
	"break": kwBreak, "continue": kwContinue,
}

// oneKind maps each one-character operator or punctuator to its kind;
// every other byte maps to tokEOF.
var oneKind = [256]tokKind{
	'(': tokLParen, ')': tokRParen, '{': tokLBrace, '}': tokRBrace,
	'[': tokLBracket, ']': tokRBracket, ';': tokSemi, ',': tokComma,
	'=': tokAssign, '+': tokPlus, '-': tokMinus, '*': tokStar, '/': tokSlash,
	'%': tokPercent, '&': tokAmp, '|': tokPipe, '^': tokCaret,
	'<': tokLt, '>': tokGt, '!': tokNot, '~': tokTilde,
}

// pairKind returns the kind of the two-character operator c0 c1, or tokEOF
// if the pair is not one.
func pairKind(c0, c1 byte) tokKind {
	switch c1 {
	case '=':
		switch c0 {
		case '<':
			return tokLe
		case '>':
			return tokGe
		case '=':
			return tokEqEq
		case '!':
			return tokNotEq
		case '+':
			return tokPlusAssign
		case '-':
			return tokMinusAssign
		}
	case c0:
		switch c0 {
		case '<':
			return tokShl
		case '>':
			return tokShr
		case '&':
			return tokAndAnd
		case '|':
			return tokOrOr
		case '+':
			return tokPlusPlus
		case '-':
			return tokMinusMinus
		}
	}
	return tokEOF
}

// lex tokenises src, returning all tokens including a final tokEOF.
func lex(src string) ([]token, error) {
	// The workload and generated sources average three to four bytes
	// per token, so this presize rarely grows and never doubles.
	toks := make([]token, 0, len(src)/3+16)
	line, col := 1, 1
	i := 0
	emit := func(k tokKind, text string, num int64, c int) {
		toks = append(toks, token{Kind: k, Text: text, Num: num, Line: line, Col: c})
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
				emit(tokIdent, word, 0, startCol)
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
				toks = append(toks, token{Kind: tokFNumber, Text: src[start:i], FNum: v, Line: line, Col: startCol})
				continue
			}
			n, err := strconv.ParseInt(src[start:i], 10, 64)
			if err != nil {
				return nil, errAt(line, startCol, "bad number %q", src[start:i])
			}
			emit(tokNumber, src[start:i], n, startCol)
			continue
		}

		startCol := col
		if i+1 < len(src) {
			if k := pairKind(c, src[i+1]); k != tokEOF {
				emit(k, src[i:i+2], 0, startCol)
				i += 2
				col += 2
				continue
			}
		}
		if k := oneKind[c]; k != tokEOF {
			emit(k, src[i:i+1], 0, startCol)
			i++
			col++
			continue
		}
		return nil, errAt(line, col, "unexpected character %q", string(c))
	}
	emit(tokEOF, "", 0, col)
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
