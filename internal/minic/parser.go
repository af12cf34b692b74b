package minic

// Recursive descent parser with conventional C precedence:
//
//	||  &&  |  ^  &  == !=  < <= > >=  << >>  + -  * / %  unary  primary

type parserState struct {
	toks []token
	pos  int
}

func (p *parserState) cur() token        { return p.toks[p.pos] }
func (p *parserState) at(k tokKind) bool { return p.cur().Kind == k }

func (p *parserState) next() token {
	t := p.toks[p.pos]
	if t.Kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parserState) expect(k tokKind) (token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errAt(t.Line, t.Col, "expected %s, found %s", k, t)
	}
	return p.next(), nil
}

func (p *parserState) parseGlobalRest(name string, line int) (*globalDecl, error) {
	g := &globalDecl{Name: name, Line: line}
	if p.at(tokLBracket) {
		p.next()
		n, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		if n.Num <= 0 {
			return nil, errAt(n.Line, n.Col, "array size must be positive")
		}
		g.Size = n.Num
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
	}
	if p.at(tokAssign) {
		p.next()
		if g.Size > 0 {
			if _, err := p.expect(tokLBrace); err != nil {
				return nil, err
			}
			for !p.at(tokRBrace) {
				v, err := p.parseSignedNumber()
				if err != nil {
					return nil, err
				}
				g.Init = append(g.Init, v)
				if p.at(tokComma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(tokRBrace); err != nil {
				return nil, err
			}
			if int64(len(g.Init)) > g.Size {
				return nil, errAt(line, 1, "%d initialisers exceed array size %d", len(g.Init), g.Size)
			}
		} else {
			v, err := p.parseSignedNumber()
			if err != nil {
				return nil, err
			}
			g.Init = []int64{v}
		}
	}
	_, err := p.expect(tokSemi)
	return g, err
}

func (p *parserState) parseSignedNumber() (int64, error) {
	neg := false
	if p.at(tokMinus) {
		p.next()
		neg = true
	}
	n, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	if neg {
		return -n.Num, nil
	}
	return n.Num, nil
}

// parseFuncSig parses the parameter list "(...)" into fn, stopping
// before the body so the streaming scan can skip it.
func (p *parserState) parseFuncSig(fn *funcDecl) error {
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	if p.at(kwVoid) && p.toks[p.pos+1].Kind == tokRParen {
		p.next()
	}
	for !p.at(tokRParen) {
		if _, err := p.expect(kwInt); err != nil {
			return err
		}
		id, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		fn.Params = append(fn.Params, id.Text)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	_, err := p.expect(tokRParen)
	return err
}

// skipBlock advances past a balanced-brace block without parsing it,
// returning the token index of its opening brace.
func (p *parserState) skipBlock() (int, error) {
	start := p.pos
	if _, err := p.expect(tokLBrace); err != nil {
		return 0, err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		switch t.Kind {
		case tokLBrace:
			depth++
		case tokRBrace:
			depth--
		case tokEOF:
			return 0, errAt(t.Line, t.Col, "unexpected end of file inside block")
		}
	}
	return start, nil
}

func (p *parserState) parseBlock() (*blockStmt, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	b := &blockStmt{}
	for !p.at(tokRBrace) {
		if p.at(tokEOF) {
			t := p.cur()
			return nil, errAt(t.Line, t.Col, "unexpected end of file inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next()
	return b, nil
}

func (p *parserState) parseStmt() (statement, error) {
	t := p.cur()
	switch t.Kind {
	case tokLBrace:
		return p.parseBlock()
	case kwInt, kwFloat:
		p.next()
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		d := &declStmt{Name: id.Text, Float: t.Kind == kwFloat, Line: id.Line}
		if p.at(tokAssign) {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		_, err = p.expect(tokSemi)
		return d, err
	case kwIf:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s := &ifStmt{Cond: cond, Then: then}
		if p.at(kwElse) {
			p.next()
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
		return s, nil
	case kwWhile:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &whileStmt{Cond: cond, Body: body}, nil
	case kwDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(kwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		_, err = p.expect(tokSemi)
		return &doWhileStmt{Body: body, Cond: cond}, err
	case kwFor:
		return p.parseFor()
	case kwReturn:
		p.next()
		s := &returnStmt{Line: t.Line}
		if !p.at(tokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Value = e
		}
		_, err := p.expect(tokSemi)
		return s, err
	case kwBreak:
		p.next()
		_, err := p.expect(tokSemi)
		return &breakStmt{Line: t.Line}, err
	case kwContinue:
		p.next()
		_, err := p.expect(tokSemi)
		return &continueStmt{Line: t.Line}, err
	case tokSemi:
		p.next()
		return &blockStmt{}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tokSemi)
		return s, err
	}
}

// parseSimpleStmt parses assignment, ++/--, or an expression statement,
// without the trailing semicolon (shared by for-clauses).
func (p *parserState) parseSimpleStmt() (statement, error) {
	t := p.cur()
	if t.Kind == tokIdent {
		// Lookahead decides between lvalue statements and expressions.
		save := p.pos
		p.next()
		var idx expression
		if p.at(tokLBracket) {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			idx = e
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
		}
		lv := &lvalue{Name: t.Text, Index: idx, Line: t.Line}
		switch p.cur().Kind {
		case tokAssign, tokPlusAssign, tokMinusAssign:
			op := p.next().Kind
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &assignStmt{Target: lv, Op: op, Value: v, Line: t.Line}, nil
		case tokPlusPlus, tokMinusMinus:
			dec := p.next().Kind == tokMinusMinus
			return &incDecStmt{Target: lv, Dec: dec, Line: t.Line}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &exprStmt{X: e}, nil
}

func (p *parserState) parseFor() (statement, error) {
	p.next() // for
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	s := &forStmt{}
	if !p.at(tokSemi) {
		if p.at(kwInt) || p.at(kwFloat) {
			isFloat := p.at(kwFloat)
			p.next()
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			d := &declStmt{Name: id.Text, Float: isFloat, Line: id.Line}
			if p.at(tokAssign) {
				p.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				d.Init = e
			}
			s.Init = d
		} else {
			st, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			s.Init = st
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if !p.at(tokSemi) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = e
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if !p.at(tokRParen) {
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = st
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// Binary precedence levels, loosest first.
var precLevels = [][]tokKind{
	{tokOrOr},
	{tokAndAnd},
	{tokPipe},
	{tokCaret},
	{tokAmp},
	{tokEqEq, tokNotEq},
	{tokLt, tokLe, tokGt, tokGe},
	{tokShl, tokShr},
	{tokPlus, tokMinus},
	{tokStar, tokSlash, tokPercent},
}

func (p *parserState) parseExpr() (expression, error) { return p.parseBin(0) }

func (p *parserState) parseBin(level int) (expression, error) {
	if level == len(precLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBin(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		found := false
		for _, k := range precLevels[level] {
			if t.Kind == k {
				found = true
				break
			}
		}
		if !found {
			return x, nil
		}
		p.next()
		y, err := p.parseBin(level + 1)
		if err != nil {
			return nil, err
		}
		x = &binExpr{Op: t.Kind, X: x, Y: y, Line: t.Line}
	}
}

func (p *parserState) parseUnary() (expression, error) {
	t := p.cur()
	switch t.Kind {
	case tokMinus, tokNot, tokTilde:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: t.Kind, X: x, Line: t.Line}, nil
	}
	return p.parsePrimary()
}

func (p *parserState) parsePrimary() (expression, error) {
	t := p.cur()
	switch t.Kind {
	case tokNumber:
		p.next()
		return &numExpr{Value: t.Num, Line: t.Line}, nil
	case tokFNumber:
		p.next()
		return &fnumExpr{Value: t.FNum, Line: t.Line}, nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tokRParen)
		return e, err
	case tokIdent:
		p.next()
		switch p.cur().Kind {
		case tokLParen:
			p.next()
			call := &callExpr{Name: t.Text, Line: t.Line}
			for !p.at(tokRParen) {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.at(tokComma) {
					p.next()
					continue
				}
				break
			}
			_, err := p.expect(tokRParen)
			return call, err
		case tokLBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			return &indexExpr{Name: t.Text, Index: idx, Line: t.Line}, nil
		}
		return &varExpr{Name: t.Text, Line: t.Line}, nil
	}
	return nil, errAt(t.Line, t.Col, "expected expression, found %s", t)
}
