package minic

// Recursive descent parser with conventional C precedence:
//
//	||  &&  |  ^  &  == !=  < <= > >=  << >>  + -  * / %  unary  primary

type parserState struct {
	toks []Token
	pos  int
}

func (p *parserState) cur() Token     { return p.toks[p.pos] }
func (p *parserState) at(k Kind) bool { return p.cur().Kind == k }

func (p *parserState) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *parserState) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errAt(t.Line, t.Col, "expected %s, found %s", k, t)
	}
	return p.next(), nil
}

func (p *parserState) parseGlobalRest(name string, line int) (*GlobalDecl, error) {
	g := &GlobalDecl{Name: name, Line: line}
	if p.at(LBracket) {
		p.next()
		n, err := p.expect(NUMBER)
		if err != nil {
			return nil, err
		}
		if n.Num <= 0 {
			return nil, errAt(n.Line, n.Col, "array size must be positive")
		}
		g.Size = n.Num
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
	}
	if p.at(Assign) {
		p.next()
		if g.Size > 0 {
			if _, err := p.expect(LBrace); err != nil {
				return nil, err
			}
			for !p.at(RBrace) {
				v, err := p.parseSignedNumber()
				if err != nil {
					return nil, err
				}
				g.Init = append(g.Init, v)
				if p.at(Comma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(RBrace); err != nil {
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
	_, err := p.expect(Semi)
	return g, err
}

func (p *parserState) parseSignedNumber() (int64, error) {
	neg := false
	if p.at(Minus) {
		p.next()
		neg = true
	}
	n, err := p.expect(NUMBER)
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
func (p *parserState) parseFuncSig(fn *FuncDecl) error {
	if _, err := p.expect(LParen); err != nil {
		return err
	}
	if p.at(KwVoid) && p.toks[p.pos+1].Kind == RParen {
		p.next()
	}
	for !p.at(RParen) {
		if _, err := p.expect(KwInt); err != nil {
			return err
		}
		id, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		fn.Params = append(fn.Params, id.Text)
		if p.at(Comma) {
			p.next()
			continue
		}
		break
	}
	_, err := p.expect(RParen)
	return err
}

// skipBlock advances past a balanced-brace block without parsing it,
// returning the token index of its opening brace.
func (p *parserState) skipBlock() (int, error) {
	start := p.pos
	if _, err := p.expect(LBrace); err != nil {
		return 0, err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		switch t.Kind {
		case LBrace:
			depth++
		case RBrace:
			depth--
		case EOF:
			return 0, errAt(t.Line, t.Col, "unexpected end of file inside block")
		}
	}
	return start, nil
}

func (p *parserState) parseBlock() (*BlockStmt, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.at(RBrace) {
		if p.at(EOF) {
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

func (p *parserState) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case LBrace:
		return p.parseBlock()
	case KwInt, KwFloat:
		p.next()
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		d := &DeclStmt{Name: id.Text, Float: t.Kind == KwFloat, Line: id.Line}
		if p.at(Assign) {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		_, err = p.expect(Semi)
		return d, err
	case KwIf:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s := &IfStmt{Cond: cond, Then: then}
		if p.at(KwElse) {
			p.next()
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
		return s, nil
	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case KwDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		_, err = p.expect(Semi)
		return &DoWhileStmt{Body: body, Cond: cond}, err
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.next()
		s := &ReturnStmt{Line: t.Line}
		if !p.at(Semi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Value = e
		}
		_, err := p.expect(Semi)
		return s, err
	case KwBreak:
		p.next()
		_, err := p.expect(Semi)
		return &BreakStmt{Line: t.Line}, err
	case KwContinue:
		p.next()
		_, err := p.expect(Semi)
		return &ContinueStmt{Line: t.Line}, err
	case Semi:
		p.next()
		return &BlockStmt{}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(Semi)
		return s, err
	}
}

// parseSimpleStmt parses assignment, ++/--, or an expression statement,
// without the trailing semicolon (shared by for-clauses).
func (p *parserState) parseSimpleStmt() (Stmt, error) {
	t := p.cur()
	if t.Kind == IDENT {
		// Lookahead decides between lvalue statements and expressions.
		save := p.pos
		p.next()
		var idx Expr
		if p.at(LBracket) {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			idx = e
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
		}
		lv := &LValue{Name: t.Text, Index: idx, Line: t.Line}
		switch p.cur().Kind {
		case Assign, PlusAssign, MinusAssign:
			op := p.next().Kind
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{Target: lv, Op: op, Value: v, Line: t.Line}, nil
		case PlusPlus, MinusMinus:
			dec := p.next().Kind == MinusMinus
			return &IncDecStmt{Target: lv, Dec: dec, Line: t.Line}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{X: e}, nil
}

func (p *parserState) parseFor() (Stmt, error) {
	p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	s := &ForStmt{}
	if !p.at(Semi) {
		if p.at(KwInt) || p.at(KwFloat) {
			isFloat := p.at(KwFloat)
			p.next()
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			d := &DeclStmt{Name: id.Text, Float: isFloat, Line: id.Line}
			if p.at(Assign) {
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
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(Semi) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = e
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = st
	}
	if _, err := p.expect(RParen); err != nil {
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
var precLevels = [][]Kind{
	{OrOr},
	{AndAnd},
	{Pipe},
	{Caret},
	{Amp},
	{EqEq, NotEq},
	{Lt, Le, Gt, Ge},
	{Shl, Shr},
	{Plus, Minus},
	{Star, Slash, Percent},
}

func (p *parserState) parseExpr() (Expr, error) { return p.parseBin(0) }

func (p *parserState) parseBin(level int) (Expr, error) {
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
		x = &BinExpr{Op: t.Kind, X: x, Y: y, Line: t.Line}
	}
}

func (p *parserState) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case Minus, Not, Tilde:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Kind, X: x, Line: t.Line}, nil
	}
	return p.parsePrimary()
}

func (p *parserState) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case NUMBER:
		p.next()
		return &NumExpr{Value: t.Num, Line: t.Line}, nil
	case FNUMBER:
		p.next()
		return &FNumExpr{Value: t.FNum, Line: t.Line}, nil
	case LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(RParen)
		return e, err
	case IDENT:
		p.next()
		switch p.cur().Kind {
		case LParen:
			p.next()
			call := &CallExpr{Name: t.Text, Line: t.Line}
			for !p.at(RParen) {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.at(Comma) {
					p.next()
					continue
				}
				break
			}
			_, err := p.expect(RParen)
			return call, err
		case LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Name: t.Text, Index: idx, Line: t.Line}, nil
		}
		return &VarExpr{Name: t.Text, Line: t.Line}, nil
	}
	return nil, errAt(t.Line, t.Col, "expected expression, found %s", t)
}
