package minic

import (
	"fmt"
	"math"

	"gsched/internal/asm"
	"gsched/internal/ir"
)

// Compile parses and compiles a mini-C source file into an ir program.
// It reads every function of Dialect (see stream.go), so the
// whole-program and per-function paths share one implementation.
func Compile(src string) (*ir.Program, error) { return asm.ReadProgram(Dialect, src) }

// newGen builds the whole-unit symbol tables every function's lowering
// needs (globals for addressing, function signatures for call arity and
// void checks — calls may reference functions declared later), and
// registers the global data symbols on the output program.
func newGen(globals []*globalDecl, funcs []*funcDecl) (*gen, error) {
	g := &gen{
		out:     ir.NewProgram(),
		globals: make(map[string]*globalDecl),
		funcs:   make(map[string]*funcDecl),
	}
	for _, gd := range globals {
		if g.globals[gd.Name] != nil {
			return nil, errAt(gd.Line, 1, "global %q redeclared", gd.Name)
		}
		g.globals[gd.Name] = gd
		words := gd.Size
		if words == 0 {
			words = 1
		}
		s := g.out.AddSym(gd.Name, words)
		s.Init = gd.Init
	}
	for _, fn := range funcs {
		if g.funcs[fn.Name] != nil {
			return nil, errAt(fn.Line, 1, "function %q redeclared", fn.Name)
		}
		if g.globals[fn.Name] != nil {
			return nil, errAt(fn.Line, 1, "%q redeclared as function", fn.Name)
		}
		g.funcs[fn.Name] = fn
	}
	return g, nil
}

type loopCtx struct {
	breakLbl    string
	continueLbl string
}

type gen struct {
	out     *ir.Program
	globals map[string]*globalDecl
	funcs   map[string]*funcDecl

	fn     *funcDecl
	f      *ir.Func
	b      *ir.Builder
	scopes []map[string]ir.Reg
	loops  []loopCtx
	labelN int
}

func (g *gen) fresh(prefix string) string {
	g.labelN++
	return fmt.Sprintf(".%s%d", prefix, g.labelN)
}

// cur ensures an open (unterminated) block and returns the builder.
func (g *gen) cur() *ir.Builder {
	if g.b.Cur == nil || g.b.Cur.Terminator() != nil {
		g.b.Block("")
	}
	return g.b
}

// block opens a new labelled block.
func (g *gen) block(label string) { g.b.Block(label) }

func (g *gen) pushScope() { g.scopes = append(g.scopes, make(map[string]ir.Reg)) }
func (g *gen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *gen) declare(name string, class ir.RegClass, line int) (ir.Reg, error) {
	scope := g.scopes[len(g.scopes)-1]
	if _, dup := scope[name]; dup {
		return ir.NoReg, errAt(line, 1, "%q redeclared in this scope", name)
	}
	r := g.f.NewReg(class)
	scope[name] = r
	return r, nil
}

// isF reports whether a value register holds a float.
func isF(r ir.Reg) bool { return r.Class == ir.ClassFPR }

// toFloat coerces a value to the float register class (FCVT).
func (g *gen) toFloat(r ir.Reg) ir.Reg {
	if isF(r) {
		return r
	}
	t := g.f.NewReg(ir.ClassFPR)
	g.cur().Emit(ir.OpFCvt, func(i *ir.Instr) { i.Def = t; i.A = r })
	return t
}

// toInt coerces a value to the fixed register class (FTRUNC).
func (g *gen) toInt(r ir.Reg) ir.Reg {
	if !isF(r) {
		return r
	}
	t := g.f.NewReg(ir.ClassGPR)
	g.cur().Emit(ir.OpFTrunc, func(i *ir.Instr) { i.Def = t; i.A = r })
	return t
}

// floatNum materialises a float literal. The machine has no float
// immediates and the object format no float data, so literals are built
// arithmetically: the exact small rational num/10^k when one exists
// (every source literal like 2.5 does), otherwise truncated to an
// integer. Both paths are deterministic, which is what the differential
// oracle needs.
func (g *gen) floatNum(v float64) ir.Reg {
	num, den := v, int64(1)
	for i := 0; i < 15 && num != math.Trunc(num); i++ {
		num *= 10
		den *= 10
	}
	f := g.f.NewReg(ir.ClassFPR)
	if math.IsNaN(num) || math.Abs(num) >= 1<<53 {
		z := g.f.NewReg(ir.ClassGPR)
		g.cur().LI(z, 0)
		g.cur().Emit(ir.OpFCvt, func(i *ir.Instr) { i.Def = f; i.A = z })
		return f
	}
	n := g.f.NewReg(ir.ClassGPR)
	g.cur().LI(n, int64(num))
	g.cur().Emit(ir.OpFCvt, func(i *ir.Instr) { i.Def = f; i.A = n })
	if den == 1 {
		return f
	}
	d := g.f.NewReg(ir.ClassGPR)
	g.cur().LI(d, den)
	fd := g.f.NewReg(ir.ClassFPR)
	g.cur().Emit(ir.OpFCvt, func(i *ir.Instr) { i.Def = fd; i.A = d })
	q := g.f.NewReg(ir.ClassFPR)
	g.cur().Emit(ir.OpFDiv, func(i *ir.Instr) { i.Def = q; i.A = f; i.B = fd })
	return q
}

func (g *gen) lookup(name string) (ir.Reg, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if r, ok := g.scopes[i][name]; ok {
			return r, true
		}
	}
	return ir.NoReg, false
}

// genFunc lowers one function; the caller decides where the result
// goes (Generate appends it to the output program, the streaming
// reader hands it to its consumer). Label numbering (g.labelN)
// continues across calls, so lowering functions one at a time yields
// the same bytes as lowering them all.
func (g *gen) genFunc(fn *funcDecl) (*ir.Func, error) {
	g.fn = fn
	g.f = ir.NewFunc(fn.Name)
	g.b = ir.NewBuilder(g.f)
	g.scopes = nil
	g.loops = nil
	g.pushScope()
	g.block("entry")
	for _, p := range fn.Params {
		r, err := g.declare(p, ir.ClassGPR, fn.Line)
		if err != nil {
			return nil, err
		}
		g.f.Params = append(g.f.Params, r)
	}
	// The body's top level shares the parameter scope, so a local
	// redeclaring a parameter is rejected (as in C).
	for _, s := range fn.Body.Stmts {
		if err := g.genStmt(s); err != nil {
			return nil, err
		}
	}
	// Fall-off-the-end return.
	if g.b.Cur == nil || g.b.Cur.Terminator() == nil {
		if fn.Void {
			g.cur().Ret(ir.NoReg)
		} else {
			r := g.f.NewReg(ir.ClassGPR)
			g.cur().LI(r, 0)
			g.cur().Ret(r)
		}
	}
	// Drop empty unlabelled blocks: they only pass control through and
	// would otherwise inflate region block counts.
	kept := g.f.Blocks[:0]
	for _, b := range g.f.Blocks {
		if len(b.Instrs) == 0 && b.Label == "" {
			continue
		}
		kept = append(kept, b)
	}
	g.f.Blocks = kept
	g.f.ReindexBlocks()
	g.popScope()
	return g.f, nil
}

func (g *gen) genBlockStmt(b *blockStmt) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) genStmt(s statement) error {
	switch s := s.(type) {
	case *blockStmt:
		return g.genBlockStmt(s)

	case *declStmt:
		class := ir.ClassGPR
		if s.Float {
			class = ir.ClassFPR
		}
		r, err := g.declare(s.Name, class, s.Line)
		if err != nil {
			return err
		}
		if s.Init != nil {
			v, err := g.genExpr(s.Init)
			if err != nil {
				return err
			}
			g.move(r, v)
		} else if s.Float {
			g.move(r, g.floatNum(0))
		} else {
			g.cur().LI(r, 0)
		}
		return nil

	case *assignStmt:
		val, err := g.genExpr(s.Value)
		if err != nil {
			return err
		}
		if s.Op != tokAssign {
			old, err := g.loadLValue(s.Target)
			if err != nil {
				return err
			}
			op := ir.OpAdd
			if s.Op == tokMinusAssign {
				op = ir.OpSub
			}
			if isF(old) || isF(val) {
				t := g.f.NewReg(ir.ClassFPR)
				a, b := g.toFloat(old), g.toFloat(val)
				g.cur().Emit(op.Form().FloatOp, func(i *ir.Instr) { i.Def = t; i.A = a; i.B = b })
				val = t
			} else {
				t := g.f.NewReg(ir.ClassGPR)
				g.cur().Op2(op, t, old, val)
				val = t
			}
		}
		return g.storeLValue(s.Target, val)

	case *incDecStmt:
		old, err := g.loadLValue(s.Target)
		if err != nil {
			return err
		}
		d := int64(1)
		if s.Dec {
			d = -1
		}
		if isF(old) {
			one := g.floatNum(float64(d))
			t := g.f.NewReg(ir.ClassFPR)
			g.cur().Emit(ir.OpFAdd, func(i *ir.Instr) { i.Def = t; i.A = old; i.B = one })
			return g.storeLValue(s.Target, t)
		}
		t := g.f.NewReg(ir.ClassGPR)
		g.cur().AI(t, old, d)
		return g.storeLValue(s.Target, t)

	case *ifStmt:
		elseLbl := g.fresh("else")
		endLbl := g.fresh("endif")
		target := endLbl
		if s.Else != nil {
			target = elseLbl
		}
		if err := g.genCondJump(s.Cond, target, false); err != nil {
			return err
		}
		if err := g.genStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			g.jumpTo(endLbl)
			g.block(elseLbl)
			if err := g.genStmt(s.Else); err != nil {
				return err
			}
		}
		g.block(endLbl)
		return nil

	case *whileStmt:
		head := g.fresh("while")
		exit := g.fresh("wend")
		g.block(head)
		if err := g.genCondJump(s.Cond, exit, false); err != nil {
			return err
		}
		g.loops = append(g.loops, loopCtx{breakLbl: exit, continueLbl: head})
		err := g.genStmt(s.Body)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		g.jumpTo(head)
		g.block(exit)
		return nil

	case *doWhileStmt:
		head := g.fresh("do")
		cond := g.fresh("docond")
		exit := g.fresh("dend")
		g.block(head)
		g.loops = append(g.loops, loopCtx{breakLbl: exit, continueLbl: cond})
		err := g.genStmt(s.Body)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		g.block(cond)
		if err := g.genCondJump(s.Cond, head, true); err != nil {
			return err
		}
		g.block(exit)
		return nil

	case *forStmt:
		if s.Init != nil {
			// The init clause may declare a variable scoped to the loop.
			g.pushScope()
			defer g.popScope()
			if err := g.genStmt(s.Init); err != nil {
				return err
			}
		}
		head := g.fresh("for")
		post := g.fresh("fpost")
		exit := g.fresh("fend")
		g.block(head)
		if s.Cond != nil {
			if err := g.genCondJump(s.Cond, exit, false); err != nil {
				return err
			}
		}
		g.loops = append(g.loops, loopCtx{breakLbl: exit, continueLbl: post})
		err := g.genStmt(s.Body)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		g.block(post)
		if s.Post != nil {
			if err := g.genStmt(s.Post); err != nil {
				return err
			}
		}
		g.jumpTo(head)
		g.block(exit)
		return nil

	case *returnStmt:
		if g.fn.Void {
			if s.Value != nil {
				return errAt(s.Line, 1, "void function %q returns a value", g.fn.Name)
			}
			g.cur().Ret(ir.NoReg)
			g.b.Cur = nil
			return nil
		}
		if s.Value == nil {
			return errAt(s.Line, 1, "function %q must return a value", g.fn.Name)
		}
		v, err := g.genExpr(s.Value)
		if err != nil {
			return err
		}
		g.cur().Ret(g.toInt(v))
		g.b.Cur = nil
		return nil

	case *breakStmt:
		if len(g.loops) == 0 {
			return errAt(s.Line, 1, "break outside a loop")
		}
		g.jumpTo(g.loops[len(g.loops)-1].breakLbl)
		return nil

	case *continueStmt:
		if len(g.loops) == 0 {
			return errAt(s.Line, 1, "continue outside a loop")
		}
		g.jumpTo(g.loops[len(g.loops)-1].continueLbl)
		return nil

	case *exprStmt:
		if call, ok := s.X.(*callExpr); ok {
			_, err := g.genCall(call, false)
			return err
		}
		_, err := g.genExpr(s.X)
		return err
	}
	return fmt.Errorf("minic: internal: unknown statement %T", s)
}

// jumpTo unconditionally branches to lbl unless the current block is
// already terminated (e.g. by a return inside the loop body).
func (g *gen) jumpTo(lbl string) {
	if g.b.Cur != nil && g.b.Cur.Terminator() != nil {
		return
	}
	g.cur().B(lbl)
	g.b.Cur = nil
}

// move copies val into dst, coercing across register classes.
func (g *gen) move(dst, val ir.Reg) {
	if isF(dst) {
		v := g.toFloat(val)
		g.cur().Emit(ir.OpFMove, func(i *ir.Instr) { i.Def = dst; i.A = v })
		return
	}
	g.cur().LR(dst, g.toInt(val))
}

// loadLValue reads the current value of an lvalue.
func (g *gen) loadLValue(lv *lvalue) (ir.Reg, error) {
	return g.genExprVar(lv.Name, lv.Index, lv.Line)
}

// storeLValue writes val into the lvalue. Memory holds ints only, so
// float values are truncated on the way into globals and arrays.
func (g *gen) storeLValue(lv *lvalue, val ir.Reg) error {
	if lv.Index == nil {
		if r, ok := g.lookup(lv.Name); ok {
			g.move(r, val)
			return nil
		}
		gd := g.globals[lv.Name]
		if gd == nil {
			return errAt(lv.Line, 1, "undefined variable %q", lv.Name)
		}
		if gd.Size > 0 {
			return errAt(lv.Line, 1, "array %q assigned without an index", lv.Name)
		}
		g.cur().Store(lv.Name, ir.NoReg, 0, g.toInt(val))
		return nil
	}
	gd := g.globals[lv.Name]
	if gd == nil {
		if _, ok := g.lookup(lv.Name); ok {
			return errAt(lv.Line, 1, "%q is not an array", lv.Name)
		}
		return errAt(lv.Line, 1, "undefined array %q", lv.Name)
	}
	if gd.Size == 0 {
		return errAt(lv.Line, 1, "%q is not an array", lv.Name)
	}
	addr, err := g.genIndexAddr(lv.Index)
	if err != nil {
		return err
	}
	g.cur().Store(lv.Name, addr, 0, g.toInt(val))
	return nil
}

// genIndexAddr computes a byte offset register for an element index.
func (g *gen) genIndexAddr(idx expression) (ir.Reg, error) {
	// Constant indices become plain displacements off a zero register
	// only if we had one; scaling a constant at compile time is simpler.
	if n, ok := idx.(*numExpr); ok {
		r := g.f.NewReg(ir.ClassGPR)
		g.cur().LI(r, n.Value*ir.WordSize)
		return r, nil
	}
	v, err := g.genExpr(idx)
	if err != nil {
		return ir.NoReg, err
	}
	r := g.f.NewReg(ir.ClassGPR)
	g.cur().OpI(ir.OpShlI, r, g.toInt(v), 2)
	return r, nil
}

func (g *gen) genExprVar(name string, index expression, line int) (ir.Reg, error) {
	if index == nil {
		if r, ok := g.lookup(name); ok {
			return r, nil
		}
		gd := g.globals[name]
		if gd == nil {
			return ir.NoReg, errAt(line, 1, "undefined variable %q", name)
		}
		if gd.Size > 0 {
			return ir.NoReg, errAt(line, 1, "array %q read without an index", name)
		}
		r := g.f.NewReg(ir.ClassGPR)
		g.cur().Load(r, name, ir.NoReg, 0)
		return r, nil
	}
	gd := g.globals[name]
	if gd == nil || gd.Size == 0 {
		return ir.NoReg, errAt(line, 1, "%q is not an array", name)
	}
	addr, err := g.genIndexAddr(index)
	if err != nil {
		return ir.NoReg, err
	}
	r := g.f.NewReg(ir.ClassGPR)
	g.cur().Load(r, name, addr, 0)
	return r, nil
}

var binOps = map[tokKind]ir.Op{
	tokPlus: ir.OpAdd, tokMinus: ir.OpSub, tokStar: ir.OpMul, tokSlash: ir.OpDiv,
	tokPercent: ir.OpRem, tokAmp: ir.OpAnd, tokPipe: ir.OpOr, tokCaret: ir.OpXor,
	tokShl: ir.OpShl, tokShr: ir.OpShr,
}

func isCompare(k tokKind) bool {
	switch k {
	case tokLt, tokLe, tokGt, tokGe, tokEqEq, tokNotEq:
		return true
	}
	return false
}

func isLogical(k tokKind) bool { return k == tokAndAnd || k == tokOrOr }

func (g *gen) genExpr(e expression) (ir.Reg, error) {
	switch e := e.(type) {
	case *numExpr:
		r := g.f.NewReg(ir.ClassGPR)
		g.cur().LI(r, e.Value)
		return r, nil

	case *fnumExpr:
		return g.floatNum(e.Value), nil

	case *varExpr:
		return g.genExprVar(e.Name, nil, e.Line)

	case *indexExpr:
		return g.genExprVar(e.Name, e.Index, e.Line)

	case *unaryExpr:
		if e.Op == tokNot {
			return g.genBool(e)
		}
		x, err := g.genExpr(e.X)
		if err != nil {
			return ir.NoReg, err
		}
		if e.Op == tokMinus && isF(x) {
			r := g.f.NewReg(ir.ClassFPR)
			g.cur().Emit(ir.OpFNeg, func(i *ir.Instr) { i.Def = r; i.A = x })
			return r, nil
		}
		x = g.toInt(x)
		r := g.f.NewReg(ir.ClassGPR)
		if e.Op == tokMinus {
			g.cur().Emit(ir.OpNeg, func(i *ir.Instr) { i.Def = r; i.A = x })
		} else {
			g.cur().Emit(ir.OpNot, func(i *ir.Instr) { i.Def = r; i.A = x })
		}
		return r, nil

	case *binExpr:
		if isCompare(e.Op) || isLogical(e.Op) {
			return g.genBool(e)
		}
		op, ok := binOps[e.Op]
		if !ok {
			return ir.NoReg, errAt(e.Line, 1, "unsupported operator %s", e.Op)
		}
		x, err := g.genExpr(e.X)
		if err != nil {
			return ir.NoReg, err
		}
		// Constant right operands use the immediate forms, matching
		// the paper's AI-style code.
		fm := op.Form()
		if n, isNum := e.Y.(*numExpr); isNum && !isF(x) {
			if iop, imm, okI := fm.ImmForm(n.Value); okI {
				r := g.f.NewReg(ir.ClassGPR)
				g.cur().OpI(iop, r, x, imm)
				return r, nil
			}
		}
		y, err := g.genExpr(e.Y)
		if err != nil {
			return ir.NoReg, err
		}
		if isF(x) || isF(y) {
			if fm.FloatOp != ir.OpNop {
				a, b := g.toFloat(x), g.toFloat(y)
				r := g.f.NewReg(ir.ClassFPR)
				g.cur().Emit(fm.FloatOp, func(i *ir.Instr) { i.Def = r; i.A = a; i.B = b })
				return r, nil
			}
			// Integer-only operators truncate their float operands.
			x, y = g.toInt(x), g.toInt(y)
		}
		r := g.f.NewReg(ir.ClassGPR)
		g.cur().Op2(op, r, x, y)
		return r, nil

	case *callExpr:
		return g.genCall(e, true)
	}
	return ir.NoReg, fmt.Errorf("minic: internal: unknown expression %T", e)
}

func (g *gen) genCall(e *callExpr, wantValue bool) (ir.Reg, error) {
	var args []ir.Reg
	for _, a := range e.Args {
		r, err := g.genExpr(a)
		if err != nil {
			return ir.NoReg, err
		}
		// All call interfaces (including print) take ints.
		args = append(args, g.toInt(r))
	}
	switch e.Name {
	case "print", "putchar":
		if len(args) != 1 {
			return ir.NoReg, errAt(e.Line, 1, "%s takes one argument", e.Name)
		}
		if wantValue {
			return ir.NoReg, errAt(e.Line, 1, "%s returns no value", e.Name)
		}
		g.cur().Call(ir.NoReg, e.Name, args...)
		return ir.NoReg, nil
	case "abort":
		if len(args) != 0 {
			return ir.NoReg, errAt(e.Line, 1, "abort takes no arguments")
		}
		g.cur().Call(ir.NoReg, "abort")
		return ir.NoReg, nil
	}
	fn := g.funcs[e.Name]
	if fn == nil {
		return ir.NoReg, errAt(e.Line, 1, "undefined function %q", e.Name)
	}
	if len(args) != len(fn.Params) {
		return ir.NoReg, errAt(e.Line, 1, "%q takes %d arguments, got %d", e.Name, len(fn.Params), len(args))
	}
	if fn.Void {
		if wantValue {
			return ir.NoReg, errAt(e.Line, 1, "void function %q used as a value", e.Name)
		}
		g.cur().Call(ir.NoReg, e.Name, args...)
		return ir.NoReg, nil
	}
	r := g.f.NewReg(ir.ClassGPR)
	g.cur().Call(r, e.Name, args...)
	return r, nil
}

// genBool materialises a boolean expression as 0 or 1.
func (g *gen) genBool(e expression) (ir.Reg, error) {
	r := g.f.NewReg(ir.ClassGPR)
	end := g.fresh("bend")
	g.cur().LI(r, 1)
	if err := g.genCondJump(e, end, true); err != nil {
		return ir.NoReg, err
	}
	g.cur().LI(r, 0)
	g.block(end)
	return r, nil
}

// genCondJump emits code that evaluates cond and branches to lbl when the
// condition equals want; otherwise control falls through.
func (g *gen) genCondJump(cond expression, lbl string, want bool) error {
	switch e := cond.(type) {
	case *binExpr:
		if isCompare(e.Op) {
			x, err := g.genExpr(e.X)
			if err != nil {
				return err
			}
			cr := g.f.NewReg(ir.ClassCR)
			if n, isNum := e.Y.(*numExpr); isNum && !isF(x) {
				g.cur().CmpI(cr, x, n.Value)
			} else {
				y, err := g.genExpr(e.Y)
				if err != nil {
					return err
				}
				if isF(x) || isF(y) {
					// FCmp sets the same LT/GT/EQ bits as Cmp, so the
					// branch emission below is shared.
					a, b := g.toFloat(x), g.toFloat(y)
					g.cur().Emit(ir.OpFCmp, func(i *ir.Instr) { i.Def = cr; i.A = a; i.B = b })
				} else {
					g.cur().Cmp(cr, x, y)
				}
			}
			g.emitCmpBranch(e.Op, cr, lbl, want)
			return nil
		}
		switch e.Op {
		case tokAndAnd:
			if want {
				// Jump to lbl when both are true.
				skip := g.fresh("and")
				if err := g.genCondJump(e.X, skip, false); err != nil {
					return err
				}
				if err := g.genCondJump(e.Y, lbl, true); err != nil {
					return err
				}
				g.block(skip)
				return nil
			}
			// Jump to lbl when either is false.
			if err := g.genCondJump(e.X, lbl, false); err != nil {
				return err
			}
			return g.genCondJump(e.Y, lbl, false)
		case tokOrOr:
			if want {
				if err := g.genCondJump(e.X, lbl, true); err != nil {
					return err
				}
				return g.genCondJump(e.Y, lbl, true)
			}
			skip := g.fresh("or")
			if err := g.genCondJump(e.X, skip, true); err != nil {
				return err
			}
			if err := g.genCondJump(e.Y, lbl, false); err != nil {
				return err
			}
			g.block(skip)
			return nil
		}
	case *unaryExpr:
		if e.Op == tokNot {
			return g.genCondJump(e.X, lbl, !want)
		}
	}
	// Generic: compare against zero; "true" means non-zero.
	v, err := g.genExpr(cond)
	if err != nil {
		return err
	}
	cr := g.f.NewReg(ir.ClassCR)
	if isF(v) {
		zero := g.floatNum(0)
		g.cur().Emit(ir.OpFCmp, func(i *ir.Instr) { i.Def = cr; i.A = v; i.B = zero })
	} else {
		g.cur().CmpI(cr, v, 0)
	}
	if want {
		g.emitBranch(lbl, cr, ir.BitEQ, false) // non-zero: eq clear
	} else {
		g.emitBranch(lbl, cr, ir.BitEQ, true)
	}
	return nil
}

// emitCmpBranch branches to lbl when (x OP y) == want, given the compare
// result in cr.
func (g *gen) emitCmpBranch(op tokKind, cr ir.Reg, lbl string, want bool) {
	// For each operator: the bit to test and whether the operator is
	// true when the bit is set.
	var bit ir.CRBit
	var onSet bool
	switch op {
	case tokLt:
		bit, onSet = ir.BitLT, true
	case tokGe:
		bit, onSet = ir.BitLT, false
	case tokGt:
		bit, onSet = ir.BitGT, true
	case tokLe:
		bit, onSet = ir.BitGT, false
	case tokEqEq:
		bit, onSet = ir.BitEQ, true
	case tokNotEq:
		bit, onSet = ir.BitEQ, false
	}
	g.emitBranch(lbl, cr, bit, onSet == want)
}

// emitBranch emits BT/BF and leaves the builder in a fresh fallthrough
// block.
func (g *gen) emitBranch(lbl string, cr ir.Reg, bit ir.CRBit, onTrue bool) {
	if onTrue {
		g.cur().BT(lbl, cr, bit)
	} else {
		g.cur().BF(lbl, cr, bit)
	}
	g.b.Block("")
}
