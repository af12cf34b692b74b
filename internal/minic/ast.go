package minic

// The AST mirrors the accepted C subset. Position fields reference the
// first token of the node for error reporting.

// globalDecl declares a global scalar (Size == 0) or array (Size > 0),
// optionally initialised.
type globalDecl struct {
	Name string
	Size int64   // 0 for scalar; >0 for array length in elements
	Init []int64 // scalar: one value; array: leading elements
	Line int
}

// funcDecl declares a function. Void functions have Void == true.
type funcDecl struct {
	Name   string
	Params []string
	Void   bool
	Body   *blockStmt
	Line   int
}

// statement is a statement node.
type statement interface{ stmt() }

// blockStmt is { stmts... }.
type blockStmt struct {
	Stmts []statement
}

// declStmt declares a local: int name = init; or float name = init;
// (init may be nil).
type declStmt struct {
	Name  string
	Float bool
	Init  expression
	Line  int
}

// assignStmt stores into a variable or array element. Op is tokAssign,
// tokPlusAssign or tokMinusAssign.
type assignStmt struct {
	Target *lvalue
	Op     tokKind
	Value  expression
	Line   int
}

// incDecStmt is x++ / x-- / a[i]++ / a[i]--.
type incDecStmt struct {
	Target *lvalue
	Dec    bool
	Line   int
}

// lvalue is an assignable location: a named variable, or array[index].
type lvalue struct {
	Name  string
	Index expression // nil for scalars
	Line  int
}

// ifStmt is if (cond) then [else els].
type ifStmt struct {
	Cond expression
	Then statement
	Else statement // may be nil
}

// whileStmt is while (cond) body.
type whileStmt struct {
	Cond expression
	Body statement
}

// doWhileStmt is do body while (cond);.
type doWhileStmt struct {
	Body statement
	Cond expression
}

// forStmt is for (init; cond; post) body; any clause may be nil.
type forStmt struct {
	Init statement // declStmt, assignStmt or incDecStmt
	Cond expression
	Post statement
	Body statement
}

// returnStmt returns Value (nil for void returns).
type returnStmt struct {
	Value expression
	Line  int
}

// breakStmt / continueStmt control the innermost loop.
type breakStmt struct{ Line int }

// continueStmt continues the innermost loop.
type continueStmt struct{ Line int }

// exprStmt evaluates an expression for its side effects (calls).
type exprStmt struct {
	X expression
}

func (*blockStmt) stmt()    {}
func (*declStmt) stmt()     {}
func (*assignStmt) stmt()   {}
func (*incDecStmt) stmt()   {}
func (*ifStmt) stmt()       {}
func (*whileStmt) stmt()    {}
func (*doWhileStmt) stmt()  {}
func (*forStmt) stmt()      {}
func (*returnStmt) stmt()   {}
func (*breakStmt) stmt()    {}
func (*continueStmt) stmt() {}
func (*exprStmt) stmt()     {}

// expression is an expression node.
type expression interface{ expr() }

// numExpr is an integer literal.
type numExpr struct {
	Value int64
	Line  int
}

// fnumExpr is a float literal.
type fnumExpr struct {
	Value float64
	Line  int
}

// varExpr reads a scalar variable (local, parameter, or global).
type varExpr struct {
	Name string
	Line int
}

// indexExpr reads an array element.
type indexExpr struct {
	Name  string
	Index expression
	Line  int
}

// unaryExpr applies tokMinus, tokNot or tokTilde.
type unaryExpr struct {
	Op   tokKind
	X    expression
	Line int
}

// binExpr applies a binary operator, including comparisons and the
// short-circuit tokAndAnd / tokOrOr.
type binExpr struct {
	Op   tokKind
	X, Y expression
	Line int
}

// callExpr calls a function.
type callExpr struct {
	Name string
	Args []expression
	Line int
}

func (*numExpr) expr()   {}
func (*fnumExpr) expr()  {}
func (*varExpr) expr()   {}
func (*indexExpr) expr() {}
func (*unaryExpr) expr() {}
func (*binExpr) expr()   {}
func (*callExpr) expr()  {}
