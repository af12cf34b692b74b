package minic

// The AST mirrors the accepted C subset. Position fields reference the
// first token of the node for error reporting.

// GlobalDecl declares a global scalar (Size == 0) or array (Size > 0),
// optionally initialised.
type GlobalDecl struct {
	Name string
	Size int64   // 0 for scalar; >0 for array length in elements
	Init []int64 // scalar: one value; array: leading elements
	Line int
}

// FuncDecl declares a function. Void functions have Void == true.
type FuncDecl struct {
	Name   string
	Params []string
	Void   bool
	Body   *BlockStmt
	Line   int
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// BlockStmt is { stmts... }.
type BlockStmt struct {
	Stmts []Stmt
}

// DeclStmt declares a local: int name = init; or float name = init;
// (init may be nil).
type DeclStmt struct {
	Name  string
	Float bool
	Init  Expr
	Line  int
}

// AssignStmt stores into a variable or array element. Op is Assign,
// PlusAssign or MinusAssign.
type AssignStmt struct {
	Target *LValue
	Op     Kind
	Value  Expr
	Line   int
}

// IncDecStmt is x++ / x-- / a[i]++ / a[i]--.
type IncDecStmt struct {
	Target *LValue
	Dec    bool
	Line   int
}

// LValue is an assignable location: a named variable, or array[index].
type LValue struct {
	Name  string
	Index Expr // nil for scalars
	Line  int
}

// IfStmt is if (cond) then [else els].
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	Cond Expr
	Body Stmt
}

// DoWhileStmt is do body while (cond);.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
}

// ForStmt is for (init; cond; post) body; any clause may be nil.
type ForStmt struct {
	Init Stmt // DeclStmt, AssignStmt or IncDecStmt
	Cond Expr
	Post Stmt
	Body Stmt
}

// ReturnStmt returns Value (nil for void returns).
type ReturnStmt struct {
	Value Expr
	Line  int
}

// BreakStmt / ContinueStmt control the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	X Expr
}

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*AssignStmt) stmt()   {}
func (*IncDecStmt) stmt()   {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ExprStmt) stmt()     {}

// Expr is an expression node.
type Expr interface{ expr() }

// NumExpr is an integer literal.
type NumExpr struct {
	Value int64
	Line  int
}

// FNumExpr is a float literal.
type FNumExpr struct {
	Value float64
	Line  int
}

// VarExpr reads a scalar variable (local, parameter, or global).
type VarExpr struct {
	Name string
	Line int
}

// IndexExpr reads an array element.
type IndexExpr struct {
	Name  string
	Index Expr
	Line  int
}

// UnaryExpr applies Minus, Not or Tilde.
type UnaryExpr struct {
	Op   Kind
	X    Expr
	Line int
}

// BinExpr applies a binary operator, including comparisons and the
// short-circuit AndAnd / OrOr.
type BinExpr struct {
	Op   Kind
	X, Y Expr
	Line int
}

// CallExpr calls a function.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

func (*NumExpr) expr()   {}
func (*FNumExpr) expr()  {}
func (*VarExpr) expr()   {}
func (*IndexExpr) expr() {}
func (*UnaryExpr) expr() {}
func (*BinExpr) expr()   {}
func (*CallExpr) expr()  {}
