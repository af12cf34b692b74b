// Package policy implements a small scriptable expression language for
// scheduling heuristics. A policy replaces the paper's fixed §5.2
// priority order (and, optionally, gates speculative and duplication
// candidates) with a user-supplied expression over read-only features of
// the candidate instruction and its DDG/CFG context — the ROADMAP's
// "make the heuristic space programmable" item.
//
// The language is a strict subset of Go expression syntax, parsed with
// go/parser (the mumax3 compiled-expression pattern): arithmetic
// (+ - * /), comparisons (< <= > >= == !=, yielding 1 or 0), boolean
// combinators (&& || !, treating any non-zero as true), and a fixed
// function set (min, max, abs, sign, select, tiers). All values are
// float64 and every operation is total: x/0 is 0 and nothing panics.
// Because select is a Go keyword, it may equivalently be spelled sel —
// the canonical form always uses sel.
//
// A policy source is one or two statements, separated by newlines or
// semicolons:
//
//	priority = <pair expression>   // or a bare expression
//	gate     = <unary expression>
//
// The priority expression sees two candidates through the selectors
// x.<feature> and y.<feature> and returns a score: positive means x is
// tried before y, negative means y first, zero (or NaN) falls back to
// original program order. The gate expression sees one speculative or
// duplication candidate through bare feature names and admits it when
// the result is non-zero. See Names for the feature set.
//
// Parsing canonicalises the program (fixed statement order, structural
// parenthesisation, shortest float literals, alias resolution), so
// equivalent spellings share one canonical form, one content hash, and
// one cached compilation.
package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// Feature indices into a Features vector.
const (
	// FeatD is the §5.2 delay heuristic D of the instruction, computed
	// in its home block.
	FeatD = iota
	// FeatCP is the §5.2 critical-path height (also spelled "height").
	FeatCP
	// FeatSlack is the home block's maximum critical path minus the
	// instruction's: 0 for instructions on the block's critical path.
	FeatSlack
	// FeatPos is the original program position (region-relative rank).
	FeatPos
	// FeatSpec is 1 when scheduling the candidate here is speculative.
	FeatSpec
	// FeatDup is 1 when scheduling it here requires duplication.
	FeatDup
	// FeatClass is the §5.2 class: 0 useful, 1 speculative, 2 duplication.
	FeatClass
	// FeatProb is the execution probability of the home block given the
	// target (also spelled "taken_prob"); 1 without a profile.
	FeatProb
	// FeatExec is the machine execution time of the instruction's opcode.
	FeatExec
	// FeatFanin is the number of DDG predecessors.
	FeatFanin
	// FeatFanout is the number of DDG successors.
	FeatFanout
	// FeatIsLoad, FeatIsStore, FeatIsBranch, FeatIsFloat classify the
	// opcode (1 or 0).
	FeatIsLoad
	FeatIsStore
	FeatIsBranch
	FeatIsFloat
	// FeatSpecDeg is the speculation degree: the smallest n for which the
	// home block is an n-branch speculative candidate (Definition 7) of
	// the target; 0 for non-speculative candidates.
	FeatSpecDeg

	// NumFeatures is the length of a Features vector.
	NumFeatures
)

// Features is the read-only feature vector of one scheduling candidate.
type Features [NumFeatures]float64

// featureName is the canonical spelling of each feature.
var featureName = [NumFeatures]string{
	FeatD:        "d",
	FeatCP:       "cp",
	FeatSlack:    "slack",
	FeatPos:      "pos",
	FeatSpec:     "spec",
	FeatDup:      "dup",
	FeatClass:    "class",
	FeatProb:     "prob",
	FeatExec:     "exec",
	FeatFanin:    "fanin",
	FeatFanout:   "fanout",
	FeatIsLoad:   "is_load",
	FeatIsStore:  "is_store",
	FeatIsBranch: "is_branch",
	FeatIsFloat:  "is_float",
	FeatSpecDeg:  "specdeg",
}

// featureIndex resolves a spelling (including aliases) to its index.
var featureIndex = func() map[string]int {
	m := make(map[string]int, NumFeatures+2)
	for i, n := range featureName {
		m[n] = i
	}
	m["height"] = FeatCP // the paper's other name for CP
	m["taken_prob"] = FeatProb
	return m
}()

// evalFn evaluates one compiled expression. Pair expressions read both
// vectors; unary expressions read only x (y is then a zero vector).
type evalFn func(x, y *Features) float64

// Policy is a parsed, canonicalised, compiled policy program. Policies
// are immutable and safe for concurrent use; Parse returns a shared
// instance per canonical form.
type Policy struct {
	canonical string
	hash      string
	priority  evalFn // nil when the program has no priority statement
	gate      evalFn // nil when the program has no gate statement
}

// Canonical returns the canonical source of the policy: fixed statement
// order (priority first), resolved aliases, full structural parentheses,
// shortest float literals. Parsing the canonical form yields the same
// canonical form (a fixpoint), so canonical bytes are a sound content
// address.
func (p *Policy) Canonical() string { return p.canonical }

// Hash returns the hex sha256 of the canonical source.
func (p *Policy) Hash() string { return p.hash }

// HasPriority reports whether the program defines a priority expression.
func (p *Policy) HasPriority() bool { return p.priority != nil }

// HasGate reports whether the program defines a gate expression.
func (p *Policy) HasGate() bool { return p.gate != nil }

// Priority evaluates the priority expression on a candidate pair.
// Positive means x before y. Without a priority statement it returns 0.
func (p *Policy) Priority(x, y *Features) float64 {
	if p.priority == nil {
		return 0
	}
	return p.priority(x, y)
}

// Gate reports whether a speculative or duplication candidate is
// admitted. Without a gate statement every candidate is admitted.
func (p *Policy) Gate(f *Features) bool {
	if p.gate == nil {
		return true
	}
	var zero Features
	return truthy(p.gate(f, &zero))
}

// Compare orders two candidates by the priority expression, in the
// three-way form sort functions want: negative when x should be tried
// before y. Ties (score zero or NaN) fall back to original program
// order, the §5.2 final tie-break.
func (p *Policy) Compare(x, y *Features, xpos, ypos int) int {
	if s := p.priority(x, y); s > 0 {
		return -1
	} else if s < 0 {
		return 1
	}
	return xpos - ypos
}

// DefaultSource is a policy expression that reproduces the built-in
// §5.2 decision order exactly: class (useful < speculative < dup), the
// profile probability window (a clearly more probable speculative
// candidate first), delay heuristic D, critical path CP, original
// program order. Schedules under this policy are byte-identical to the
// built-in heuristic's.
const DefaultSource = "priority = tiers(y.class - x.class, " +
	"select(x.spec && abs(x.prob - y.prob) > 0.25, x.prob - y.prob, 0), " +
	"x.d - y.d, x.cp - y.cp, y.pos - x.pos)"

// maxSource bounds accepted program size; beyond it the content hash
// would dominate any conceivable expression.
const maxSource = 1 << 16

// Parse parses, canonicalises, and compiles a policy program. The
// compiled closure is cached by the canonical form's content hash, so
// re-parsing any equivalent spelling is a map lookup.
func Parse(src string) (*Policy, error) {
	if len(src) > maxSource {
		return nil, fmt.Errorf("policy: program too large (%d bytes, max %d)", len(src), maxSource)
	}
	// `select` is a Go keyword, so go/parser cannot see it as a call;
	// rewrite the standalone word to its synonym `sel` before parsing.
	// The canonical form always uses `sel`.
	src = selectWord.ReplaceAllLiteralString(src, "sel")
	prio, gate, err := parseStatements(src)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	var pfn, gfn evalFn
	if prio != nil {
		if pfn, err = compileExpr(prio, true); err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "priority = %s", renderExpr(prio))
	}
	if gate != nil {
		if gfn, err = compileExpr(gate, false); err != nil {
			return nil, err
		}
		if prio != nil {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "gate = %s", renderExpr(gate))
	}
	canon := b.String()
	if cached, ok := cache.Load(canon); ok {
		return cached.(*Policy), nil
	}
	sum := sha256.Sum256([]byte(canon))
	p := &Policy{canonical: canon, hash: hex.EncodeToString(sum[:]), priority: pfn, gate: gfn}
	actual, _ := cache.LoadOrStore(canon, p)
	return actual.(*Policy), nil
}

// cache maps canonical source to its shared compiled *Policy.
var cache sync.Map

var selectWord = regexp.MustCompile(`\bselect\b`)

// MustParse is Parse for known-good sources; it panics on error.
func MustParse(src string) *Policy {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseStatements splits a program into its priority and gate
// expressions using go/parser: the source is wrapped in a function
// literal so statement lists parse (the mumax3 trick), then each
// statement must be `priority = expr`, `gate = expr`, or a bare
// expression (an implicit priority).
func parseStatements(src string) (prio, gate ast.Expr, err error) {
	tree, err := parser.ParseExpr("func() {\n" + src + "\n}")
	if err != nil {
		return nil, nil, fmt.Errorf("policy: %w", err)
	}
	fn, ok := tree.(*ast.FuncLit)
	if !ok {
		return nil, nil, fmt.Errorf("policy: not a statement list")
	}
	set := func(slot *ast.Expr, name string, e ast.Expr) error {
		if *slot != nil {
			return fmt.Errorf("policy: duplicate %s statement", name)
		}
		*slot = e
		return nil
	}
	for _, stmt := range fn.Body.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if err := set(&prio, "priority", s.X); err != nil {
				return nil, nil, err
			}
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return nil, nil, fmt.Errorf("policy: only `priority = expr` and `gate = expr` assignments are allowed")
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return nil, nil, fmt.Errorf("policy: assignment target must be priority or gate")
			}
			switch id.Name {
			case "priority":
				if err := set(&prio, "priority", s.Rhs[0]); err != nil {
					return nil, nil, err
				}
			case "gate":
				if err := set(&gate, "gate", s.Rhs[0]); err != nil {
					return nil, nil, err
				}
			default:
				return nil, nil, fmt.Errorf("policy: unknown statement %q (want priority or gate)", id.Name)
			}
		default:
			return nil, nil, fmt.Errorf("policy: unsupported statement %T", stmt)
		}
	}
	if prio == nil && gate == nil {
		return nil, nil, fmt.Errorf("policy: empty program (need a priority or gate expression)")
	}
	return prio, gate, nil
}

// truthy is the language's boolean interpretation of a float.
func truthy(v float64) bool { return v != 0 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// compileExpr compiles one expression into a closure. pair selects the
// priority context (selectors x.f / y.f; bare feature names are
// errors) versus the gate context (bare feature names; selectors are
// errors).
func compileExpr(e ast.Expr, pair bool) (evalFn, error) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return compileExpr(e.X, pair)
	case *ast.BasicLit:
		v, err := literalValue(e)
		if err != nil {
			return nil, err
		}
		return func(_, _ *Features) float64 { return v }, nil
	case *ast.Ident:
		if pair {
			if _, ok := featureIndex[e.Name]; ok {
				return nil, fmt.Errorf("policy: bare feature %q in a priority expression; use x.%s or y.%s", e.Name, e.Name, e.Name)
			}
			return nil, fmt.Errorf("policy: unknown identifier %q", e.Name)
		}
		idx, ok := featureIndex[e.Name]
		if !ok {
			return nil, fmt.Errorf("policy: unknown feature %q", e.Name)
		}
		return func(x, _ *Features) float64 { return x[idx] }, nil
	case *ast.SelectorExpr:
		if !pair {
			return nil, fmt.Errorf("policy: selector in a gate expression; use the bare feature name")
		}
		base, ok := e.X.(*ast.Ident)
		if !ok || (base.Name != "x" && base.Name != "y") {
			return nil, fmt.Errorf("policy: selector base must be x or y")
		}
		idx, ok := featureIndex[e.Sel.Name]
		if !ok {
			return nil, fmt.Errorf("policy: unknown feature %q", e.Sel.Name)
		}
		if base.Name == "x" {
			return func(x, _ *Features) float64 { return x[idx] }, nil
		}
		return func(_, y *Features) float64 { return y[idx] }, nil
	case *ast.UnaryExpr:
		v, err := compileExpr(e.X, pair)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case token.SUB:
			return func(x, y *Features) float64 { return -v(x, y) }, nil
		case token.ADD:
			return v, nil
		case token.NOT:
			return func(x, y *Features) float64 { return b2f(!truthy(v(x, y))) }, nil
		}
		return nil, fmt.Errorf("policy: unsupported unary operator %s", e.Op)
	case *ast.BinaryExpr:
		a, err := compileExpr(e.X, pair)
		if err != nil {
			return nil, err
		}
		b, err := compileExpr(e.Y, pair)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case token.ADD:
			return func(x, y *Features) float64 { return a(x, y) + b(x, y) }, nil
		case token.SUB:
			return func(x, y *Features) float64 { return a(x, y) - b(x, y) }, nil
		case token.MUL:
			return func(x, y *Features) float64 { return a(x, y) * b(x, y) }, nil
		case token.QUO:
			// Division is total: anything over zero is zero.
			return func(x, y *Features) float64 {
				d := b(x, y)
				if d == 0 {
					return 0
				}
				return a(x, y) / d
			}, nil
		case token.LSS:
			return func(x, y *Features) float64 { return b2f(a(x, y) < b(x, y)) }, nil
		case token.GTR:
			return func(x, y *Features) float64 { return b2f(a(x, y) > b(x, y)) }, nil
		case token.LEQ:
			return func(x, y *Features) float64 { return b2f(a(x, y) <= b(x, y)) }, nil
		case token.GEQ:
			return func(x, y *Features) float64 { return b2f(a(x, y) >= b(x, y)) }, nil
		case token.EQL:
			return func(x, y *Features) float64 { return b2f(a(x, y) == b(x, y)) }, nil
		case token.NEQ:
			return func(x, y *Features) float64 { return b2f(a(x, y) != b(x, y)) }, nil
		case token.LAND:
			return func(x, y *Features) float64 { return b2f(truthy(a(x, y)) && truthy(b(x, y))) }, nil
		case token.LOR:
			return func(x, y *Features) float64 { return b2f(truthy(a(x, y)) || truthy(b(x, y))) }, nil
		}
		return nil, fmt.Errorf("policy: unsupported binary operator %s", e.Op)
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("policy: computed function calls are not allowed")
		}
		args := make([]evalFn, len(e.Args))
		for i, a := range e.Args {
			fn, err := compileExpr(a, pair)
			if err != nil {
				return nil, err
			}
			args[i] = fn
		}
		return compileCall(id.Name, args)
	}
	return nil, fmt.Errorf("policy: unsupported syntax %T", e)
}

// compileCall compiles the fixed function set.
func compileCall(name string, args []evalFn) (evalFn, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("policy: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "min", "max":
		if len(args) < 1 {
			return nil, fmt.Errorf("policy: %s needs at least one argument", name)
		}
		most := name == "max"
		return func(x, y *Features) float64 {
			m := args[0](x, y)
			for _, a := range args[1:] {
				if v := a(x, y); (most && v > m) || (!most && v < m) {
					m = v
				}
			}
			return m
		}, nil
	case "abs":
		if err := arity(1); err != nil {
			return nil, err
		}
		a := args[0]
		return func(x, y *Features) float64 { return math.Abs(a(x, y)) }, nil
	case "sign":
		if err := arity(1); err != nil {
			return nil, err
		}
		a := args[0]
		return func(x, y *Features) float64 {
			switch v := a(x, y); {
			case v > 0:
				return 1
			case v < 0:
				return -1
			}
			return 0 // including NaN
		}, nil
	case "sel":
		if err := arity(3); err != nil {
			return nil, err
		}
		c, a, b := args[0], args[1], args[2]
		return func(x, y *Features) float64 {
			if truthy(c(x, y)) {
				return a(x, y)
			}
			return b(x, y)
		}, nil
	case "tiers":
		if len(args) < 1 {
			return nil, fmt.Errorf("policy: tiers needs at least one argument")
		}
		return func(x, y *Features) float64 {
			for _, a := range args {
				if v := a(x, y); v != 0 && !math.IsNaN(v) {
					return v
				}
			}
			return 0
		}, nil
	}
	return nil, fmt.Errorf("policy: unknown function %q", name)
}

// literalValue evaluates an INT or FLOAT literal. Out-of-range values
// are rejected so every accepted literal re-renders to a parseable one.
func literalValue(lit *ast.BasicLit) (float64, error) {
	switch lit.Kind {
	case token.FLOAT, token.INT:
		v, err := strconv.ParseFloat(lit.Value, 64)
		if err == nil {
			return v, nil
		}
		if lit.Kind == token.INT {
			// Hex/octal/binary integer spellings.
			if u, ierr := strconv.ParseUint(lit.Value, 0, 64); ierr == nil {
				return float64(u), nil
			}
		}
		return 0, fmt.Errorf("policy: bad number %q: %v", lit.Value, err)
	}
	return 0, fmt.Errorf("policy: unsupported literal %s", lit.Kind)
}

// renderExpr renders a validated expression in canonical form: aliases
// resolved, every compound fully parenthesised, numbers in shortest
// round-trip notation. The output reparses to the same canonical form.
func renderExpr(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		writeExpr(b, e.X)
	case *ast.BasicLit:
		v, _ := literalValue(e)
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	case *ast.Ident:
		b.WriteString(featureName[featureIndex[e.Name]])
	case *ast.SelectorExpr:
		base := e.X.(*ast.Ident)
		b.WriteString(base.Name)
		b.WriteByte('.')
		b.WriteString(featureName[featureIndex[e.Sel.Name]])
	case *ast.UnaryExpr:
		if e.Op == token.ADD {
			writeExpr(b, e.X)
			return
		}
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		writeExpr(b, e.X)
		b.WriteByte(')')
	case *ast.BinaryExpr:
		b.WriteByte('(')
		writeExpr(b, e.X)
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		writeExpr(b, e.Y)
		b.WriteByte(')')
	case *ast.CallExpr:
		b.WriteString(e.Fun.(*ast.Ident).Name)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	}
}
