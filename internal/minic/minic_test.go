package minic

import (
	"strings"
	"testing"

	"gsched/internal/sim"
)

// runProgram compiles src and runs entry, returning the result.
func runProgram(t *testing.T, src, entry string, args ...int64) *sim.Result {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m, err := sim.Load(prog)
	if err != nil {
		t.Fatalf("Load: %v\n%s", err, prog)
	}
	res, err := m.Run(entry, args, nil, sim.Options{})
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, prog)
	}
	return res
}

func expectRet(t *testing.T, src, entry string, want int64, args ...int64) {
	t.Helper()
	if got := runProgram(t, src, entry, args...).Ret; got != want {
		t.Errorf("%s(%v) = %d, want %d", entry, args, got, want)
	}
}

func TestArithmetic(t *testing.T) {
	src := `
int f(int a, int b) {
    return (a + b) * 3 - a / b + a % b - (a << 1) + (b >> 1);
}`
	a, b := int64(17), int64(5)
	want := (a+b)*3 - a/b + a%b - (a << 1) + (b >> 1)
	expectRet(t, src, "f", want, a, b)
}

func TestBitwise(t *testing.T) {
	src := `int f(int a, int b) { return (a & b) | (a ^ b) | ~a & 15; }`
	a, b := int64(0b1100), int64(0b1010)
	want := (a & b) | (a ^ b) | (^a & 15)
	expectRet(t, src, "f", want, a, b)
}

func TestUnary(t *testing.T) {
	expectRet(t, `int f(int a) { return -a + ~a; }`, "f", -7+^int64(7), 7)
	expectRet(t, `int f(int a) { return !a; }`, "f", 1, 0)
	expectRet(t, `int f(int a) { return !a; }`, "f", 0, 42)
	expectRet(t, `int f(int a) { return !!a; }`, "f", 1, 42)
}

func TestComparisonsAsValues(t *testing.T) {
	src := `int f(int a, int b) {
	return (a < b) * 100 + (a <= b) * 10 + (a == b) + (a != b) * 2 + (a > b) * 4 + (a >= b) * 8;
}`
	expectRet(t, src, "f", 100+10+2, 3, 9)
	expectRet(t, src, "f", 10+1+8, 5, 5)
	expectRet(t, src, "f", 2+4+8, 9, 3)
}

func TestIfElseChain(t *testing.T) {
	src := `
int grade(int s) {
    if (s >= 90) return 4;
    else if (s >= 80) return 3;
    else if (s >= 70) return 2;
    else if (s >= 60) return 1;
    return 0;
}`
	for s, want := range map[int64]int64{95: 4, 85: 3, 75: 2, 65: 1, 10: 0, 90: 4} {
		expectRet(t, src, "grade", want, s)
	}
}

func TestWhileAndFor(t *testing.T) {
	src := `
int sumw(int n) {
    int s = 0;
    int i = 1;
    while (i <= n) { s += i; i++; }
    return s;
}
int sumf(int n) {
    int s = 0;
    for (int i = 1; i <= n; i++) s = s + i;
    return s;
}`
	expectRet(t, src, "sumw", 55, 10)
	expectRet(t, src, "sumf", 55, 10)
	expectRet(t, src, "sumw", 0, 0)
	expectRet(t, src, "sumf", 0, 0)
}

func TestDoWhile(t *testing.T) {
	src := `
int f(int n) {
    int c = 0;
    do { c++; n = n - 1; } while (n > 0);
    return c;
}`
	expectRet(t, src, "f", 5, 5)
	expectRet(t, src, "f", 1, 0) // do-while runs at least once
}

func TestBreakContinue(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) continue;
        if (i > 7) break;
        s += i;
    }
    return s;
}`
	expectRet(t, src, "f", 1+3+5+7, 20)
}

func TestNestedLoops(t *testing.T) {
	src := `
int f(int n) {
    int c = 0;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            if ((i + j) % 3 == 0) c++;
    return c;
}`
	// Count pairs (i,j) in [0,6)^2 with (i+j)%3==0: 12.
	expectRet(t, src, "f", 12, 6)
}

func TestGlobalsAndArrays(t *testing.T) {
	src := `
int total = 5;
int a[8] = {1, 2, 3, 4};
int f(int n) {
    a[4] = 10;
    a[5] = a[0] + a[3];
    for (int i = 0; i < 6; i++) total += a[i];
    return total;
}`
	expectRet(t, src, "f", 5+1+2+3+4+10+5, 0)
}

func TestShortCircuit(t *testing.T) {
	src := `
int calls = 0;
int bump(int v) { calls += 1; return v; }
int andf(int a) { if (a > 0 && bump(1) > 0) return calls; return calls + 100; }
int orf(int a)  { if (a > 0 || bump(1) > 0) return calls; return calls + 100; }`
	// a>0 false: bump must not run in andf.
	expectRet(t, src, "andf", 100, -1)
	// a>0 true: bump runs once.
	expectRet(t, src, "andf", 1, 1)
	// a>0 true: bump must not run in orf.
	expectRet(t, src, "orf", 0, 1)
	// a>0 false: bump runs.
	expectRet(t, src, "orf", 1, -1)
}

func TestRecursion(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}`
	expectRet(t, src, "fib", 55, 10)
}

func TestMutualCalls(t *testing.T) {
	src := `
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n)  { if (n == 0) return 0; return isEven(n - 1); }`
	// Forward declarations are not in the subset; rewrite without them.
	src = `
int helper(int n, int odd) {
    if (n == 0) return odd;
    return helper(n - 1, 1 - odd);
}
int isOdd(int n) { return helper(n, 0); }`
	expectRet(t, src, "isOdd", 1, 7)
	expectRet(t, src, "isOdd", 0, 10)
}

func TestPrintBuiltin(t *testing.T) {
	src := `
void main(int n) {
    for (int i = 0; i < n; i++) print(i * i);
}`
	res := runProgram(t, src, "main", 4)
	if got := res.PrintedString(); got != "0 1 4 9" {
		t.Errorf("printed %q, want \"0 1 4 9\"", got)
	}
}

func TestVoidFunctions(t *testing.T) {
	src := `
int g = 0;
void bump(int v) { g += v; return; }
int f(int n) { bump(n); bump(n); return g; }`
	expectRet(t, src, "f", 14, 7)
}

func TestScoping(t *testing.T) {
	src := `
int x = 100;
int f(int n) {
    int x = 1;
    { int x = 2; n += x; }
    n += x;
    return n;
}`
	expectRet(t, src, "f", 3, 0)
}

func TestMinMaxProgramOfFigure1(t *testing.T) {
	// The paper's Figure 1 program, adapted to the subset (prints
	// instead of printf, parameterised array length).
	src := `
int a[64] = {5, 9, -2, 3, 14, 7, 0, 11, 6};
int minmax(int n) {
    int min = a[0];
    int max = min;
    int i = 1;
    while (i < n) {
        int u = a[i];
        int v = a[i+1];
        if (u > v) {
            if (u > max) max = u;
            if (v < min) min = v;
        }
        else {
            if (v > max) max = v;
            if (u < min) min = u;
        }
        i = i + 2;
    }
    print(min);
    print(max);
    return min;
}`
	res := runProgram(t, src, "minmax", 9)
	if res.Ret != -2 {
		t.Errorf("min = %d, want -2", res.Ret)
	}
	if got := res.PrintedString(); got != "-2 14" {
		t.Errorf("printed %q, want \"-2 14\"", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undefined var", `int f(int a) { return b; }`, "undefined variable"},
		{"undefined func", `int f(int a) { return g(a); }`, "undefined function"},
		{"arity", `int g(int a) { return a; } int f(int a) { return g(a, a); }`, "takes 1 arguments"},
		{"void as value", `void g(int a) { } int f(int a) { return g(a); }`, "used as a value"},
		{"array as scalar", `int a[4]; int f(int x) { return a; }`, "without an index"},
		{"scalar as array", `int s; int f(int x) { return s[0]; }`, "not an array"},
		{"break outside", `int f(int a) { break; return a; }`, "break outside"},
		{"continue outside", `int f(int a) { continue; return a; }`, "continue outside"},
		{"redeclared", `int f(int a) { int a = 1; return a; }`, "redeclared"},
		{"void return value", `void f(int a) { return a; }`, "returns a value"},
		{"missing return value", `int f(int a) { return; }`, "must return a value"},
		{"syntax", `int f(int a) { return a + ; }`, "expected expression"},
		{"unterminated comment", `/* int f() {}`, "unterminated"},
		{"global redecl", `int g; int g;`, "redeclared"},
		{"print as value", `int f(int a) { return print(a); }`, "returns no value"},
		{"float global", `float x; int f(int a) { return a; }`, "only allowed for locals"},
		{"void global", `void x; int f(int a) { return a; }`, "void globals are not allowed"},
		{"reserved global", `int frame[4]; int f(int a) { return a; }`, "reserved for frame slots"},
		{"top-level statement", `return 1;`, "expected 'int' or 'void' declaration"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("%s: compiled unexpectedly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lex("int f\n  (x)")
	if err != nil {
		t.Fatal(err)
	}
	// tokens: int@1:1 f@1:5 (@2:3 x@2:4 )@2:5 tokEOF
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("int at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[2].Line != 2 || toks[2].Col != 3 {
		t.Errorf("( at %d:%d, want 2:3", toks[2].Line, toks[2].Col)
	}
}

func TestCommentsAndFormatting(t *testing.T) {
	src := `
// line comment
/* block
   comment */
int f(int a) { // trailing
    return a /* inline */ + 1;
}`
	expectRet(t, src, "f", 8, 7)
}

func TestFallOffEndReturnsZero(t *testing.T) {
	expectRet(t, `int f(int a) { if (a > 0) return a; }`, "f", 0, -5)
	expectRet(t, `int f(int a) { if (a > 0) return a; }`, "f", 3, 3)
}
