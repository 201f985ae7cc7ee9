package expr_test

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"perfbase/internal/expr"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// compileOver compiles src through the front end and CompileExpr over a
// row of the variables in vars, in name order; row fills that row.
func compileOver(t testing.TB, src string, vars map[string]value.Value) (eval func(sqldb.Row) (value.Value, error), row func(map[string]value.Value) sqldb.Row) {
	t.Helper()
	e, err := expr.Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	cols := make(sqldb.Schema, len(names))
	for i, n := range names {
		cols[i] = sqldb.Column{Name: n, Type: vars[n].Type()}
	}
	eval, err = sqldb.CompileExpr(e.SQL(), cols)
	if err != nil {
		t.Fatalf("CompileExpr(%q): %v", e.SQL(), err)
	}
	return eval, func(vars map[string]value.Value) sqldb.Row {
		r := make(sqldb.Row, len(names))
		for i, n := range names {
			r[i] = vars[n]
		}
		return r
	}
}

func evalErr(t *testing.T, src string, vars map[string]value.Value) (value.Value, error) {
	t.Helper()
	eval, row := compileOver(t, src, vars)
	return eval(row(vars))
}

func evalStr(t *testing.T, src string, vars map[string]value.Value) value.Value {
	t.Helper()
	v, err := evalErr(t, src, vars)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmeticPrecedence(t *testing.T) {
	cases := map[string]float64{
		"1+2*3":         7,
		"(1+2)*3":       9,
		"2^10":          1024,
		"2^3^2":         512, // right associative
		"-2^2":          -4,  // unary binds looser than ^
		"10-4-3":        3,   // left associative
		"7.0/2":         3.5,
		"10 % 4":        2,
		"2*3+4*5":       26,
		"-(3+4)":        -7,
		"1 + 2 - 3 * 4": -9,
	}
	for src, want := range cases {
		v := evalStr(t, src, nil)
		if got := v.Float(); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestIntegerSemantics(t *testing.T) {
	v := evalStr(t, "7/2", nil)
	if v.Type() != value.Integer || v.Int() != 3 {
		t.Errorf("7/2 = %v (%s), want integer 3", v, v.Type())
	}
	v = evalStr(t, "7/2.0", nil)
	if v.Type() != value.Float || v.Float() != 3.5 {
		t.Errorf("7/2.0 = %v (%s), want float 3.5", v, v.Type())
	}
}

func TestComparisonsAndBooleans(t *testing.T) {
	trueCases := []string{
		"1 < 2", "2 <= 2", "3 > 2", "3 >= 3", "1 == 1", "1 = 1",
		"1 != 2", "1 <> 2", "true and true", "false or true",
		"not false", "!false", "1 < 2 and 2 < 3", "'abc' == 'abc'",
		"'abc' < 'abd'", "true && true", "false || true",
	}
	for _, src := range trueCases {
		v := evalStr(t, src, nil)
		if v.Type() != value.Boolean || !v.Bool() {
			t.Errorf("%q = %v, want true", src, v)
		}
	}
	falseCases := []string{"2 < 1", "not true", "true and false", "1 == 2"}
	for _, src := range falseCases {
		if v := evalStr(t, src, nil); v.Bool() {
			t.Errorf("%q = true, want false", src)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand references an unbound variable; short-circuit
	// evaluation must not touch it.
	v := evalStr(t, "false and missing > 0", nil)
	if v.Bool() {
		t.Error("false and X should be false")
	}
	v = evalStr(t, "true or missing > 0", nil)
	if !v.Bool() {
		t.Error("true or X should be true")
	}
}

func TestVariables(t *testing.T) {
	vars := map[string]value.Value{
		"n":       value.NewInt(4),
		"bw":      value.NewFloat(214.516),
		"fs.name": value.NewString("ufs"),
		"order":   value.NewInt(3),
	}
	v := evalStr(t, "bw / n", vars)
	if v.Float() != 214.516/4 {
		t.Errorf("bw/n = %v", v)
	}
	v = evalStr(t, "fs.name == 'ufs'", vars)
	if !v.Bool() {
		t.Error("dotted variable name failed")
	}
	// A variable named like a keyword of the engine.
	if v := evalStr(t, "order * 2", vars); v.Int() != 6 {
		t.Errorf("order * 2 = %v", v)
	}
	e, _ := expr.Compile("a + b*a + c + A")
	got := e.Variables()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Variables() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Variables()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := evalErr(t, "x+1", nil); err == nil {
		t.Error("unbound variable not reported")
	}
}

func TestFunctions(t *testing.T) {
	cases := map[string]float64{
		"sqrt(16)":        4,
		"abs(-3.5)":       3.5,
		"log2(1024)":      10,
		"log10(1000)":     3,
		"floor(2.7)":      2,
		"ceil(2.1)":       3,
		"round(2.5)":      3,
		"min(3, 1, 2)":    1,
		"max(3, 1, 2)":    3,
		"pow(2, 8)":       256,
		"exp(0)":          1,
		"if(1<2, 10, 20)": 10,
		"if(2<1, 10, 20)": 20,
		"float(3)":        3,
		"sin(0)":          0,
		"cos(0)":          1,
		"tan(0)":          0,
	}
	for src, want := range cases {
		v := evalStr(t, src, nil)
		if got := v.Float(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	if v := evalStr(t, "abs(-3)", nil); v.Type() != value.Integer || v.Int() != 3 {
		t.Errorf("abs(-3) = %v (%s)", v, v.Type())
	}
	if v := evalStr(t, "int(3.9)", nil); v.Type() != value.Integer || v.Int() != 3 {
		t.Errorf("int(3.9) = %v", v)
	}
}

// TestCompileErrors: a syntax error, and — class (d) — an unknown
// function or a wrong argument count, fail at compile time.
func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1+2", "1 2", "foo(", "foo(1,", "1 @ 2",
		"'unterminated", "min()", "sqrt(1,2)", "if(true,1)", "nosuchfn(1)",
		"false and nosuchfn(1)",
	}
	for _, src := range bad {
		if _, err := expr.Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"1/0", "1.0/0.0", "not 5", "true and 1",
		"-'abc'", "'a' + 1",
	}
	for _, src := range bad {
		if _, err := evalErr(t, src, nil); err == nil {
			t.Errorf("eval %q succeeded, want error", src)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	v := evalStr(t, `'list' + '-' + 'based'`, nil)
	if v.Str() != "list-based" {
		t.Errorf("string concat = %q", v.Str())
	}
	v = evalStr(t, `"double" == 'double'`, nil)
	if !v.Bool() {
		t.Error("double-quoted literal mismatch")
	}
	if v := evalStr(t, `"it's"`, nil); v.Str() != "it's" {
		t.Errorf("quote in a literal = %q", v.Str())
	}
}

func TestNullPropagation(t *testing.T) {
	vars := map[string]value.Value{"x": value.Null(value.Float)}
	v := evalStr(t, "x + 1", vars)
	if !v.IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
	v = evalStr(t, "sqrt(x)", vars)
	if !v.IsNull() {
		t.Error("sqrt(NULL) should be NULL")
	}
}

// TestExprNullComparison is class (a): a comparison with a NULL operand
// is NULL, where the former evaluator sorted NULL first (NULL < 1 was
// true).
func TestExprNullComparison(t *testing.T) {
	vars := map[string]value.Value{"x": value.Null(value.Integer)}
	for _, src := range []string{"x < 1", "x == x", "null != 1"} {
		if v := evalStr(t, src, vars); !v.IsNull() {
			t.Errorf("%q = %v, want NULL", src, v)
		}
	}
	if v := evalStr(t, "if(x < 1, 1, 2)", vars); v.Int() != 2 {
		t.Errorf("if(NULL, 1, 2) = %v, want 2", v)
	}
}

// TestExprLazyIf is class (b): if() evaluates only the branch it picks.
func TestExprLazyIf(t *testing.T) {
	vars := map[string]value.Value{"bw": value.NewFloat(100), "nodes": value.NewInt(0)}
	if v := evalStr(t, "if(nodes > 0, bw / nodes, 0)", vars); v.Type() != value.Integer || v.Int() != 0 {
		t.Errorf("guarded division = %v (%s), want integer 0", v, v.Type())
	}
	if _, err := evalErr(t, "if(nodes == 0, bw / nodes, 0)", vars); err == nil {
		t.Error("the picked branch's division by zero was not reported")
	}
}

// TestExprCaseInsensitive is class (c): names resolve case-insensitively.
func TestExprCaseInsensitive(t *testing.T) {
	vars := map[string]value.Value{"bw": value.NewFloat(8), "Nodes": value.NewInt(2)}
	if v := evalStr(t, "BW / nodes", vars); v.Float() != 4 {
		t.Errorf("BW / nodes = %v, want 4", v)
	}
}

// TestExprSQL pins the lowering table.
func TestExprSQL(t *testing.T) {
	cases := map[string]string{
		"2^3^2":             "POWER(2, POWER(3, 2))",
		"-2^2":              "(-POWER(2, 2))",
		"+x":                `"x"`,
		"a == b && !c":      `(("a" = "b") AND (NOT "c"))`,
		"a != b or not c":   `(("a" <> "b") OR (NOT "c"))`,
		"min(a, 1)":         `LEAST("a", 1)`,
		"max(a, 2, 3)":      `GREATEST("a", 2, 3)`,
		"int(x) + float(y)": `(CAST("x" AS INTEGER) + CAST("y" AS FLOAT))`,
		"log(x) % 2":        `(LN("x") % 2)`,
		"pow(x, 2)":         `POWER("x", 2)`,
		"if(c, 1, 2)":       `IF("c", 1, 2)`,
		"null":              "CAST(NULL AS FLOAT)",
		"3.0 + 1e300":       "(3.0 + 1e+300)",
		`"it's"`:            `'it''s'`,
		"true or false":     "(TRUE OR FALSE)",
		"fs.name":           `"fs.name"`,
	}
	for src, want := range cases {
		e, err := expr.Compile(src)
		if err != nil {
			t.Errorf("Compile(%q): %v", src, err)
			continue
		}
		if e.SQL() != want {
			t.Errorf("Compile(%q).SQL() = %s, want %s", src, e.SQL(), want)
		}
	}
}

// Property: for random ints, the expression evaluator agrees with Go.
func TestQuickArithmeticAgreesWithGo(t *testing.T) {
	vars := map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(0)}
	eval, row := compileOver(t, "a*b + a - b", vars)
	f := func(a, b int32) bool {
		v, err := eval(row(map[string]value.Value{"a": value.NewInt(int64(a)), "b": value.NewInt(int64(b))}))
		if err != nil {
			return false
		}
		want := int64(a)*int64(b) + int64(a) - int64(b)
		return v.Int() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison operators are consistent with value.Compare.
func TestQuickComparisonConsistent(t *testing.T) {
	vars := map[string]value.Value{"a": value.NewFloat(0), "b": value.NewFloat(0)}
	lt, row := compileOver(t, "a < b", vars)
	ge, _ := compileOver(t, "a >= b", vars)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		r := row(map[string]value.Value{"a": value.NewFloat(a), "b": value.NewFloat(b)})
		v1, err1 := lt(r)
		v2, err2 := ge(r)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1.Bool() != v2.Bool()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalSimple(b *testing.B) {
	vars := map[string]value.Value{
		"a": value.NewFloat(2), "b": value.NewFloat(3), "c": value.NewFloat(16),
	}
	eval, row := compileOver(b, "a*b + sqrt(c)", vars)
	r := row(vars)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Compile("(bw1 - bw0) / bw0 * 100"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileNeverPanics: arbitrary input must produce an expression
// or an error, never a panic.
func TestCompileNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", s, r)
				ok = false
			}
		}()
		expr.Compile(s) //nolint:errcheck
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
