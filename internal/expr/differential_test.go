package expr_test

// The differential oracle of the expression language. A byte-driven
// generator writes expressions from the language's grammar — every
// operator, every function, nesting, with and without parentheses —
// over literals and over the variables of env, whose values cover
// every type: 0, −0, MinInt64, MaxInt64, NaN, ±Inf, a string holding a
// quote, versions, a timestamp, booleans and a NULL of each type.
//
// Each expression is answered by both users of the language:
// sqldb.CompileExpr over env as one row (derived parameters), and the
// statement the eval operator runs, over env as a table
// (CREATE … AS SELECT CAST((<sql>) AS FLOAT)). The second must give the
// first's answer as a Float, or fail when that has none: the SQL text
// round-trips.
//
// testdata/differential.tsv holds seeded cases answered by the
// language's former evaluator, a stack machine of its own, when it was
// retired. TestExprCorpus replays them: CompileExpr must give the
// recorded old answer, except in a case marked with the classes of
// deliberate change that explain the difference, where it must give
// the recorded new one:
//
//	a  NULL follows SQL: a comparison with a NULL operand is NULL; NOT,
//	   AND, OR, IF and the math functions take a NULL of any type, and
//	   AND and OR read it as not true.
//	b  if() evaluates only the branch it picks.
//	c  names resolve case-insensitively.
//	d  an unknown function or a wrong argument count fails at compile
//	   time, even where evaluation would not reach it.
//
// (e), the engine's error texts, needs no mark: two failures agree
// whatever they say. Neither does a NULL's type: both users convert
// the answer to a declared type.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfbase/internal/expr"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// env is what the variables of a generated expression hold.
var env = []struct {
	name string
	v    value.Value
}{
	{"i0", value.NewInt(0)},
	{"i1", value.NewInt(1)},
	{"i7", value.NewInt(7)},
	{"ineg", value.NewInt(-3)},
	{"imin", value.NewInt(math.MinInt64)},
	{"imax", value.NewInt(math.MaxInt64)},
	{"f0", value.NewFloat(0)},
	{"fneg0", value.NewFloat(math.Copysign(0, -1))},
	{"f25", value.NewFloat(2.5)},
	{"fnan", value.NewFloat(math.NaN())},
	{"finf", value.NewFloat(math.Inf(1))},
	{"fninf", value.NewFloat(math.Inf(-1))},
	{"s", value.NewString("it's")},
	{"s7", value.NewString("7")},
	{"sabc", value.NewString("abc")},
	{"v1", value.NewVersion("2.6.1")},
	{"v2", value.NewVersion("2.10")},
	{"bt", value.NewBool(true)},
	{"bf", value.NewBool(false)},
	{"ts", value.NewTimestamp(time.Date(2004, 11, 23, 18, 30, 30, 0, time.UTC))},
	{"order", value.NewInt(2)},
	{"ni", value.Null(value.Integer)},
	{"nf", value.Null(value.Float)},
	{"ns", value.Null(value.String)},
	{"nb", value.Null(value.Boolean)},
	{"nv", value.Null(value.Version)},
	{"nt", value.Null(value.Timestamp)},
}

var envCols = func() sqldb.Schema {
	cols := make(sqldb.Schema, len(env))
	for i, b := range env {
		cols[i] = sqldb.Column{Name: b.name, Type: b.v.Type()}
	}
	return cols
}()

var envRow = func() sqldb.Row {
	row := make(sqldb.Row, len(env))
	for i, b := range env {
		row[i] = b.v
	}
	return row
}()

// exprGen writes an expression from the bytes it is given, choosing 0
// once they run out.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1]) % n
}

// The kinds of expression the generator aims at. It misses now and
// then, on purpose: a type error is an answer too.
const (
	kNum = iota
	kBool
	kAny
)

var (
	genLeaves = [...][]string{
		kNum: {"0", "1", "7", "2.5", "0.0", "3.0", ".5", "1e300", "100000.0", "9223372036854775807", "null",
			"i0", "i1", "i7", "ineg", "imin", "imax", "f0", "fneg0", "f25", "fnan", "finf", "fninf",
			"order", "ni", "nf"},
		kBool: {"true", "false", "bt", "bf", "nb"},
		kAny:  {"'x'", `"it's"`, "''", "'2.6'", "'7'", "s", "s7", "sabc", "v1", "v2", "ts", "ns", "nv", "nt"},
	}
	genArith = []string{"+", "-", "*", "/", "%", "^"}
	genCmp   = []string{"==", "=", "!=", "<>", "<", "<=", ">", ">="}
	genLogic = []string{"and", "or", "&&", "||"}
	// genFuncs are the functions with their argument counts, -1 for one
	// or more, and a name no function has.
	genFuncs = []struct {
		name  string
		arity int
	}{
		{"abs", 1}, {"sqrt", 1}, {"exp", 1}, {"log", 1}, {"log2", 1}, {"log10", 1},
		{"floor", 1}, {"ceil", 1}, {"round", 1}, {"sin", 1}, {"cos", 1}, {"tan", 1},
		{"min", -1}, {"max", -1}, {"pow", 2}, {"int", 1}, {"float", 1}, {"if", 3},
		{"nosuchfn", 1},
	}
)

// expr writes an expression of any kind.
func (g *exprGen) expr(depth int) string { return g.gen(kAny, depth) }

func (g *exprGen) gen(kind, depth int) string {
	if g.pick(32) == 0 {
		kind = kAny
	}
	if depth <= 0 || g.pick(4) == 0 {
		return g.leaf(kind)
	}
	d := depth - 1
	if kind == kAny {
		switch g.pick(4) {
		case 0:
			kind = kNum
		case 1:
			kind = kBool
		case 2:
			return g.wrap(g.gen(kAny, d) + " " + g.op() + " " + g.gen(kAny, d))
		default:
			return g.call(d)
		}
	}
	if kind == kNum {
		switch g.pick(6) {
		case 0:
			return []string{"-", "+"}[g.pick(2)] + g.wrap(g.gen(kNum, d))
		case 1, 2:
			return g.wrap(g.gen(kNum, d) + " " + genArith[g.pick(len(genArith))] + " " + g.gen(kNum, d))
		case 3, 4:
			return g.call(d)
		}
		return "if(" + g.gen(kBool, d) + ", " + g.gen(kNum, d) + ", " + g.gen(kNum, d) + ")"
	}
	switch g.pick(5) {
	case 0:
		return g.wrap([]string{"not ", "!"}[g.pick(2)] + g.wrap(g.gen(kBool, d)))
	case 1:
		k := kNum
		if g.pick(3) == 0 {
			k = kAny
		}
		return "(" + g.gen(k, d) + " " + genCmp[g.pick(len(genCmp))] + " " + g.gen(k, d) + ")"
	case 2, 3:
		return g.wrap(g.gen(kBool, d) + " " + genLogic[g.pick(len(genLogic))] + " " + g.gen(kBool, d))
	}
	return "if(" + g.gen(kBool, d) + ", " + g.gen(kBool, d) + ", " + g.gen(kBool, d) + ")"
}

// leaf writes a literal or a variable, whose name it sometimes spells in
// upper case.
func (g *exprGen) leaf(kind int) string {
	if kind == kAny {
		kind = g.pick(3)
	}
	s := genLeaves[kind][g.pick(len(genLeaves[kind]))]
	if s[0] >= 'a' && s[0] <= 'z' && s != "null" && s != "true" && s != "false" && g.pick(64) == 0 {
		s = strings.ToUpper(s)
	}
	return s
}

// op is any binary operator.
func (g *exprGen) op() string {
	switch g.pick(3) {
	case 0:
		return genArith[g.pick(len(genArith))]
	case 1:
		return genCmp[g.pick(len(genCmp))]
	}
	return genLogic[g.pick(len(genLogic))]
}

// call writes a function call, now and then of no function or with a
// wrong argument count.
func (g *exprGen) call(depth int) string {
	f := genFuncs[g.pick(len(genFuncs)-1)]
	if g.pick(40) == 0 {
		f = genFuncs[len(genFuncs)-1]
	}
	n := f.arity
	switch {
	case n < 0:
		n = 1 + g.pick(3)
		if g.pick(10) == 0 {
			n = 0
		}
	case g.pick(20) == 0:
		n += g.pick(3) - 1
	}
	args := make([]string, n)
	for i := range args {
		k := kNum
		if f.name == "if" && i == 0 {
			k = kBool
		}
		args[i] = g.gen(k, depth)
	}
	return f.name + "(" + strings.Join(args, ", ") + ")"
}

// wrap parenthesises s three times in four, leaving precedence to
// decide the rest.
func (g *exprGen) wrap(s string) string {
	if g.pick(4) == 0 {
		return s
	}
	return "(" + s + ")"
}

// seedExpr is the expression of corpus seed n.
func seedExpr(n int64) string {
	data := make([]byte, 96)
	rand.New(rand.NewSource(n)).Read(data)
	return (&exprGen{data: data}).expr(4)
}

// answer renders a result for comparison: the type and the datum, any
// NaN as one, a NULL without its type, every failure as one.
func answer(v value.Value, err error) string {
	switch {
	case err != nil:
		return "error"
	case v.IsNull():
		return "null"
	case v.Type() == value.Float && math.IsNaN(v.Float()):
		return "float:NaN"
	case v.Type() == value.Float:
		return fmt.Sprintf("float:%#x", math.Float64bits(v.Float()))
	case v.Type() == value.String || v.Type() == value.Version:
		return v.Type().String() + ":" + strconv.Quote(v.Str())
	case v.Type() == value.Timestamp:
		return "timestamp:" + v.Time().Format(time.RFC3339Nano)
	}
	return v.Type().String() + ":" + v.String()
}

// derived answers src as a derived parameter does: the front end, then
// CompileExpr over env as one row.
func derived(src string) (value.Value, error) {
	e, err := expr.Compile(src)
	if err != nil {
		return value.Value{}, err
	}
	eval, err := sqldb.CompileExpr(e.SQL(), envCols)
	if err != nil {
		return value.Value{}, err
	}
	return eval(envRow)
}

var (
	envOnce sync.Once
	envDB   *sqldb.DB
	envErr  error
	evalSeq atomic.Int64
)

// evalStmt answers src as the eval operator does: its statement over
// env as a table.
func evalStmt(src string) (value.Value, error) {
	envOnce.Do(func() {
		envDB = sqldb.NewMemory()
		defs := make([]string, len(envCols))
		names := make([]string, len(envCols))
		for i, c := range envCols {
			defs[i] = `"` + c.Name + `" ` + c.Type.String()
			names[i] = c.Name
		}
		if _, envErr = envDB.Exec("CREATE TABLE env (" + strings.Join(defs, ", ") + ")"); envErr == nil {
			_, envErr = envDB.InsertRows("env", names, []sqldb.Row{envRow})
		}
	})
	if envErr != nil {
		return value.Value{}, envErr
	}
	e, err := expr.Compile(src)
	if err != nil {
		return value.Value{}, err
	}
	out := fmt.Sprintf("ev%d", evalSeq.Add(1))
	if _, err := envDB.Exec("CREATE TEMP TABLE " + out + " AS SELECT CAST((" + e.SQL() + ") AS FLOAT) AS r FROM env"); err != nil {
		return value.Value{}, err
	}
	defer envDB.Exec("DROP TABLE " + out) //nolint:errcheck
	res, err := envDB.Exec("SELECT r FROM " + out)
	if err != nil {
		return value.Value{}, err
	}
	if len(res.Rows) != 1 {
		return value.Value{}, fmt.Errorf("eval statement gave %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// checkUsers holds the eval statement to the derived answer as a Float.
func checkUsers(t *testing.T, src string) value.Value {
	t.Helper()
	v, err := derived(src)
	want := answer(v, err)
	if err == nil {
		want = answer(v.Convert(value.Float))
	}
	if got := answer(evalStmt(src)); got != want {
		_, serr := evalStmt(src)
		t.Errorf("%q: eval statement %s (%v), CompileExpr as Float %s", src, got, serr, want)
	}
	return v
}

func FuzzExprDifferential(f *testing.F) {
	for n := int64(1); n <= 32; n++ {
		data := make([]byte, 96)
		rand.New(rand.NewSource(n)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkUsers(t, (&exprGen{data: data}).expr(4))
	})
}

// corpusCase is one line of testdata/differential.tsv.
type corpusCase struct {
	classes, src, old, new string
}

func readCorpus(t *testing.T) []corpusCase {
	t.Helper()
	f, err := os.Open("testdata/differential.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cases []corpusCase
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			p := strings.Split(line, "\t")
			if len(p) != 4 {
				t.Fatalf("bad corpus line %q", line)
			}
			cases = append(cases, corpusCase{p[0], p[1], p[2], p[3]})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cases
}

// classMarks are what a case of each class must show in its source or
// its answers, so that a mark cannot hide an unrelated difference.
var classMarks = map[byte]func(c corpusCase) bool{
	'a': func(c corpusCase) bool { return nullOperand.MatchString(c.src) },
	'b': func(c corpusCase) bool { return strings.Contains(c.src, "if(") && c.old == "error" },
	'c': func(c corpusCase) bool { return upperName.MatchString(c.src) },
	'd': func(c corpusCase) bool {
		_, err := expr.Compile(c.src)
		return err != nil && (strings.Contains(err.Error(), "function") || strings.Contains(err.Error(), "argument"))
	},
}

var (
	// nullOperand: a NULL literal or variable (their names start with n
	// and hold no dot; no other variable starts with n).
	nullOperand = regexp.MustCompile(`(?i)\b(null|n[ifsbvt])\b`)
	upperName   = regexp.MustCompile(`\b[A-Z][A-Z0-9.]*\b`)
)

// TestExprCorpus replays the recorded cases through both users.
func TestExprCorpus(t *testing.T) {
	cases := readCorpus(t)
	if len(cases) < 2000 {
		t.Fatalf("corpus holds %d cases, want at least 2000", len(cases))
	}
	perClass := map[byte]int{}
	for _, c := range cases {
		got := answer(derived(c.src))
		want := c.old
		if c.classes != "-" {
			want = c.new
			if c.new == c.old {
				t.Errorf("%q: marked %s but the answers agree", c.src, c.classes)
			}
			for i := 0; i < len(c.classes); i++ {
				mark, ok := classMarks[c.classes[i]]
				if !ok || !mark(c) {
					t.Errorf("%q: marked class %c, which does not show", c.src, c.classes[i])
				}
				perClass[c.classes[i]]++
			}
		}
		if got != want {
			t.Errorf("%q (classes %s): CompileExpr %s, want %s (old %s)", c.src, c.classes, got, want, c.old)
		}
		checkUsers(t, c.src)
	}
	t.Logf("%d cases, by class of deliberate change: %v", len(cases), perClass)
}
