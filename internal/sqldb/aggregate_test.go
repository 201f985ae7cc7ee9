package sqldb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"perfbase/internal/value"
)

// aggTestRows is the size of the agreement table: past
// vecParallelMinRows, so four scan workers really run in parallel, and
// several morsels whatever the chunks compact to.
const aggTestRows = vecParallelMinRows + 500

// aggTestRow renders row k of the agreement table t as a VALUES tuple,
// and the two of its values the key table kt repeats.
// The data holds what the drivers could disagree on and nothing they
// are documented to: every float is a multiple of 0.25 and every big
// integer converts to a multiple of 2^53, so float sums are exact in
// any order (DESIGN.md §8 excepts reordered inexact sums); the NaN in
// row 0 is the first input of its group under every key, and the one
// in row 7100 sits in mid-morsel behind earlier inputs of its group
// (alone in its group under the high-cardinality key), so keep-first
// MIN/MAX agree as well.
func aggTestRow(k int) (g, w, row string) {
	null := func(cond bool, s string) string {
		if cond {
			return "NULL"
		}
		return s
	}
	g = null(k%7 == 6, fmt.Sprint(k%7))
	s := null(k%5 == 4, fmt.Sprintf("'s%d'", k%5))
	hs := fmt.Sprintf("'h%d'", k%1100)
	// One group under every key has nothing but NULL arguments.
	allNull := k%7 == 5 || k%5 == 3 || k%1100 == 7
	i := null(allNull || k%11 == 0, fmt.Sprint((k*37)%201-100))
	w = null(allNull || k%9 == 0, fmt.Sprint((k*41)%301-150))
	f := null(allNull || k%13 == 0, fmt.Sprint(float64((k*13)%401-200)*0.5))
	switch k {
	case 0:
		f = "CAST('NaN' AS float)"
	case 7100:
		f, hs = "CAST('NaN' AS float)", "'hnan'"
	}
	// Past 2^53 a float no longer holds the integer, and three of the
	// 2^62 wrap an int64 sum.
	big := [...]string{"9007199254740993", "4611686018427387904", "NULL", "-9007199254740993"}[k%4]
	big = null(allNull, big)
	pos := null(allNull, fmt.Sprint(1+float64(k%50)*0.25))
	str := null(allNull || k%17 == 0, fmt.Sprintf("'v%d'", (k*7)%13))
	ver := null(allNull || k%19 == 0, fmt.Sprintf("'1.%d.%d'", k%12, k%3))
	flag := null(allNull || k%23 == 0, strings.ToUpper(fmt.Sprint(k%3 == 0)))
	// Infinities of both signs (their group's variance is NaN), a NaN in
	// mid-morsel, and one Welford-sensitive spread around a large mean.
	inf := null(allNull || k%29 == 0, fmt.Sprint(1e9+float64((k*29)%161-80)*0.25))
	switch {
	case k%997 == 3:
		inf = "CAST('Infinity' AS float)"
	case k%1301 == 5:
		inf = "CAST('-Infinity' AS float)"
	case k == 9000:
		inf = "CAST('NaN' AS float)"
	}
	// Keys in runs, as a source's parameters come: a constant, an integer
	// in runs of 500 across the morsel edges, one with runs of NULL, a
	// float whose runs alternate 0 and −0 and whose one run of NaNs
	// alternates two bit patterns, and a Version whose runs spell one
	// version three ways. Each run break that is no key change must fall
	// through to the lookup that merges it.
	r500 := fmt.Sprint(k / 500)
	rn := null((k/300)%4 == 3, fmt.Sprint((k/300)%5))
	rf := [...]string{"0.0", "-0.0"}[(k/400)%2]
	if k >= 8000 && k < 8100 {
		rf = [...]string{"CAST('NaN' AS float)", "-CAST('NaN' AS float)"}[k%2]
	}
	rv := [...]string{"'1.2'", "'1-2'", "'01.2'"}[(k/700)%3]
	return g, w, fmt.Sprintf("(%d, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, 'gige', %s, %s, %s, %s)",
		k, g, s, hs, i, w, f, big, pos, str, ver, flag, inf, r500, rn, rf, rv)
}

// aggTestStmt is one statement of the agreement matrix: as the single-
// table drivers run it, and over the join, where the numeric key and
// the argument w come from the build side. kernel says whether the
// vector planners must accept it, and inOrder whether an aggregate's
// state does not merge, which makes the fused join path decline it.
type aggTestStmt struct {
	sql, joinSQL    string
	kernel, inOrder bool
}

const aggTestJoin = "t JOIN kt ON t.k = kt.k2"

// aggTestStatements generates the agreement matrix: every aggregate
// over every argument type it accepts, under every key shape, with the
// input variants. The aggregates of one (key, variant) go into two
// wide statements — those expected to have a batch kernel and the rest
// — because one aggregate without a kernel keeps its whole statement
// off the vector paths.
func aggTestStatements() (stmts []aggTestStmt) {
	args := []struct {
		col, joinCol string
		typ          value.Type
	}{
		{"i", "i", value.Integer}, {"w", "kw", value.Integer}, {"big", "big", value.Integer},
		{"f", "f", value.Float}, {"pos", "pos", value.Float},
		{"str", "str", value.String}, {"ver", "ver", value.Version}, {"flag", "flag", value.Boolean},
		{"inf", "inf", value.Float},
	}
	// The test's own statement of which (aggregate, type) pairs have a
	// kernel: it pins kernelFor's list through the planner's decision.
	hasKernel := func(agg string, typ value.Type) bool {
		switch agg {
		case "count":
			return true
		case "sum", "avg", "variance", "stddev":
			return typ.Numeric()
		case "min", "max":
			return typ.Numeric() || typ == value.String
		}
		return false
	}
	var names []string
	for name := range aggOps {
		names = append(names, name)
	}
	sort.Strings(names)

	keys := []struct{ sel, group, joinSel, joinGroup string }{
		{},
		{"g, ", " GROUP BY g", "kg AS g, ", " GROUP BY kg"},
		{"s, ", " GROUP BY s", "s, ", " GROUP BY s"},
		{"hs, ", " GROUP BY hs", "hs, ", " GROUP BY hs"},
		{"g, s, ", " GROUP BY g, s", "kg AS g, s, ", " GROUP BY kg, s"},
		// The keys in runs: a string, a float, and all of them.
		{"cs, ", " GROUP BY cs", "cs, ", " GROUP BY cs"},
		{"rf, ", " GROUP BY rf", "rf, ", " GROUP BY rf"},
		{"cs, r500, rn, rf, rv, ", " GROUP BY cs, r500, rn, rf, rv", "cs, r500, rn, rf, rv, ", " GROUP BY cs, r500, rn, rf, rv"},
		// Single Boolean and Version keys, a key with runs of NULL, and a
		// Version whose runs spell one version three ways.
		{"flag, ", " GROUP BY flag", "flag, ", " GROUP BY flag"},
		{"ver, ", " GROUP BY ver", "ver, ", " GROUP BY ver"},
		{"rn, ", " GROUP BY rn", "rn, ", " GROUP BY rn"},
		{"rv, ", " GROUP BY rv", "rv, ", " GROUP BY rv"},
	}
	variants := []struct{ distinct, suffix, where string }{
		{},
		{where: " WHERE i > 10"},
		{where: " WHERE k < 0"}, // empty input
		{distinct: "DISTINCT "},
		{suffix: " + 1"}, // expression argument
	}
	for ki, key := range keys {
		for _, v := range variants {
			// What DISTINCT and an expression change is how an accumulator
			// is fed, not how its group is found: two key shapes do.
			if (v.distinct != "" || v.suffix != "") && ki%4 != 0 {
				continue
			}
			// Up to three statements: the aggregates with a batch kernel and
			// a state that merges, those with a kernel and a state that does
			// not (VARIANCE, STDDEV), and the rest.
			type itemList struct {
				plain, join     []string
				kernel, inOrder bool
			}
			star := []string{"COUNT(*) AS count_star"}
			items := []*itemList{
				{plain: star, join: star, kernel: true},
				{plain: star, join: star, kernel: true, inOrder: true},
				{},
			}
			for _, name := range names {
				for _, a := range args {
					if name != "count" && name != "min" && name != "max" && !a.typ.Numeric() {
						continue
					}
					suffix := v.suffix
					if suffix != "" && a.typ == value.String {
						suffix = " || 'x'"
					} else if suffix != "" && !a.typ.Numeric() {
						continue
					}
					l := items[2]
					if hasKernel(name, a.typ) && v.distinct == "" && v.suffix == "" {
						l = items[0]
						if name == "variance" || name == "stddev" {
							l = items[1]
						}
					}
					item := "%s(" + v.distinct + "%s" + suffix + ") AS %s_" + a.col
					l.plain = append(l.plain, fmt.Sprintf(item, name, a.col, name))
					l.join = append(l.join, fmt.Sprintf(item, name, a.joinCol, name))
				}
			}
			for _, l := range items {
				if len(l.plain) < 2 {
					continue
				}
				stmts = append(stmts, aggTestStmt{
					sql:     "SELECT " + key.sel + strings.Join(l.plain, ", ") + " FROM t" + v.where + key.group,
					joinSQL: "SELECT " + key.joinSel + strings.Join(l.join, ", ") + " FROM " + aggTestJoin + v.where + key.joinGroup,
					kernel:  l.kernel,
					inOrder: l.inOrder,
				})
			}
		}
	}
	// The render tail over a grouped result, and an expression key.
	for _, sql := range []string{
		"SELECT g, COUNT(*) AS n, AVG(big) AS a FROM t GROUP BY g HAVING COUNT(*) > 100 ORDER BY g DESC LIMIT 3",
		"SELECT s, MAX(f) AS m FROM t GROUP BY s ORDER BY m, s",
		"SELECT g + 1 AS g1, SUM(i) AS s, STDDEV(pos) AS sd FROM t GROUP BY g + 1",
	} {
		stmts = append(stmts, aggTestStmt{sql: sql, joinSQL: strings.Replace(sql, " FROM t", " FROM "+aggTestJoin, 1), kernel: !strings.Contains(sql, "g + 1")})
	}
	return stmts
}

// TestAggDriversAgree is the one agreement test of grouped aggregation:
// every statement of the matrix is answered by each driver of the group
// table — the row engine, the vector engine at 1 and at 4 scan workers,
// the join-fused path (the same table joined 1:1 to a key table), an
// incremental view fed by INSERT deltas and the same view rebuilt from
// a snapshot — and all six answers must be equal to the byte.
func TestAggDriversAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rdb, v1, v4 := NewMemory(), NewMemory(), NewMemory()
	defer rdb.Close()
	defer v1.Close()
	defer v4.Close()
	rdb.SetVectorized(false)
	v1.SetScanWorkers(1)
	v4.SetScanWorkers(4)
	dbs := []*DB{rdb, v1, v4}
	for _, db := range dbs {
		mustExec(t, db, "CREATE TABLE t (k integer, g integer, s string, hs string, i integer, w integer, f float, big integer, pos float, str string, ver version, flag boolean, inf float, cs string, r500 integer, rn integer, rf float, rv version)")
	}
	mustExec(t, v4, "CREATE TABLE kt (k2 integer, kg integer, kw integer)")

	stmts := aggTestStatements()
	views := NewViewRegistry(v4)
	defer views.Close()
	for si, st := range stmts {
		if err := views.Register(fmt.Sprint("v", si), st.sql); err != nil {
			t.Fatalf("register %q: %v", st.sql, err)
		}
	}

	// Load: a few single-row statements, then large batches, so the
	// views see deltas of both sizes and the table ends up multi-morsel.
	var ktRows []string
	for lo := 0; lo < aggTestRows; {
		n := 5000
		if lo < 5 {
			n = 1
		}
		var rows []string
		for k := lo; k < min(lo+n, aggTestRows); k++ {
			g, w, row := aggTestRow(k)
			rows = append(rows, row)
			ktRows = append(ktRows, fmt.Sprintf("(%d, %s, %s)", k, g, w))
		}
		lo += len(rows)
		for _, db := range dbs {
			mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(rows, ", "))
		}
	}
	mustExec(t, v4, "INSERT INTO kt VALUES "+strings.Join(ktRows, ", "))
	tab, _ := v4.state.Load().table("t")
	if ms, err := tab.morsels(); err != nil || len(ms) < 4 {
		t.Fatalf("agreement table cut into %d morsels (%v), want several", len(ms), err)
	}
	if err := views.WaitPos(v4.Pos(), time.Minute); err != nil {
		t.Fatal(err)
	}

	for si, st := range stmts {
		// The planners' decision is part of the contract: a statement of
		// kernel aggregates over plain-column keys runs vectorized (and,
		// when every state merges, join-fused), one with any other does not.
		plan := func(sql string) *compiledSelect {
			p, err := v4.state.Load().planSelect(mustParseSelect(t, sql))
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			return p
		}
		if p := plan(st.sql); (p.vec != nil) != st.kernel {
			t.Errorf("%q: vectorized plan = %v, want %v", st.sql, p.vec != nil, st.kernel)
		}
		fused := st.kernel && !st.inOrder
		if p := plan(st.joinSQL); p.vecJoin == nil || p.vecJoin.fused != fused {
			t.Errorf("%q: join-fused plan = %v, want %v", st.joinSQL, p.vecJoin != nil && p.vecJoin.fused, fused)
		}

		type answer struct {
			driver string
			res    *Result
		}
		var answers []answer
		ask := func(driver string, db *DB, sql string) {
			res, err := db.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", driver, sql, err)
			}
			answers = append(answers, answer{driver, res})
		}
		ask("row engine", rdb, st.sql)
		ask("vector engine, 1 worker", v1, st.sql)
		ask("vector engine, 4 workers", v4, st.sql)
		ask("join", v4, st.joinSQL)
		name := fmt.Sprint("v", si)
		res, _, err := views.Get(name)
		if err != nil {
			t.Fatalf("view of %q: %v", st.sql, err)
		}
		answers = append(answers, answer{"incremental view", res})
		if err := views.Register(name, st.sql); err != nil {
			t.Fatal(err)
		}
		if res, _, err = views.Get(name); err != nil {
			t.Fatalf("rebuilt view of %q: %v", st.sql, err)
		}
		answers = append(answers, answer{"rebuilt view", res})

		want := fmtViewResult(answers[0].res)
		for _, a := range answers[1:] {
			if got := fmtViewResult(a.res); got != want {
				t.Errorf("%q:\n%s disagrees with the row engine:\n%s", st.sql, a.driver, aggDiff(a.res, answers[0].res))
			}
		}
		// The declared type is the boxed one: aggResultType says what
		// result returns.
		for _, row := range answers[0].res.Rows {
			for ci, v := range row {
				if c := answers[0].res.Columns[ci]; !v.IsNull() && v.Type() != c.Type {
					t.Errorf("%q: column %s is declared %s and holds the %s %s", st.sql, c.Name, c.Type, v.Type(), v.SQL())
				}
			}
		}
	}
}

// aggDiff names the cells in which two results differ.
func aggDiff(got, want *Result) string {
	if len(got.Rows) != len(want.Rows) || len(got.Columns) != len(want.Columns) {
		return fmt.Sprintf("%d rows of %d columns, want %d of %d", len(got.Rows), len(got.Columns), len(want.Rows), len(want.Columns))
	}
	var b strings.Builder
	for ri := range got.Rows {
		for ci := range got.Columns {
			if g, w := got.Rows[ri][ci].SQL(), want.Rows[ri][ci].SQL(); g != w {
				fmt.Fprintf(&b, "  row %d (%s) %s = %s, want %s\n", ri, got.Rows[ri][0].SQL(), got.Columns[ci].Name, g, w)
			}
		}
	}
	return b.String()
}

func mustParseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return st.(*SelectStmt)
}

// TestAggAvgIntegerIsFloatSum pins the two statements on which the
// vector kernels used to answer differently from the row engine: AVG
// over an INTEGER column accumulates floats on every path, so it
// neither rounds a sum past 2^53 differently nor wraps.
func TestAggAvgIntegerIsFloatSum(t *testing.T) {
	for _, tc := range []struct {
		x    string
		want float64
	}{
		{"9007199254740993", 9007199254740992},
		{"4611686018427387904", 4611686018427387904},
	} {
		for _, vectorized := range []bool{true, false} {
			db := NewMemory()
			db.SetVectorized(vectorized)
			mustExec(t, db, "CREATE TABLE t (g integer, x integer)")
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (1, %s), (1, %s), (1, %s)", tc.x, tc.x, tc.x))
			res := mustExec(t, db, "SELECT g, AVG(x), SUM(x) FROM t GROUP BY g")
			if got := res.Rows[0][1].Float(); got != tc.want {
				t.Errorf("vectorized=%v: AVG of three %s = %v, want %v", vectorized, tc.x, got, tc.want)
			}
			// SUM keeps its documented wrapping integer result.
			var x int64
			fmt.Sscan(tc.x, &x)
			if got := res.Rows[0][2]; got.Type() != value.Integer || got.Int() != 3*x {
				t.Errorf("vectorized=%v: SUM of three %s = %v, want the wrapping integer %d", vectorized, tc.x, got, 3*x)
			}
			db.Close()
		}
	}
}

// TestVarianceLargeOffset: a small spread around a large mean — the
// shape of bandwidths in bytes per second — must not cancel. The sum of
// squares formula returned 0 here.
func TestVarianceLargeOffset(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE bw (run integer, v float)")
	mustExec(t, db, "INSERT INTO bw VALUES (1, 1000000001.0), (2, 1000000002.0), (3, 1000000003.0)")
	res := mustExec(t, db, "SELECT VARIANCE(v), STDDEV(v) FROM bw")
	for ci, name := range []string{"VARIANCE", "STDDEV"} {
		if got := res.Rows[0][ci].Float(); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s of {1e9+1, 1e9+2, 1e9+3} = %v, want 1", name, got)
		}
	}
	// One input has no spread; none has no variance.
	res = mustExec(t, db, "SELECT VARIANCE(v), STDDEV(v) FROM bw WHERE run = 1")
	if got := fmtResult(res); got != "0\t0\n" {
		t.Errorf("variance of one input = %q, want 0", got)
	}
	res = mustExec(t, db, "SELECT VARIANCE(v) FROM bw WHERE run = 0")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("variance of no input = %v, want NULL", res.Rows[0][0])
	}
}

// TestAggRenderReentrant: a view renders its retained group table after
// every commit and goes on feeding it. The group an aggregate query
// without GROUP BY yields over an empty input must be synthesized per
// render and never retained, and rendering — COUNT(*) backfill, MEDIAN's
// sort — must leave the state as a later row expects it.
func TestAggRenderReentrant(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE m (g integer, x float)")
	const sql = "SELECT COUNT(*), COUNT(x), SUM(x), MEDIAN(x), MIN(g) FROM m"
	st := mustParseSelect(t, sql)
	p, err := db.state.Load().planSelect(st)
	if err != nil {
		t.Fatal(err)
	}
	tab := newGroupTable(st, p)
	render := func() string {
		t.Helper()
		res, err := tab.render()
		if err != nil {
			t.Fatal(err)
		}
		return fmtViewResult(res)
	}
	empty := render()
	if again := render(); again != empty {
		t.Errorf("second render of an empty table differs:\n%s%s", empty, again)
	}
	if len(tab.groups) != 0 {
		t.Fatalf("render retained the empty-input group: %d groups", len(tab.groups))
	}
	for i, x := range []float64{5, 1, 3} {
		if err := tab.addRow(Row{value.NewInt(int64(9 - i)), value.NewFloat(x)}); err != nil {
			t.Fatal(err)
		}
		first := render()
		if again := render(); again != first {
			t.Errorf("after %d rows, second render differs:\n%s%s", i+1, first, again)
		}
	}
	mustExec(t, db, "INSERT INTO m VALUES (9, 5.0), (8, 1.0), (7, 3.0)")
	want := fmtViewResult(mustExec(t, db, sql))
	if got := render(); got != want {
		t.Errorf("rendered between rows:\n%swant, from one scan:\n%s", got, want)
	}

	// The same through the registry: register on an empty table, read
	// twice, insert, read.
	r := NewViewRegistry(db)
	defer r.Close()
	mustExec(t, db, "CREATE TABLE e (x integer)")
	const esql = "SELECT COUNT(*), SUM(x), MAX(x) FROM e"
	if err := r.Register("e", esql); err != nil {
		t.Fatal(err)
	}
	checkView(t, db, r, "e", esql)
	checkView(t, db, r, "e", esql)
	mustExec(t, db, "INSERT INTO e VALUES (4)")
	checkView(t, db, r, "e", esql)
	mustExec(t, db, "INSERT INTO e VALUES (6), (NULL)")
	checkView(t, db, r, "e", esql)
}

// TestProdIsDeclaredFloat: PROD boxes a float whatever its argument, and
// its column used to be declared with the argument's type — so a table
// created from PROD over integers stored a float's bits under an integer
// schema, and read them back as an integer after a reopen.
func TestProdIsDeclaredFloat(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (i integer)")
	mustExec(t, db, "INSERT INTO t VALUES (2), (3)")
	if res := mustExec(t, db, "SELECT PROD(i) FROM t"); res.Columns[0].Type != value.Float || res.Rows[0][0].Type() != value.Float {
		t.Errorf("PROD(i) is declared %s and holds a %s, want float and float", res.Columns[0].Type, res.Rows[0][0].Type())
	}
	mustExec(t, db, "CREATE TABLE u AS SELECT PROD(i) AS p FROM t")
	before := fmtResult(mustExec(t, db, "SELECT p FROM u"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if after := fmtResult(mustExec(t, db, "SELECT p FROM u")); before != "6\n" || after != before {
		t.Errorf("u.p reads %q before the reopen and %q after it, want 6 both times", before, after)
	}
}

// TestPartialSelect pins the modifier a shard coordinator sends: where
// the parser takes it, what a shard answers, and that the answers of
// the parts of a table fold into the answer over the whole.
func TestPartialSelect(t *testing.T) {
	for _, sql := range []string{
		"PARTIAL SELECT n FROM a UNION ALL SELECT n FROM b",
		"EXPLAIN PARTIAL SELECT n FROM a",
		"CREATE TABLE c AS PARTIAL SELECT n FROM a",
		"INSERT INTO a PARTIAL SELECT n FROM b",
		"PARTIAL DELETE FROM a",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%q parsed", sql)
		}
	}
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE a (k integer, g string, x integer)")
	mustExec(t, db, "CREATE TABLE b (k integer, g string, x integer)")
	mustExec(t, db, "CREATE TABLE ab (k integer, g string, x integer)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 'p', 5), (2, 'q', NULL), (3, 'p', 7)")
	mustExec(t, db, "INSERT INTO b VALUES (4, 'q', 1), (5, 'r', 2), (6, 'p', 9)")
	mustExec(t, db, "INSERT INTO ab SELECT k, g, x FROM a UNION ALL SELECT k, g, x FROM b")
	if err := NewViewRegistry(db).Register("v", "PARTIAL SELECT COUNT(*) FROM a"); err == nil {
		t.Error("a view over a PARTIAL SELECT registered")
	}
	if _, err := db.Exec("PARTIAL SELECT g, MEDIAN(x) FROM a GROUP BY g"); !errors.Is(err, ErrPartialState) {
		t.Errorf("PARTIAL SELECT MEDIAN: %v, want ErrPartialState", err)
	}
	// An ungrouped shard skips nothing and keeps OFFSET + LIMIT rows.
	if got := fmtResult(mustExec(t, db, "PARTIAL SELECT k FROM ab ORDER BY k DESC LIMIT 2 OFFSET 1")); got != "6\n5\n4\n" {
		t.Errorf("PARTIAL top-k = %q, want the first three", got)
	}
	sch, _ := db.TableSchema("ab")
	for _, sql := range []string{
		"SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(g) FROM ab GROUP BY g HAVING AVG(x) > 1 ORDER BY AVG(x) DESC",
		"SELECT k % 2 AS m, SUM(x) FROM ab GROUP BY k % 2 ORDER BY m",
		"SELECT COUNT(*), AVG(x) FROM ab WHERE k > 100",
		"SELECT k, x FROM ab WHERE x > 1 ORDER BY x DESC LIMIT 2 OFFSET 1",
	} {
		plan, ok := PlanDistributedSelect(mustParseSelect(t, sql), sch)
		if !ok {
			t.Errorf("%q: not planned", sql)
			continue
		}
		var parts []*Result
		for _, table := range []string{"a", "b"} {
			parts = append(parts, mustExec(t, db, "PARTIAL "+strings.Replace(sql, " ab", " "+table, 1)))
		}
		got, err := plan.Merge(parts)
		if err != nil {
			t.Errorf("%q: %v", sql, err)
			continue
		}
		if want := mustExec(t, db, sql); fmtViewResult(got) != fmtViewResult(want) {
			t.Errorf("%q merged from two parts:\n%swant:\n%s", sql, fmtViewResult(got), fmtViewResult(want))
		}
	}
}

// TestAggAddBatchAllocatesNothing: once a table holds a batch's groups,
// assigning the same batch to them again allocates nothing — under every
// key shape, without GROUP BY, over keys that come in runs and over keys
// that change every row. A morsel scan's grouping costs no garbage per
// batch.
func TestAggAddBatchAllocatesNothing(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (run integer, k integer, s string, hs string, f float, v integer, ver version)")
	rows := make([]Row, vecMorselRows)
	for i := range rows {
		rows[i] = Row{
			value.NewInt(int64(i / 500)), value.NewInt(int64(i % 50)),
			value.NewString(fmt.Sprint("s", i/700)), value.NewString(fmt.Sprint("h", i%1500)),
			value.NewFloat(float64(i%7) * 0.5), value.NewInt(int64(i)),
			// One version in three spellings, changing every 300 rows.
			value.NewVersion(fmt.Sprintf([...]string{"1.%d", "1-%d", "01.%d"}[i%3], i/300)),
		}
	}
	if _, err := db.InsertRows("t", []string{"run", "k", "s", "hs", "f", "v", "ver"}, rows); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "run", "k", "f", "s", "hs", "run, s", "k, hs", "ver"} {
		sql := "SELECT COUNT(*), SUM(v), AVG(f), MIN(hs) FROM t"
		if key != "" {
			sql = "SELECT " + key + ", COUNT(*), SUM(v), AVG(f), MIN(hs) FROM t GROUP BY " + key
		}
		st := mustParseSelect(t, sql)
		sn := db.state.Load()
		p, err := sn.planSelect(st)
		if err != nil {
			t.Fatal(err)
		}
		if p.vec == nil {
			t.Fatalf("%q: not vectorized", sql)
		}
		tab, _ := sn.table("t")
		ms, err := tab.morsels()
		if err != nil {
			t.Fatal(err)
		}
		cv := make([]*colVec, len(tab.schema))
		lo, hi, err := sn.env.vecs(&ms[0], tab.schema, p.vec.cols, cv)
		if err != nil {
			t.Fatal(err)
		}
		b := &scanBatch{cv: cv, from: ms[0].ch.cols}
		if b.from == nil {
			if b.rows, err = tab.morselRows(&ms[0]); err != nil {
				t.Fatal(err)
			}
		}
		for i := lo; i < hi; i++ {
			b.sel = append(b.sel, int32(i))
		}
		gt, gids := newGroupTable(st, p), make([]int32, len(b.sel))
		gt.addBatch(b, gids) // opens the groups
		if allocs := testing.AllocsPerRun(10, func() { gt.addBatch(b, gids) }); allocs != 0 {
			t.Errorf("%q: addBatch of a batch whose groups exist allocates %v times, want 0", sql, allocs)
		}
	}
}
