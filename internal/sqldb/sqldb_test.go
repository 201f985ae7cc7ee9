package sqldb

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"perfbase/internal/value"
)

// mustExec executes a statement and fails the test on error.
func mustExec(t *testing.T, q Querier, sql string) *Result {
	t.Helper()
	res, err := q.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// seedDB creates a small benchmark-results table used by many tests.
func seedDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	mustExec(t, db, `CREATE TABLE results (
		run_id integer, fs string, technique string,
		chunk integer, op string, bw float)`)
	rows := []string{
		"(1, 'ufs', 'listbased', 32, 'read', 76.68)",
		"(1, 'ufs', 'listbased', 1024, 'read', 227.18)",
		"(1, 'ufs', 'listbased', 1048576, 'read', 465.41)",
		"(2, 'ufs', 'listless', 32, 'read', 75.90)",
		"(2, 'ufs', 'listless', 1024, 'read', 220.00)",
		"(2, 'ufs', 'listless', 1048576, 'read', 186.16)",
		"(3, 'nfs', 'listbased', 32, 'write', 35.50)",
		"(3, 'nfs', 'listbased', 1024, 'write', 59.09)",
		"(4, 'nfs', 'listless', 32, 'write', 37.00)",
		"(4, 'nfs', 'listless', 1024, 'write', 60.10)",
	}
	mustExec(t, db, "INSERT INTO results VALUES "+strings.Join(rows, ", "))
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT fs, bw FROM results WHERE run_id = 1")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if res.Columns[0].Name != "fs" || res.Columns[1].Name != "bw" {
		t.Errorf("columns = %v", res.Columns.Names())
	}
	if res.Rows[0][0].Str() != "ufs" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestInsertColumnSubsetAndNulls(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer, b string, c float)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	res := mustExec(t, db, "SELECT a, b, c FROM t")
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Errorf("unset columns should be NULL: %v", res.Rows[0])
	}
	// Type coercion on insert.
	mustExec(t, db, "INSERT INTO t (a, c) VALUES ('42', 7)")
	res = mustExec(t, db, "SELECT a, c FROM t WHERE a = 42")
	if res.Rows[0][0].Type() != value.Integer || res.Rows[0][1].Type() != value.Float {
		t.Errorf("coercion failed: %v", res.Rows[0])
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	if _, err := db.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("insert into missing table accepted")
	}
	if _, err := db.Exec("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Error("insert into missing column accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('notanint')"); err == nil {
		t.Error("uncoercible value accepted")
	}
}

func TestSelectExpressions(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT bw * 2 AS dbl, chunk / 1024 FROM results WHERE run_id = 1 AND chunk = 1024")
	if res.Rows[0][0].Float() != 2*227.18 {
		t.Errorf("bw*2 = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Int() != 1 {
		t.Errorf("chunk/1024 = %v", res.Rows[0][1])
	}
	if res.Columns[0].Name != "dbl" {
		t.Errorf("alias lost: %v", res.Columns.Names())
	}
}

func TestWhereOperators(t *testing.T) {
	db := seedDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"fs = 'ufs'", 6},
		{"fs <> 'ufs'", 4},
		{"bw > 100", 4},
		{"bw >= 76.68 AND bw <= 227.18", 4},
		{"chunk BETWEEN 100 AND 2000", 4},
		{"chunk NOT BETWEEN 100 AND 2000", 6},
		{"fs IN ('ufs', 'pfs')", 6},
		{"fs NOT IN ('ufs')", 4},
		{"technique LIKE 'list%'", 10},
		{"technique LIKE '%less'", 5},
		{"technique NOT LIKE '%less'", 5},
		{"fs = 'ufs' OR fs = 'nfs'", 10},
		{"NOT (fs = 'ufs')", 4},
		{"bw IS NULL", 0},
		{"bw IS NOT NULL", 10},
		{"op = 'read' AND technique = 'listless' AND chunk > 1000000", 1},
	}
	for _, c := range cases {
		res := mustExec(t, db, "SELECT * FROM results WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE v (x float, g string)")
	mustExec(t, db, `INSERT INTO v VALUES
		(2, 'a'), (4, 'a'), (4, 'a'), (4, 'a'), (5, 'a'), (5, 'a'), (7, 'a'), (9, 'a'),
		(1, 'b'), (3, 'b')`)

	res := mustExec(t, db, "SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x), STDDEV(x), VARIANCE(x) FROM v WHERE g = 'a'")
	row := res.Rows[0]
	if row[0].Int() != 8 {
		t.Errorf("count = %v", row[0])
	}
	if row[1].Float() != 40 {
		t.Errorf("sum = %v", row[1])
	}
	if row[2].Float() != 5 {
		t.Errorf("avg = %v", row[2])
	}
	if row[3].Float() != 2 || row[4].Float() != 9 {
		t.Errorf("min/max = %v %v", row[3], row[4])
	}
	// Sample stddev of (2,4,4,4,5,5,7,9) = sqrt(32/7).
	wantSD := math.Sqrt(32.0 / 7.0)
	if math.Abs(row[5].Float()-wantSD) > 1e-9 {
		t.Errorf("stddev = %v, want %v", row[5], wantSD)
	}
	if math.Abs(row[6].Float()-32.0/7.0) > 1e-9 {
		t.Errorf("variance = %v", row[6])
	}

	res = mustExec(t, db, "SELECT PROD(x) FROM v WHERE g = 'b'")
	if res.Rows[0][0].Float() != 3 {
		t.Errorf("prod = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT COUNT(DISTINCT x) FROM v")
	if res.Rows[0][0].Int() != 7 {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE e (x float)")
	res := mustExec(t, db, "SELECT COUNT(*), AVG(x), MIN(x) FROM e")
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate over empty table must yield one row, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Errorf("avg/min over empty should be NULL: %v", res.Rows[0])
	}
}

func TestAggregateNullHandling(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE n (x float)")
	mustExec(t, db, "INSERT INTO n VALUES (1), (NULL), (3)")
	res := mustExec(t, db, "SELECT COUNT(*), COUNT(x), AVG(x) FROM n")
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Int() != 2 {
		t.Errorf("counts = %v %v", res.Rows[0][0], res.Rows[0][1])
	}
	if res.Rows[0][2].Float() != 2 {
		t.Errorf("avg ignoring NULL = %v", res.Rows[0][2])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `SELECT fs, technique, AVG(bw) AS m
		FROM results GROUP BY fs, technique ORDER BY fs, technique`)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d groups, want 4", len(res.Rows))
	}
	// nfs/listbased first in order.
	if res.Rows[0][0].Str() != "nfs" || res.Rows[0][1].Str() != "listbased" {
		t.Errorf("first group = %v", res.Rows[0])
	}
	want := (35.50 + 59.09) / 2
	if math.Abs(res.Rows[0][2].Float()-want) > 1e-9 {
		t.Errorf("nfs/listbased avg = %v, want %v", res.Rows[0][2], want)
	}

	res = mustExec(t, db, `SELECT fs, COUNT(*) AS n FROM results
		GROUP BY fs HAVING COUNT(*) > 4`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "ufs" {
		t.Errorf("HAVING result = %v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `SELECT chunk > 1000 AS big, COUNT(*) FROM results
		GROUP BY chunk > 1000 ORDER BY big`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][1].Int()+res.Rows[1][1].Int() != 10 {
		t.Errorf("group sizes = %v", res.Rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT bw FROM results ORDER BY bw DESC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("limit: %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Float() != 465.41 {
		t.Errorf("max first = %v", res.Rows[0][0])
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].Float() > res.Rows[i-1][0].Float() {
			t.Error("not descending")
		}
	}
	res2 := mustExec(t, db, "SELECT bw FROM results ORDER BY bw DESC LIMIT 3 OFFSET 1")
	if res2.Rows[0][0].Float() != res.Rows[1][0].Float() {
		t.Errorf("offset shifted wrong: %v vs %v", res2.Rows[0][0], res.Rows[1][0])
	}
	// Order by alias and by source column not in projection.
	res3 := mustExec(t, db, "SELECT bw AS bandwidth FROM results ORDER BY bandwidth LIMIT 1")
	if res3.Rows[0][0].Float() != 35.50 {
		t.Errorf("order by alias = %v", res3.Rows[0][0])
	}
	res4 := mustExec(t, db, "SELECT fs FROM results ORDER BY bw LIMIT 1")
	if res4.Rows[0][0].Str() != "nfs" {
		t.Errorf("order by non-projected column = %v", res4.Rows[0][0])
	}
	// OFFSET beyond the result set.
	res5 := mustExec(t, db, "SELECT bw FROM results LIMIT 5 OFFSET 100")
	if len(res5.Rows) != 0 {
		t.Errorf("offset beyond end: %d rows", len(res5.Rows))
	}
}

func TestDistinct(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT DISTINCT fs FROM results ORDER BY fs")
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "nfs" || res.Rows[1][0].Str() != "ufs" {
		t.Errorf("distinct fs = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT DISTINCT fs, technique FROM results")
	if len(res.Rows) != 4 {
		t.Errorf("distinct pairs = %d", len(res.Rows))
	}
}

func TestJoin(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE runs (id integer, fs string)")
	mustExec(t, db, "INSERT INTO runs VALUES (1, 'ufs'), (2, 'nfs'), (3, 'pfs')")
	mustExec(t, db, "CREATE TABLE data (run integer, bw float)")
	mustExec(t, db, "INSERT INTO data VALUES (1, 100), (1, 110), (2, 50)")

	res := mustExec(t, db, `SELECT runs.fs, data.bw FROM runs
		JOIN data ON runs.id = data.run ORDER BY data.bw`)
	if len(res.Rows) != 3 {
		t.Fatalf("inner join rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "nfs" || res.Rows[0][1].Float() != 50 {
		t.Errorf("join row = %v", res.Rows[0])
	}

	res = mustExec(t, db, `SELECT runs.fs, data.bw FROM runs
		LEFT JOIN data ON runs.id = data.run ORDER BY runs.id`)
	if len(res.Rows) != 4 {
		t.Fatalf("left join rows = %d", len(res.Rows))
	}
	last := res.Rows[3]
	if last[0].Str() != "pfs" || !last[1].IsNull() {
		t.Errorf("left join null padding = %v", last)
	}

	// Implicit cross join with WHERE.
	res = mustExec(t, db, `SELECT runs.fs, data.bw FROM runs, data
		WHERE runs.id = data.run AND data.bw > 60`)
	if len(res.Rows) != 2 {
		t.Errorf("cross join where = %d rows", len(res.Rows))
	}

	// Aliases.
	res = mustExec(t, db, `SELECT a.fs, b.bw FROM runs a JOIN data b ON a.id = b.run`)
	if len(res.Rows) != 3 {
		t.Errorf("aliased join rows = %d", len(res.Rows))
	}

	// Non-equi join falls back to nested loop.
	res = mustExec(t, db, `SELECT runs.id, data.run FROM runs JOIN data ON runs.id < data.run`)
	if len(res.Rows) != 1 {
		t.Errorf("non-equi join rows = %d", len(res.Rows))
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE m (technique string, chunk integer, bw float)")
	mustExec(t, db, `INSERT INTO m VALUES
		('old', 32, 100), ('old', 1024, 200),
		('new', 32, 110), ('new', 1024, 150)`)
	// The Fig. 8 shape: relative difference new vs old per chunk.
	res := mustExec(t, db, `SELECT o.chunk, (n.bw - o.bw) / o.bw * 100 AS rel
		FROM m o JOIN m n ON o.chunk = n.chunk
		WHERE o.technique = 'old' AND n.technique = 'new'
		ORDER BY o.chunk`)
	if len(res.Rows) != 2 {
		t.Fatalf("self join rows = %d", len(res.Rows))
	}
	if math.Abs(res.Rows[0][1].Float()-10) > 1e-9 {
		t.Errorf("rel diff chunk 32 = %v, want 10", res.Rows[0][1])
	}
	if math.Abs(res.Rows[1][1].Float()-(-25)) > 1e-9 {
		t.Errorf("rel diff chunk 1024 = %v, want -25", res.Rows[1][1])
	}
}

func TestUpdateDelete(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "UPDATE results SET bw = bw * 2 WHERE fs = 'nfs'")
	if res.Affected != 4 {
		t.Errorf("update affected = %d", res.Affected)
	}
	r := mustExec(t, db, "SELECT bw FROM results WHERE fs = 'nfs' AND chunk = 32 AND technique = 'listbased'")
	if r.Rows[0][0].Float() != 71 {
		t.Errorf("updated bw = %v", r.Rows[0][0])
	}
	res = mustExec(t, db, "DELETE FROM results WHERE fs = 'nfs'")
	if res.Affected != 4 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	r = mustExec(t, db, "SELECT COUNT(*) FROM results")
	if r.Rows[0][0].Int() != 6 {
		t.Errorf("remaining = %v", r.Rows[0][0])
	}
	// DELETE without WHERE clears the table.
	mustExec(t, db, "DELETE FROM results")
	r = mustExec(t, db, "SELECT COUNT(*) FROM results")
	if r.Rows[0][0].Int() != 0 {
		t.Errorf("after full delete = %v", r.Rows[0][0])
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, `CREATE TEMP TABLE ufs_reads AS
		SELECT chunk, bw FROM results WHERE fs = 'ufs' AND op = 'read' AND technique = 'listbased'`)
	res := mustExec(t, db, "SELECT COUNT(*) FROM ufs_reads")
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("CTAS row count = %v", res.Rows[0][0])
	}
	schema, ok := db.TableSchema("ufs_reads")
	if !ok || len(schema) != 2 || schema[0].Name != "chunk" || schema[1].Type != value.Float {
		t.Errorf("CTAS schema = %v", schema)
	}
	mustExec(t, db, "DROP TABLE ufs_reads")
	if _, err := db.Exec("SELECT * FROM ufs_reads"); err == nil {
		t.Error("temp table survived its DROP")
	}
	// Source table still present.
	mustExec(t, db, "SELECT COUNT(*) FROM results")
}

func TestInsertFromSelect(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, "CREATE TABLE archive (fs string, bw float)")
	res := mustExec(t, db, "INSERT INTO archive SELECT fs, bw FROM results WHERE bw > 200")
	if res.Affected != 3 {
		t.Errorf("insert-select affected = %d", res.Affected)
	}
	r := mustExec(t, db, "SELECT COUNT(*) FROM archive")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("archive rows = %v", r.Rows[0][0])
	}
}

func TestDropTable(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Exec("SELECT * FROM t"); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Error("double drop accepted")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS u (a integer)")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS u (a integer)")
}

func TestTransactions(t *testing.T) {
	db := NewMemory().NewSession() // a transaction belongs to a session
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")

	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (2), (3)")
	mustExec(t, db, "UPDATE t SET a = 10 WHERE a = 1")
	mustExec(t, db, "ROLLBACK")
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("rollback failed: %v", res.Rows)
	}

	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	mustExec(t, db, "COMMIT")
	res = mustExec(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("commit failed: %v", res.Rows)
	}

	// Rollback of CREATE TABLE removes it.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "CREATE TABLE fresh (x integer)")
	mustExec(t, db, "ROLLBACK")
	if _, err := db.Exec("SELECT * FROM fresh"); err == nil {
		t.Error("rolled-back CREATE TABLE persisted")
	}

	// Rollback of DROP TABLE restores it.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "ROLLBACK")
	mustExec(t, db, "SELECT * FROM t")

	if _, err := db.Exec("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN accepted")
	}
	if _, err := db.Exec("ROLLBACK"); err == nil {
		t.Error("ROLLBACK without BEGIN accepted")
	}
	mustExec(t, db, "BEGIN")
	if _, err := db.Exec("BEGIN"); err == nil {
		t.Error("nested BEGIN accepted")
	}
	mustExec(t, db, "COMMIT")
}

func TestScalarFunctions(t *testing.T) {
	db := NewMemory()
	cases := []struct {
		expr string
		want float64
	}{
		{"ABS(-4)", 4},
		{"SQRT(9)", 3},
		{"LOG2(8)", 3},
		{"POW(3, 2)", 9},
		{"FLOOR(1.9)", 1},
		{"CEIL(1.1)", 2},
		{"ROUND(1.6)", 2},
		{"LENGTH('abcd')", 4},
		{"COALESCE(NULL, 5)", 5},
		{"GREATEST(1, 9, 4)", 9},
		{"LEAST(3, -2, 8)", -2},
	}
	for _, c := range cases {
		res := mustExec(t, db, "SELECT "+c.expr)
		if got := res.Rows[0][0].Float(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	res := mustExec(t, db, "SELECT UPPER('ufs'), LOWER('UFS'), 'a' || 'b' || 'c'")
	if res.Rows[0][0].Str() != "UFS" || res.Rows[0][1].Str() != "ufs" || res.Rows[0][2].Str() != "abc" {
		t.Errorf("string funcs = %v", res.Rows[0])
	}
	res = mustExec(t, db, "SELECT CAST('42' AS integer), CAST(3.9 AS integer), CAST(7 AS string)")
	if res.Rows[0][0].Int() != 42 || res.Rows[0][1].Int() != 3 || res.Rows[0][2].Str() != "7" {
		t.Errorf("casts = %v", res.Rows[0])
	}
}

func TestParseErrors(t *testing.T) {
	db := NewMemory()
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"CREATE TABLE",
		"CREATE TABLE t (a quaternion)",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT 1 2",
		"SELECT 'unterminated",
		"SELECT a FROM t ORDER BY",
		"DROP t",
		"UPDATE t a = 1",
		"SELECT SUM(*) FROM t",
		"SELECT * FROM t LIMIT x",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted bad SQL: %q", sql)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := seedDB(t)
	bad := []string{
		"SELECT nope FROM results",
		"SELECT * FROM nope",
		"SELECT bw FROM results WHERE nope = 1",
		"SELECT AVG(fs) FROM results",          // non-numeric aggregate
		"SELECT bw + fs FROM results",          // type error
		"UPDATE results SET nope = 1",          // unknown column
		"SELECT results.bw FROM results r",     // alias hides table name
		"SELECT SQRT('x') FROM results",        // bad function arg
		"SELECT NOSUCHFN(bw) FROM results",     // unknown function
		"CREATE TABLE results (a integer)",     // duplicate table
		"CREATE TABLE d (a integer, A string)", // duplicate column
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted bad statement: %q", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE a (id integer, x float)")
	mustExec(t, db, "CREATE TABLE b (id integer, y float)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 10)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 20)")
	if _, err := db.Exec("SELECT id FROM a JOIN b ON a.id = b.id"); err == nil {
		t.Error("ambiguous bare column accepted")
	}
	mustExec(t, db, "SELECT a.id FROM a JOIN b ON a.id = b.id")
}

// execArgs binds args to sql's placeholders and executes the result.
func execArgs(q Querier, sql string, args ...value.Value) (*Result, error) {
	bound, err := BindArgs(sql, args...)
	if err != nil {
		return nil, err
	}
	return q.Exec(bound)
}

func TestBindArgs(t *testing.T) {
	db := seedDB(t)
	res, err := execArgs(db, "SELECT COUNT(*) FROM results WHERE fs = ? AND bw > ?",
		value.NewString("ufs"), value.NewFloat(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("bound query = %v", res.Rows[0][0])
	}
	// Strings with quotes are escaped.
	if _, err := execArgs(db, "SELECT COUNT(*) FROM results WHERE fs = ?",
		value.NewString("o'; DROP TABLE results --")); err != nil {
		t.Fatalf("injection-shaped arg: %v", err)
	}
	mustExec(t, db, "SELECT COUNT(*) FROM results") // still alive
	if _, err := execArgs(db, "SELECT ?"); err == nil {
		t.Error("missing arg accepted")
	}
	if _, err := execArgs(db, "SELECT 1", value.NewInt(1)); err == nil {
		t.Error("surplus arg accepted")
	}
	// Placeholders inside string literals are not substituted.
	bound, err := BindArgs("SELECT '?' , ?", value.NewInt(5))
	if err != nil || !strings.Contains(bound, "'?'") || !strings.Contains(bound, "5") {
		t.Errorf("BindArgs literal handling: %q %v", bound, err)
	}
}

func TestIndexCreationAndUse(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, "CREATE INDEX ON results (fs)")
	res := mustExec(t, db, "SELECT COUNT(*) FROM results WHERE fs = 'ufs'")
	if res.Rows[0][0].Int() != 6 {
		t.Errorf("indexed query = %v", res.Rows[0][0])
	}
	// Index maintained across insert and delete.
	mustExec(t, db, "INSERT INTO results VALUES (9, 'ufs', 'x', 1, 'read', 1.0)")
	res = mustExec(t, db, "SELECT COUNT(*) FROM results WHERE fs = 'ufs'")
	if res.Rows[0][0].Int() != 7 {
		t.Errorf("after insert = %v", res.Rows[0][0])
	}
	mustExec(t, db, "DELETE FROM results WHERE run_id = 9")
	res = mustExec(t, db, "SELECT COUNT(*) FROM results WHERE fs = 'ufs'")
	if res.Rows[0][0].Int() != 6 {
		t.Errorf("after delete = %v", res.Rows[0][0])
	}
	if _, err := db.Exec("CREATE INDEX ON nope (x)"); err == nil {
		t.Error("index on missing table accepted")
	}
	if _, err := db.Exec("CREATE INDEX ON results (nope)"); err == nil {
		t.Error("index on missing column accepted")
	}
}

func TestTablesAndSchema(t *testing.T) {
	db := seedDB(t)
	names := db.Tables()
	if len(names) != 1 || names[0] != "results" {
		t.Errorf("Tables() = %v", names)
	}
	n, ok := db.RowCount("results")
	if !ok || n != 10 {
		t.Errorf("RowCount = %d %v", n, ok)
	}
	if _, ok := db.RowCount("nope"); ok {
		t.Error("RowCount of missing table")
	}
	if _, ok := db.TableSchema("nope"); ok {
		t.Error("TableSchema of missing table")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewMemory()
	res := mustExec(t, db, "SELECT 1 + 2 AS three, 'x'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 || res.Rows[0][1].Str() != "x" {
		t.Errorf("table-less select = %v", res.Rows)
	}
}

func TestStarVariants(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE a (x integer)")
	mustExec(t, db, "CREATE TABLE b (y integer)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "INSERT INTO b VALUES (2)")
	res := mustExec(t, db, "SELECT a.*, b.y FROM a JOIN b ON 1 = 1")
	if len(res.Columns) != 2 || res.Columns[0].Name != "x" {
		t.Errorf("t.* columns = %v", res.Columns.Names())
	}
	res = mustExec(t, db, "SELECT * FROM a JOIN b ON 1 = 1")
	if len(res.Columns) != 2 {
		t.Errorf("* columns = %v", res.Columns.Names())
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := seedDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := db.Exec("SELECT AVG(bw) FROM results GROUP BY fs"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Concurrent writer on a different table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := db.Exec("CREATE TABLE w (i integer)"); err != nil {
			errs <- err
			return
		}
		for j := 0; j < 50; j++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO w VALUES (%d)", j)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM w")
	if res.Rows[0][0].Int() != 50 {
		t.Errorf("writer rows = %v", res.Rows[0][0])
	}
}

func TestComments(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer) -- trailing comment")
	mustExec(t, db, "-- leading comment\nINSERT INTO t VALUES (1)")
	res := mustExec(t, db, "SELECT a FROM t")
	if len(res.Rows) != 1 {
		t.Errorf("comments broke execution")
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, `CREATE TABLE "select" ("from" integer)`)
	mustExec(t, db, `INSERT INTO "select" ("from") VALUES (1)`)
	res := mustExec(t, db, `SELECT "from" FROM "select"`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("quoted identifiers = %v", res.Rows)
	}
}

func TestValidIdent(t *testing.T) {
	good := []string{"a", "run_id", "T1", "_x"}
	for _, s := range good {
		if !ValidIdent(s) {
			t.Errorf("ValidIdent(%q) = false", s)
		}
	}
	bad := []string{"", "1a", "a-b", "a b", "a;b", "a'b"}
	for _, s := range bad {
		if ValidIdent(s) {
			t.Errorf("ValidIdent(%q) = true", s)
		}
	}
}

func TestMedianGeomeanAggregates(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE m (x float, g string)")
	mustExec(t, db, `INSERT INTO m VALUES
		(1, 'a'), (2, 'a'), (100, 'a'),
		(2, 'b'), (8, 'b'), (4, 'b'), (16, 'b')`)
	res := mustExec(t, db, "SELECT MEDIAN(x) FROM m WHERE g = 'a'")
	if res.Rows[0][0].Float() != 2 {
		t.Errorf("odd median = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT MEDIAN(x) FROM m WHERE g = 'b'")
	if res.Rows[0][0].Float() != 6 { // (4+8)/2
		t.Errorf("even median = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT GEOMEAN(x) FROM m WHERE g = 'b'")
	want := math.Pow(2*8*4*16, 0.25)
	if math.Abs(res.Rows[0][0].Float()-want) > 1e-9 {
		t.Errorf("geomean = %v, want %v", res.Rows[0][0], want)
	}
	// Median per group.
	res = mustExec(t, db, "SELECT g, MEDIAN(x) FROM m GROUP BY g ORDER BY g")
	if len(res.Rows) != 2 || res.Rows[0][1].Float() != 2 || res.Rows[1][1].Float() != 6 {
		t.Errorf("grouped medians = %v", res.Rows)
	}
	// Geomean with non-positive input is NULL.
	mustExec(t, db, "INSERT INTO m VALUES (-1, 'c'), (4, 'c')")
	res = mustExec(t, db, "SELECT GEOMEAN(x) FROM m WHERE g = 'c'")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("geomean of negative input = %v", res.Rows[0][0])
	}
	// Empty input yields NULL.
	res = mustExec(t, db, "SELECT MEDIAN(x), GEOMEAN(x) FROM m WHERE g = 'z'")
	if !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
		t.Errorf("empty median/geomean = %v", res.Rows[0])
	}
}

func TestInsertRowsFastPath(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer, b string)")
	n, err := db.InsertRows("t", []string{"a", "b"}, []Row{
		{value.NewInt(1), value.NewString("x")},
		{value.NewString("2"), value.NewString("y")}, // coerced
	})
	if err != nil || n != 2 {
		t.Fatalf("InsertRows = %d, %v", n, err)
	}
	res := mustExec(t, db, "SELECT a FROM t WHERE b = 'y'")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("coerced value = %v", res.Rows[0][0])
	}
	if _, err := db.InsertRows("nope", []string{"a"}, []Row{{value.NewInt(1)}}); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := db.InsertRows("t", []string{"nope"}, []Row{{value.NewInt(1)}}); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := db.InsertRows("t", []string{"a"}, []Row{{value.NewInt(1), value.NewInt(2)}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.InsertRows("t", []string{"a"}, []Row{{value.NewString("zap")}}); err == nil {
		t.Error("uncoercible value accepted")
	}
	if n, err := db.InsertRows("t", []string{"a"}, nil); err != nil || n != 0 {
		t.Errorf("empty InsertRows = %d, %v", n, err)
	}
	// Index maintenance.
	mustExec(t, db, "CREATE INDEX ON t (b)")
	db.InsertRows("t", []string{"a", "b"}, []Row{{value.NewInt(3), value.NewString("y")}})
	res = mustExec(t, db, "SELECT COUNT(*) FROM t WHERE b = 'y'")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("indexed count after InsertRows = %v", res.Rows[0][0])
	}
}

func TestInsertRowsDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	if _, err := db.InsertRows("t", []string{"a"}, []Row{{value.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	// Temp tables skip the WAL.
	mustExec(t, db, "CREATE TEMP TABLE tmp (a integer)")
	if _, err := db.InsertRows("tmp", []string{"a"}, []Row{{value.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	// Crash-style reopen: WAL replay must restore the durable row.
	db.crashWAL()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Errorf("InsertRows not replayed: %v", res.Rows)
	}
	if _, err := db2.Exec("SELECT * FROM tmp"); err == nil {
		t.Error("temp InsertRows was persisted")
	}
}

func TestOrderByWithNulls(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (3), (NULL), (1), (NULL), (2)")
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a")
	// NULLs sort first (value.Compare semantics).
	if !res.Rows[0][0].IsNull() || !res.Rows[1][0].IsNull() {
		t.Errorf("NULLs should sort first: %v", res.Rows)
	}
	if res.Rows[2][0].Int() != 1 || res.Rows[4][0].Int() != 3 {
		t.Errorf("values after NULLs: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT a FROM t ORDER BY a DESC")
	if res.Rows[0][0].Int() != 3 || !res.Rows[4][0].IsNull() {
		t.Errorf("DESC ordering: %v", res.Rows)
	}
}

func TestLimitZero(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT * FROM results LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 rows = %d", len(res.Rows))
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := seedDB(t)
	// Aggregate query with HAVING but no GROUP BY: single group.
	res := mustExec(t, db, "SELECT COUNT(*) FROM results HAVING COUNT(*) > 5")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 {
		t.Errorf("having-pass = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT COUNT(*) FROM results HAVING COUNT(*) > 50")
	if len(res.Rows) != 0 {
		t.Errorf("having-fail = %v", res.Rows)
	}
}

func TestVersionColumnOrdering(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE v (r version)")
	mustExec(t, db, "INSERT INTO v VALUES ('2.6.10'), ('2.6.6'), ('2.6.9')")
	res := mustExec(t, db, "SELECT r FROM v ORDER BY r DESC LIMIT 1")
	if res.Rows[0][0].Str() != "2.6.10" {
		t.Errorf("version max = %v (component-wise ordering expected)", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT COUNT(*) FROM v WHERE r > '2.6.8'")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("version filter = %v", res.Rows[0][0])
	}
}

func TestTimestampComparisons(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE e (at timestamp, v integer)")
	mustExec(t, db, `INSERT INTO e VALUES
		('2004-11-23 18:30:30', 1), ('2005-01-01 00:00:00', 2), ('2005-06-15 12:00:00', 3)`)
	res := mustExec(t, db, "SELECT v FROM e WHERE at >= '2005-01-01' ORDER BY at")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 {
		t.Errorf("timestamp filter = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT MIN(at), MAX(at) FROM e")
	if res.Rows[0][0].Time().Year() != 2004 || res.Rows[0][1].Time().Month() != 6 {
		t.Errorf("timestamp min/max = %v", res.Rows[0])
	}
}

func TestGroupByAliasedExpression(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `SELECT chunk / 1024 AS kib, COUNT(*) AS n
		FROM results GROUP BY chunk / 1024 ORDER BY kib`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Columns[0].Name != "kib" {
		t.Errorf("alias = %v", res.Columns.Names())
	}
}

func TestNestedFunctions(t *testing.T) {
	db := NewMemory()
	res := mustExec(t, db, "SELECT ROUND(SQRT(ABS(-16)) * 10)")
	if res.Rows[0][0].Float() != 40 {
		t.Errorf("nested funcs = %v", res.Rows[0][0])
	}
}

func TestCastErrors(t *testing.T) {
	db := NewMemory()
	if _, err := db.Exec("SELECT CAST('abc' AS integer)"); err == nil {
		t.Error("invalid cast accepted")
	}
	if _, err := db.Exec("SELECT CAST(1 AS blob)"); err == nil {
		t.Error("unknown cast type accepted")
	}
}

// Property: rows inserted through the fast path come back unchanged
// through SELECT * (for the numeric/string subset that round-trips by
// construction).
func TestQuickInsertSelectRoundTrip(t *testing.T) {
	f := func(ints []int32, label uint8) bool {
		db := NewMemory()
		if _, err := db.Exec("CREATE TABLE t (a integer, s string)"); err != nil {
			return false
		}
		rows := make([]Row, len(ints))
		var sum int64
		for i, x := range ints {
			rows[i] = Row{value.NewInt(int64(x)), value.NewString(fmt.Sprintf("l%d", label))}
			sum += int64(x)
		}
		if _, err := db.InsertRows("t", []string{"a", "s"}, rows); err != nil {
			return false
		}
		res, err := db.Exec("SELECT COUNT(*), SUM(a) FROM t")
		if err != nil {
			return false
		}
		if res.Rows[0][0].Int() != int64(len(ints)) {
			return false
		}
		if len(ints) == 0 {
			return res.Rows[0][1].IsNull()
		}
		return res.Rows[0][1].Int() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransactionWithTempTables(t *testing.T) {
	db := NewMemory().NewSession() // a transaction belongs to a session
	mustExec(t, db, "CREATE TABLE base (a integer)")
	mustExec(t, db, "INSERT INTO base VALUES (1), (2)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "CREATE TEMP TABLE scratch AS SELECT a FROM base")
	mustExec(t, db, "INSERT INTO scratch VALUES (3)")
	mustExec(t, db, "ROLLBACK")
	// The rolled-back temp table is gone like any other table.
	if _, err := db.Exec("SELECT * FROM scratch"); err == nil {
		t.Error("rolled-back temp table survived")
	}
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "CREATE TEMP TABLE scratch2 AS SELECT a FROM base")
	mustExec(t, db, "COMMIT")
	res := mustExec(t, db, "SELECT COUNT(*) FROM scratch2")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("committed temp rows = %v", res.Rows[0][0])
	}
	mustExec(t, db, "DROP TABLE scratch2")
	mustExec(t, db, "SELECT COUNT(*) FROM base")
}

func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the checkpoint: whatever this is, it is not one, and the
	// database must not open as if it held nothing.
	if err := osWriteBytes(dir+"/"+blockFile, []byte("not a checkpoint, and long enough to hold a header and a trailer")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("corrupt checkpoint: Open = %v, want ErrCorruptCheckpoint", err)
	}
}
