package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"perfbase/internal/value"
)

// unionDB holds three run-like tables: a and b are integer-valued, c is
// float-valued and carries a string column.
func unionDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	for _, q := range []string{
		"CREATE TABLE a (n integer, v integer)",
		"CREATE TABLE b (n integer, v integer)",
		"CREATE TABLE c (n integer, v float, s string)",
		"INSERT INTO a VALUES (1, 10), (2, 20)",
		"INSERT INTO b VALUES (3, 30)",
		"INSERT INTO c VALUES (4, 4.5, 'x'), (5, NULL, 'y')",
	} {
		mustExec(t, db, q)
	}
	return db
}

func TestParseCompoundSelect(t *testing.T) {
	branches := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fmt.Sprintf("SELECT %d, v FROM run_%d WHERE v > 0", i, i)
		}
		return strings.Join(parts, " UNION ALL ")
	}
	for _, n := range []int{1, 2, 50000} {
		st, err := Parse(branches(n))
		if err != nil {
			t.Fatalf("%d branches: %v", n, err)
		}
		sel := st.(*SelectStmt)
		if n == 1 {
			if len(sel.Union) != 0 || len(sel.From) != 1 {
				t.Fatalf("1 branch parsed as %+v", sel)
			}
			continue
		}
		if len(sel.Union) != n || len(sel.From) != 0 || len(sel.Items) != 0 {
			t.Fatalf("%d branches: Union=%d From=%d Items=%d", n, len(sel.Union), len(sel.From), len(sel.Items))
		}
		last := sel.Union[n-1]
		if want := fmt.Sprintf("run_%d", n-1); last.From[0].Table != want || len(last.Union) != 0 {
			t.Fatalf("last branch reads %q, want %q", last.From[0].Table, want)
		}
		if got := len(referencedTables(sel)); got != n {
			t.Fatalf("referencedTables = %d tables, want %d", got, n)
		}
	}

	// The offset of the select inside its host statement comes from the
	// parser, whatever the names before it contain.
	raw := "INSERT INTO preselected (selecta) SELECT n FROM a UNION ALL SELECT n FROM b"
	st, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if from := st.(*InsertStmt).From; raw[from.Pos:] != "SELECT n FROM a UNION ALL SELECT n FROM b" {
		t.Fatalf("Pos = %d (%q)", from.Pos, raw[from.Pos:])
	}

	for _, bad := range []string{
		"SELECT n FROM a UNION SELECT n FROM b",
		"SELECT n FROM a UNION DISTINCT SELECT n FROM b",
		"SELECT n FROM a ORDER BY n UNION ALL SELECT n FROM b",
		"SELECT n FROM a UNION ALL SELECT n FROM b ORDER BY n",
		"SELECT n FROM a LIMIT 1 UNION ALL SELECT n FROM b",
		"SELECT n FROM a UNION ALL SELECT n FROM b LIMIT 1",
		"SELECT n FROM a UNION ALL SELECT n FROM b OFFSET 1",
		"CREATE TABLE d AS SELECT n FROM a UNION SELECT n FROM b",
		"INSERT INTO a SELECT n, v FROM a UNION SELECT n, v FROM b",
		"EXPLAIN SELECT n FROM a UNION SELECT n FROM b",
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrCompound) {
			t.Errorf("Parse(%q) = %v, want ErrCompound", bad, err)
		}
	}
	if _, err := Parse("SELECT n FROM a UNION ALL"); err == nil || errors.Is(err, ErrCompound) {
		t.Errorf("dangling UNION ALL: %v, want a plain parse error", err)
	}
}

func TestCompoundSelectResults(t *testing.T) {
	db := unionDB(t)
	for _, tc := range []struct {
		sql  string
		cols string // "name type, ..."
		rows string // resultString-like rendering
	}{
		{"SELECT n, v FROM a UNION ALL SELECT n, v FROM b",
			"n integer, v integer", "1 10|2 20|3 30"},
		// Branch order is result order, whatever the tables' ages.
		{"SELECT n FROM b UNION ALL SELECT n FROM a UNION ALL SELECT n FROM b",
			"n integer", "3|1|2|3"},
		// Names from the first branch; integer and float reconcile to
		// float, in whichever branch the float comes.
		{"SELECT n AS id, v AS val FROM a UNION ALL SELECT n, v FROM c",
			"id integer, val float", "1 10|2 20|4 4.5|5 NULL"},
		{"SELECT v FROM c WHERE n = 4 UNION ALL SELECT v FROM b",
			"v float", "4.5|30"},
		// A bare NULL has no type of its own, first or later.
		{"SELECT NULL, n FROM a UNION ALL SELECT v, n FROM b UNION ALL SELECT NULL, 9",
			"col1 integer, n integer", "NULL 1|NULL 2|30 3|NULL 9"},
		{"SELECT s FROM c UNION ALL SELECT NULL",
			"s string", "x|y|NULL"},
		// Branches are whole selects: filters, aggregates, DISTINCT,
		// joins and table-less constants.
		{"SELECT COUNT(*), SUM(v) FROM a UNION ALL SELECT n, v FROM b WHERE v > 100 UNION ALL SELECT 7, 8",
			"count integer, sum integer", "2 30|7 8"},
		{"SELECT DISTINCT v - v FROM a UNION ALL SELECT a.n + b.n FROM a JOIN b ON a.n < b.n",
			"col1 integer", "0|4|5"},
		{"SELECT * FROM a UNION ALL SELECT * FROM b",
			"n integer, v integer", "1 10|2 20|3 30"},
	} {
		res, err := db.Exec(tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.sql, err)
			continue
		}
		var cols, rows []string
		for _, c := range res.Columns {
			cols = append(cols, c.Name+" "+c.Type.String())
		}
		for _, r := range res.Rows {
			var vals []string
			for i, v := range r {
				if !v.IsNull() && v.Type() != res.Columns[i].Type {
					t.Errorf("%s: value %v is %s in a %s column", tc.sql, v, v.Type(), res.Columns[i].Type)
				}
				vals = append(vals, v.String())
			}
			rows = append(rows, strings.Join(vals, " "))
		}
		if got := strings.Join(cols, ", "); got != tc.cols {
			t.Errorf("%s: columns %q, want %q", tc.sql, got, tc.cols)
		}
		if got := strings.Join(rows, "|"); got != tc.rows {
			t.Errorf("%s: rows %q, want %q", tc.sql, got, tc.rows)
		}
	}

	for _, bad := range []string{
		"SELECT n FROM a UNION ALL SELECT n, v FROM b",
		"SELECT n, v FROM a UNION ALL SELECT * FROM c",
		"SELECT n FROM a UNION ALL SELECT s FROM c",
		"SELECT s FROM c UNION ALL SELECT NULL UNION ALL SELECT v FROM c",
		"SELECT n = 1 FROM a UNION ALL SELECT n FROM b",
	} {
		if _, err := db.Exec(bad); !errors.Is(err, ErrCompound) {
			t.Errorf("Exec(%q) = %v, want ErrCompound", bad, err)
		}
		if _, err := db.Exec("INSERT INTO a " + bad); !errors.Is(err, ErrCompound) {
			t.Errorf("INSERT ... %q = %v, want ErrCompound", bad, err)
		}
	}
	if _, err := db.Exec("SELECT n FROM a UNION ALL SELECT n FROM nowhere"); err == nil {
		t.Error("a missing table in a later branch must fail the statement")
	}
}

// TestCompoundInsert: the branches of INSERT ... SELECT all read the
// state the statement started from and land in one chunk under one
// publish; CREATE TABLE AS takes the reconciled schema.
func TestCompoundInsert(t *testing.T) {
	db := unionDB(t)
	before := db.state.Load().id
	res := mustExec(t, db, "INSERT INTO a (v, n) SELECT v, n FROM a UNION ALL SELECT v, n FROM b UNION ALL SELECT v * 2, n FROM a")
	if res.Affected != 5 {
		t.Fatalf("affected %d, want 5", res.Affected)
	}
	sn := db.state.Load()
	if sn.id != before+1 {
		t.Errorf("snapshot id moved by %d, want one publish", sn.id-before)
	}
	tab, _ := sn.table("a")
	if tab.nrows != 7 {
		t.Fatalf("a has %d rows, want 7", tab.nrows)
	}
	got := resultText(mustExec(t, db, "SELECT n, v FROM a"))
	if want := "1 10|2 20|1 10|2 20|3 30|1 20|2 40"; got != want {
		t.Errorf("a = %q, want %q", got, want)
	}

	// One exactly-sized chunk per statement, however many branches: 3 ×
	// 600 rows would otherwise leave three chunks too big to merge.
	mustExec(t, db, "CREATE TABLE big (n integer)")
	vals := make([]string, 600)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d)", i)
	}
	mustExec(t, db, "INSERT INTO big VALUES "+strings.Join(vals, ", "))
	mustExec(t, db, "CREATE TEMP TABLE vec (n float)")
	mustExec(t, db, "INSERT INTO vec SELECT n FROM big UNION ALL SELECT n FROM big UNION ALL SELECT n FROM big")
	vec, _ := db.state.Load().table("vec")
	if ch := mustChunks(t, vec); len(ch) != 1 || len(ch[0]) != 1800 || cap(ch[0]) != 1800 {
		t.Errorf("vec chunks = %d (first %d rows, cap %d), want one exact chunk of 1800",
			len(ch), len(ch[0]), cap(ch[0]))
	}

	mustExec(t, db, "CREATE TABLE d AS SELECT n, v FROM a WHERE n = 3 UNION ALL SELECT n, v FROM c")
	sch, _ := db.TableSchema("d")
	if sch[1].Type.String() != "float" {
		t.Errorf("d.v is %s, want float", sch[1].Type)
	}
	if got, want := resultText(mustExec(t, db, "SELECT n, v FROM d")), "3 30|4 4.5|5 NULL"; got != want {
		t.Errorf("d = %q, want %q", got, want)
	}

	// A failing branch leaves nothing behind.
	if _, err := db.Exec("INSERT INTO b SELECT n, v FROM a UNION ALL SELECT n, s FROM c"); err == nil {
		t.Fatal("string into integer column must fail")
	}
	if n, _ := db.RowCount("b"); n != 1 {
		t.Errorf("b has %d rows after a failed statement, want 1", n)
	}
}

func resultText(res *Result) string {
	var rows []string
	for _, r := range res.Rows {
		var vals []string
		for _, v := range r {
			vals = append(vals, v.String())
		}
		rows = append(rows, strings.Join(vals, " "))
	}
	return strings.Join(rows, "|")
}

// TestCompoundSelectConsumers: whatever reasons about the tables of a
// SELECT sees every branch of a compound, not the first.
func TestCompoundSelectConsumers(t *testing.T) {
	db := unionDB(t)
	const q = "SELECT n, v FROM a UNION ALL SELECT n, v FROM b"

	// The cached plan is tied to every branch's table version.
	mustExec(t, db, q)
	mustExec(t, db, "ALTER TABLE b ADD COLUMN extra integer")
	mustExec(t, db, "DROP TABLE b")
	mustExec(t, db, "CREATE TABLE b (v float, n integer)")
	mustExec(t, db, "INSERT INTO b VALUES (0.5, 6)")
	res := mustExec(t, db, q)
	if got := resultText(res); got != "1 10|2 20|6 0.5" || res.Columns[1].Type.String() != "float" {
		t.Errorf("after b was rebuilt: %q (%v)", got, res.Columns)
	}

	// A transaction that read a table through a later branch conflicts
	// with a commit to it.
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, q)
	mustExec(t, s, "INSERT INTO c VALUES (9, 9, 'z')")
	mustExec(t, db, "INSERT INTO b VALUES (1.5, 7)")
	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrTxnConflict) {
		t.Errorf("COMMIT after a rival wrote branch 2's table: %v, want ErrTxnConflict", err)
	}

	// A pinned snapshot answers every branch from its own state.
	pin := db.Snapshot()
	mustExec(t, db, "INSERT INTO a VALUES (8, 80)")
	mustExec(t, db, "INSERT INTO b VALUES (2.5, 8)")
	if got := resultText(mustExec(t, pin, q)); got != "1 10|2 20|6 0.5|7 1.5" {
		t.Errorf("pinned snapshot sees %q", got)
	}

	// A view over a compound is refreshed by a commit to any branch.
	views := NewViewRegistry(db)
	defer views.Close()
	if err := views.Register("u", "SELECT COUNT(*) FROM a UNION ALL SELECT COUNT(*) FROM b"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO b VALUES (3.5, 9)")
	if err := views.WaitPos(db.Pos(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	vres, _, err := views.Get("u")
	if err != nil || resultText(vres) != "3|4" {
		t.Errorf("view over a compound = %v, %v; want 3|4", vres, err)
	}

	// The shard planner has no single table to push down to.
	st, _ := Parse(q)
	if _, ok := PlanDistributedSelect(st.(*SelectStmt), Schema{{Name: "n"}, {Name: "v"}}); ok {
		t.Error("PlanDistributedSelect accepted a compound select")
	}
}

func TestExplainCompound(t *testing.T) {
	db := NewMemory()
	for i := 1; i <= 4; i++ {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE exp_run_%d (n integer, t float)", i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO exp_run_%d VALUES (1, 1.5), (2, 2.5)", i))
	}
	mustExec(t, db, "CREATE INDEX ON exp_run_4 (n)")
	p := plan(t, db, `EXPLAIN SELECT 'a', n, t FROM exp_run_1 WHERE n = 2
		UNION ALL SELECT 'b', n, t FROM exp_run_2 WHERE n = 2
		UNION ALL SELECT 'c', COUNT(*), SUM(t) FROM exp_run_3 WHERE n = 2
		UNION ALL SELECT 'd', n, t FROM exp_run_4 WHERE n = 2
		UNION ALL SELECT 'e', n, t FROM exp_run_3 WHERE n = 2`)
	// Branches 1 and 2 run on one plan; the aggregate has another shape,
	// exp_run_4 has an index, and branch 5 follows a plan it cannot share.
	want := `UNION ALL (5 branches, 4 plans)
2 branch(es) from branch 1 [vector path]:
  scan <table> (full)
  fused single pass: batch scan, filter, aggregate [vectorized]
  filter rows (WHERE) [compiled]
  project 3 column(s) [compiled]
1 branch(es) from branch 3 [vector path]:
  scan <table> (full)
  fused single pass: batch scan, filter, aggregate [vectorized]
  filter rows (WHERE) [compiled]
  aggregate 2 function(s) over 0 group key(s)
  project 3 column(s) [compiled]
1 branch(es) from branch 4 [row path, poured]:
  scan <table> via hash index on n
  fused single pass: scan, filter, project/aggregate
  filter rows (WHERE) [compiled]
  project 3 column(s) [compiled]
1 branch(es) from branch 5 [vector path]:
  scan <table> (full)
  fused single pass: batch scan, filter, aggregate [vectorized]
  filter rows (WHERE) [compiled]
  project 3 column(s) [compiled]
role=primary pos=0/0 recovery[frames=0 stmts=0 torn=false stale=false]`
	head, trailer, _ := strings.Cut(p, "\nsnapshot ")
	if head != want {
		t.Errorf("plan:\n%s\nwant:\n%s", head, want)
	}
	for i := 1; i <= 4; i++ {
		if !strings.Contains(trailer, fmt.Sprintf("exp_run_%d@v", i)) {
			t.Errorf("trailer %q lacks the version of exp_run_%d", trailer, i)
		}
	}

	// The shape a query's source element has: constants and columns, no
	// filter. One plan, on the row path, each row poured; a DISTINCT
	// branch is on the row path too, but its rows are finished first.
	p = plan(t, db, `EXPLAIN SELECT 'a', n, t FROM exp_run_1 UNION ALL SELECT 'b', n, t FROM exp_run_2
		UNION ALL SELECT 'c', n, t FROM exp_run_3 UNION ALL SELECT DISTINCT 'd', n, t FROM exp_run_3`)
	head, _, _ = strings.Cut(p, "\nrole=")
	want = `UNION ALL (4 branches, 2 plans)
3 branch(es) from branch 1 [row path, poured]:
  scan <table> (full)
  fused single pass: scan, filter, project/aggregate
  project 3 column(s) [compiled]
1 branch(es) from branch 4 [row path]:
  scan <table> (full)
  fused single pass: scan, filter, project/aggregate
  project 3 column(s) [compiled]
  deduplicate rows (DISTINCT)`
	if head != want {
		t.Errorf("plan:\n%s\nwant:\n%s", head, want)
	}
	p = plan(t, db, "EXPLAIN SELECT 'a', n FROM exp_run_1 UNION ALL SELECT 'b', n FROM exp_run_2")
	if head, _, _ = strings.Cut(p, "\n"); head != "UNION ALL (2 branches, 1 plan)" {
		t.Errorf("header %q", head)
	}
}

// TestPlanSelectOneEvalContext guards against per-item evaluation
// contexts coming back into planning: a context maps every source
// column by name, so were one built per projected item (or per
// expression node typed), an extra item would cost more on a wide
// table than on a narrow one. With one context per plan it costs the
// same on both.
func TestPlanSelectOneEvalContext(t *testing.T) {
	perItem := func(width int) float64 {
		db := NewMemory()
		cols := make([]string, width)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d float", i)
		}
		mustExec(t, db, "CREATE TABLE run (n integer, "+strings.Join(cols, ", ")+")")
		sn := db.state.Load()
		cost := func(sql string) float64 {
			st, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			sel := st.(*SelectStmt)
			return testing.AllocsPerRun(50, func() {
				if _, err := sn.planSelect(sel); err != nil {
					t.Fatal(err)
				}
			})
		}
		one := cost("SELECT 1 FROM run WHERE n = 1")
		five := cost("SELECT 1, 'fs', n, (c0 * 0.001) AS c0, c1 + n FROM run WHERE n = 1")
		return (five - one) / 4
	}
	narrow, wide := perItem(2), perItem(60)
	t.Logf("allocations per projected item: %.1f over 3 columns, %.1f over 61", narrow, wide)
	if wide > narrow+1 {
		t.Errorf("a projected item costs %.1f allocations over 61 columns and %.1f over 3 — planning builds an evaluation context per item again", wide, narrow)
	}
}

// tableDump renders a table's rows with the type of every value, so
// that two tables compare equal only if they hold the same values of
// the same types in the same order.
func tableDump(t *testing.T, db *DB, name string) string {
	t.Helper()
	return tableDumpOf(mustExec(t, db, "SELECT * FROM "+name))
}

// tableDumpOf is tableDump of a result already read.
func tableDumpOf(res *Result) string {
	var rows []string
	for _, r := range res.Rows {
		var vals []string
		for _, v := range r {
			vals = append(vals, v.Type().String()+":"+v.SQL())
		}
		rows = append(rows, strings.Join(vals, " "))
	}
	return strings.Join(rows, "|")
}

// TestCompoundInsertPourMatchesRows: whatever route a branch's rows take
// into the destination — poured by the row engine, finished by a
// grouped, DISTINCT or vectorized branch first, on a plan shared with
// its neighbours or on its own — the table after INSERT ... SELECT is
// the table after inserting the SELECT's result rows one at a time.
func TestCompoundInsertPourMatchesRows(t *testing.T) {
	setup := func(dst string) *DB {
		db := NewMemory()
		for _, q := range []string{
			"CREATE TABLE r1 (n integer, v float, s string)",
			"CREATE TABLE r2 (n integer, v float, s string)",
			"CREATE TABLE r3 (n integer, v float, s string)",
			"CREATE TABLE r4 (n integer, v float, s string)",
			"CREATE TABLE ri (n integer, v integer, s string)",
			"CREATE INDEX ON r4 (n)",
			"INSERT INTO r1 VALUES (1, 1.5, 'a'), (2, NULL, 'b'), (3, 3.5, NULL)",
			"INSERT INTO r2 VALUES (2, 20.5, 'c'), (2, 21.5, 'c'), (NULL, 22.5, 'd')",
			"INSERT INTO r3 VALUES (3, 30.5, 'e'), (3, 30.5, 'e'), (1, 31.5, 'f')",
			"INSERT INTO r4 VALUES (2, 40.5, 'g'), (4, 41.5, 'h')",
			"INSERT INTO ri VALUES (1, 10, 'i'), (2, 2000000, 'j')",
		} {
			mustExec(t, db, q)
		}
		if dst != "" {
			mustExec(t, db, "CREATE TABLE dst ("+dst+")")
		}
		return db
	}
	for _, tc := range []struct {
		name, dst, into, cols, sel string
	}{
		{"literals of differing types", "x float, n integer", "dst", "",
			"SELECT 1, n FROM r1 UNION ALL SELECT 2.5, n FROM r2 UNION ALL SELECT 3, n FROM r3"},
		{"NULL literal", "x string, n integer", "dst", "",
			"SELECT NULL, n FROM r1 UNION ALL SELECT 'lit', n FROM r2 UNION ALL SELECT NULL, n FROM r3"},
		{"integer and float into a string column", "x string", "dst", "",
			"SELECT v FROM ri UNION ALL SELECT v FROM r1 UNION ALL SELECT v FROM ri"},
		{"vectorized WHERE", "a string, n integer, v float", "dst", "",
			"SELECT 'a', n, v FROM r1 WHERE n > 1 UNION ALL SELECT 'b', n, v FROM r2 WHERE n > 1 UNION ALL SELECT 'c', n, v FROM r3 WHERE n > 1"},
		{"row-engine WHERE", "a string, n integer, v float", "dst", "",
			"SELECT 'a', n, v FROM r1 WHERE n + 0 > 1 UNION ALL SELECT 'b', n, v FROM r2 WHERE n + 0 > 1 UNION ALL SELECT 'c', n, v FROM r3 WHERE n + 0 > 1"},
		{"expression items", "fs string, n integer, v float", "dst", "",
			"SELECT 'ufs', n, (v * 0.001) AS v FROM r1 UNION ALL SELECT 'nfs', n, (v * 0.001) AS v FROM r2 UNION ALL SELECT 'nfs', n, (v * 0.001) AS v FROM ri"},
		{"star", "n integer, v float, s string", "dst", "",
			"SELECT * FROM r1 UNION ALL SELECT * FROM r2 UNION ALL SELECT * FROM ri UNION ALL SELECT * FROM r3"},
		{"grouped and DISTINCT between plain", "a string, n integer", "dst", "",
			"SELECT 'p', n FROM r1 UNION ALL SELECT 'g', COUNT(*) FROM r2 UNION ALL SELECT 'g', COUNT(*) FROM r3 UNION ALL SELECT DISTINCT 'd', n FROM r3 UNION ALL SELECT 'p', n FROM r2"},
		{"an indexed table among same-shaped ones", "a string, v float", "dst", "",
			"SELECT 'a', v FROM r2 WHERE n = 2 UNION ALL SELECT 'b', v FROM r4 WHERE n = 2 UNION ALL SELECT 'c', v FROM r1 WHERE n = 2"},
		{"an indexed table, unfiltered", "a string, v float", "dst", "",
			"SELECT 'a', v FROM r2 UNION ALL SELECT 'b', v FROM r4 UNION ALL SELECT 'c', v FROM r1"},
		{"aliased table", "a string, n integer", "dst", "",
			"SELECT 'a', n FROM r1 UNION ALL SELECT 'b', t.n FROM r2 t UNION ALL SELECT 'c', n FROM r3"},
		{"table-qualified column", "a string, n integer", "dst", "",
			"SELECT 'a', r1.n FROM r1 UNION ALL SELECT 'b', r2.n FROM r2 UNION ALL SELECT 'c', n FROM r3"},
		{"permuted column list", "a string, n integer, v float", "dst", "v, a, n",
			"SELECT v, 'x', n FROM r1 UNION ALL SELECT v, 'y', n FROM r2"},
		{"partial column list", "a string, n integer, v float", "dst", "n",
			"SELECT n FROM r1 UNION ALL SELECT n FROM r2"},
		{"self-insert", "", "r1", "",
			"SELECT n, v, s FROM r2 UNION ALL SELECT n, v, s FROM r1 UNION ALL SELECT n, v, s FROM r3"},
		{"plain select", "a string, n integer, v float", "dst", "n, a",
			"SELECT n, 'only' FROM r1"},
		{"no row", "a string, n integer", "dst", "",
			"SELECT 'a', n FROM r1 WHERE n + 0 > 9 UNION ALL SELECT 'b', n FROM r2 WHERE n + 0 > 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			into := tc.into
			if tc.cols != "" {
				into += " (" + tc.cols + ")"
			}
			poured := setup(tc.dst)
			res := mustExec(t, poured, "INSERT INTO "+into+" "+tc.sel)

			byRow := setup(tc.dst)
			sch, _ := byRow.TableSchema(tc.into)
			cols := sch.Names()
			if tc.cols != "" {
				cols = strings.Split(tc.cols, ", ")
			}
			rows := mustExec(t, byRow, tc.sel).Rows
			for _, row := range rows {
				if _, err := byRow.InsertRows(tc.into, cols, []Row{row}); err != nil {
					t.Fatal(err)
				}
			}
			if res.Affected != len(rows) {
				t.Errorf("affected %d, the select yields %d rows", res.Affected, len(rows))
			}
			if got, want := tableDump(t, poured, tc.into), tableDump(t, byRow, tc.into); got != want {
				t.Errorf("INSERT ... SELECT left\n%s\nrow by row:\n%s", got, want)
			}
			// One exactly-sized chunk whose rows lie back to back in one
			// array, as a bulk insert's do (sealing merges it with the rows
			// a self-insert found, so look where the target started empty).
			tab, _ := poured.state.Load().table(tc.into)
			if ch := mustChunks(t, tab); len(rows) > 0 && tc.dst != "" {
				last := ch[len(ch)-1]
				w := len(last[0])
				span := uintptr(unsafe.Pointer(&last[len(last)-1][0])) - uintptr(unsafe.Pointer(&last[0][0]))
				if len(last) != len(rows) || cap(last) != len(rows) || cap(last[0]) != w ||
					span != uintptr((len(last)-1)*w)*unsafe.Sizeof(last[0][0]) {
					t.Errorf("appended chunk: %d rows, cap %d, spanning %d bytes; want one exact chunk of %d contiguous rows",
						len(last), cap(last), span, len(rows))
				}
			}
		})
	}
}

// TestCompoundInsertIsAtomic: the conversion error of a late branch
// leaves the target as the statement found it, with the text a row-by-
// row insert gives.
func TestCompoundInsertIsAtomic(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE dst (n integer, x integer)")
	mustExec(t, db, "INSERT INTO dst VALUES (0, 0)")
	parts := make([]string, 200)
	for i := range parts {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE t%d (n integer, s string)", i))
		s := "7"
		if i == 149 {
			s = "seven"
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO t%d VALUES (%d, '1'), (%d, '%s')", i, i, i, s))
		parts[i] = fmt.Sprintf("SELECT n, s FROM t%d", i)
	}
	before := db.state.Load()
	tab, _ := before.table("dst")
	_, err := db.Exec("INSERT INTO dst " + strings.Join(parts, " UNION ALL "))
	const want = `sqldb: column "x": value: "seven" is not an integer`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if _, rowErr := db.InsertRows("dst", []string{"n", "x"}, []Row{mustExec(t, db, "SELECT n, s FROM t149").Rows[1]}); rowErr == nil || rowErr.Error() != err.Error() {
		t.Errorf("row by row the error is %v, poured %v", rowErr, err)
	}
	after := db.state.Load()
	if now, _ := after.table("dst"); now != tab || after.id != before.id {
		t.Errorf("a failed statement moved dst (%p → %p) or the snapshot (%d → %d)", tab, now, before.id, after.id)
	}
	if got := tableDump(t, db, "dst"); got != "integer:0 integer:0" {
		t.Errorf("dst = %q after a failed statement", got)
	}
}

// TestCompoundInsertChecksColumns: the target column list is checked
// against the statement, not against the rows that happen to arrive.
func TestCompoundInsertChecksColumns(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE a (x integer, y integer)")
	mustExec(t, db, "CREATE TABLE b (x integer, y integer)")
	for _, sql := range []string{
		"INSERT INTO b (x) SELECT x, y FROM a", // a is empty
		"INSERT INTO b (x) SELECT x, y FROM a UNION ALL SELECT x, y FROM a",
		"INSERT INTO b SELECT x FROM a WHERE x > 5",
		"INSERT INTO b (x) VALUES (1, 2)",
		"INSERT INTO b VALUES (1, 2), (3)",
	} {
		_, err := db.Exec(sql)
		if !errors.Is(err, ErrInsertArity) || !strings.Contains(err.Error(), "INSERT into b: ") {
			t.Errorf("%s: %v, want ErrInsertArity naming b", sql, err)
		}
	}
	if _, err := db.InsertRows("b", []string{"x"}, []Row{{value.NewInt(1), value.NewInt(2)}}); !errors.Is(err, ErrInsertArity) {
		t.Errorf("InsertRows: %v, want ErrInsertArity", err)
	}
	mustExec(t, db, "INSERT INTO a VALUES (1, 2)")
	for _, sql := range []string{
		"INSERT INTO b (x, x) SELECT x, y FROM a",
		"INSERT INTO b (x, X) VALUES (1, 2)",
	} {
		if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "named twice") {
			t.Errorf("%s: %v, want a duplicate-column error", sql, err)
		}
	}
	if _, err := db.InsertRows("b", []string{"y", "y"}, []Row{{value.NewInt(1), value.NewInt(2)}}); err == nil {
		t.Error("InsertRows accepted a column named twice")
	}
	if n, _ := db.RowCount("b"); n != 0 {
		t.Errorf("b has %d rows after refused statements only", n)
	}
}

// sourceLike builds n tables shaped like an experiment's run tables,
// rows rows each, and the select a query's source element would pour
// from them: constants that differ per run, columns, a unit conversion.
func sourceLike(t *testing.T, db *DB, n, rows int) string {
	t.Helper()
	vals := make([]string, rows)
	for r := range vals {
		vals[r] = fmt.Sprintf("('write', %d, %d.5)", r, r)
	}
	parts := make([]string, n)
	for i := range parts {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE run_%d (op string, chunk integer, bw float)", i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO run_%d VALUES %s", i, strings.Join(vals, ", ")))
		parts[i] = fmt.Sprintf("SELECT 'fs%d', %d, op, chunk, (bw * 0.001) AS bw FROM run_%d", i%3, i, i)
	}
	return strings.Join(parts, " UNION ALL ")
}

func distinctPlans(p *compiledSelect) int {
	seen := map[*compiledSelect]bool{}
	for _, bp := range p.union {
		seen[bp] = true
	}
	return len(seen)
}

// TestPlanSelectSharesBranchPlans: the branches of a source-like
// compound run on one plan; a table whose columns differ, that has an
// index or that is read under an alias compiles its own, and so does the
// branch after it.
func TestPlanSelectSharesBranchPlans(t *testing.T) {
	db := NewMemory()
	sel := sourceLike(t, db, 210, 2)
	plans := func(sql string) int {
		t.Helper()
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.state.Load().planSelect(st.(*SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		return distinctPlans(p)
	}
	if got := plans(sel); got != 1 {
		t.Errorf("210 same-shaped branches run on %d plans, want 1", got)
	}
	if got := plans(strings.ReplaceAll(sel, "op, chunk", "op, chunk + 0")); got != 1 {
		t.Errorf("210 same-shaped branches with an expression run on %d plans, want 1", got)
	}
	for what, edit := range map[string]func() string{
		"a literal of another type": func() string { return strings.Replace(sel, "'fs1', 100,", "'fs1', 100.5,", 1) },
		"a NULL literal":            func() string { return strings.Replace(sel, "'fs1', 100,", "NULL, 100,", 1) },
		"another literal inside an expression": func() string {
			return strings.Replace(sel, "(bw * 0.001) AS bw FROM run_100 ", "(bw * 0.002) AS bw FROM run_100 ", 1)
		},
		"a filter": func() string { return strings.Replace(sel, "FROM run_100 ", "FROM run_100 WHERE chunk > 0 ", 1) },
		"an alias": func() string { return strings.Replace(sel, "FROM run_100 ", "FROM run_100 r ", 1) },
		"a table-qualified column": func() string {
			return strings.Replace(sel, "op, chunk, (bw * 0.001) AS bw FROM run_100 ", "run_100.op, chunk, (bw * 0.001) AS bw FROM run_100 ", 1)
		},
		"a differing column type": func() string {
			mustExec(t, db, "DROP TABLE run_100")
			mustExec(t, db, "CREATE TABLE run_100 (op string, chunk float, bw float)")
			return sel
		},
		"a differing column name": func() string {
			mustExec(t, db, "DROP TABLE run_100")
			mustExec(t, db, "CREATE TABLE run_100 (op string, chunk integer, bw float, extra integer)")
			return sel
		},
		"an index": func() string {
			mustExec(t, db, "DROP TABLE run_100")
			mustExec(t, db, "CREATE TABLE run_100 (op string, chunk integer, bw float)")
			mustExec(t, db, "CREATE INDEX ON run_100 (chunk)")
			return sel
		},
	} {
		// Branches 1–100 on one plan, branch 101 on its own, 102–210 on
		// the one branch 102 compiles.
		if got := plans(edit()); got != 3 {
			t.Errorf("%s in branch 101: %d plans, want 3", what, got)
		}
	}
}

// TestCompoundInsertCostPerBranch guards what INSERT ... SELECT costs
// as a source grows: a branch on a shared plan is parsed, looked up and
// scanned, not compiled, and a row of columns, constants and compiled
// expressions goes into the chunk without an allocation of its own.
func TestCompoundInsertCostPerBranch(t *testing.T) {
	cost := func(branches, rows int) float64 {
		db := NewMemory()
		sql := "INSERT INTO vec (fs, run, op, chunk, bw) " + sourceLike(t, db, branches, rows)
		return testing.AllocsPerRun(10, func() {
			mustExec(t, db, "CREATE TEMP TABLE vec (fs string, run integer, op string, chunk integer, bw float)")
			if res := mustExec(t, db, sql); res.Affected != branches*rows {
				t.Fatalf("affected %d, want %d", res.Affected, branches*rows)
			}
			mustExec(t, db, "DROP TABLE vec")
		})
	}
	small, wide, tall := cost(40, 8), cost(80, 8), cost(40, 64)
	perBranch := (wide - small) / 40
	t.Logf("allocations: %.0f at 40 branches × 8 rows, %.0f at 80 × 8 (%.1f a branch), %.0f at 40 × 64", small, wide, perBranch, tall)
	if perBranch > 32 {
		t.Errorf("an added branch costs %.1f allocations, want at most 32", perBranch)
	}
	if tall > small+2 {
		t.Errorf("56 more rows a branch cost %.0f allocations more: rows are no longer poured in place", tall-small)
	}
}
