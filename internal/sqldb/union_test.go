package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
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
	if ch := vec.residentChunks(); len(ch) != 1 || len(ch[0]) != 1800 || cap(ch[0]) != 1800 {
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
	want := `UNION ALL (5 branches)
3 branch(es) like branch 1 [vector path]:
  scan <table> (full)
  fused single pass: batch scan, filter, aggregate [vectorized] [morsels=1]
  filter rows (WHERE) [compiled]
  project 3 column(s) [compiled]
1 branch(es) like branch 3 [vector path]:
  scan <table> (full)
  fused single pass: batch scan, filter, aggregate [vectorized] [morsels=1]
  filter rows (WHERE) [compiled]
  aggregate 2 function(s) over 0 group key(s)
  project 3 column(s) [compiled]
1 branch(es) like branch 4 [row path]:
  scan <table> via hash index on n
  fused single pass: scan, filter, project/aggregate
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
