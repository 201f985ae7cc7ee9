package wire

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

func TestExecPipelineRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := []sqldb.Row{
		{value.NewInt(1), value.NewString("a")},
		{value.NewInt(2), value.NewString("b")},
		{value.NewInt(3), value.NewString("c")},
	}
	results, err := c.ExecPipeline([]sqldb.PipelineRequest{
		{SQL: "CREATE TABLE t (n integer, s string)"},
		{Bulk: true, Table: "t", Cols: []string{"n", "s"}, Rows: rows},
		{SQL: "SELECT COUNT(*), MAX(n) FROM t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[1].Affected != 3 {
		t.Errorf("bulk insert affected = %d, want 3", results[1].Affected)
	}
	if got := results[2].Rows[0][0].Int(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if got := results[2].Rows[0][1].Int(); got != 3 {
		t.Errorf("max = %d, want 3", got)
	}
}

func TestExecPipelineAbortsOnError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results, err := c.ExecPipeline([]sqldb.PipelineRequest{
		{SQL: "CREATE TABLE t (n integer)"},
		{SQL: "SELECT * FROM missing"},
		{SQL: "INSERT INTO t VALUES (1)"},
	})
	if err == nil {
		t.Fatal("pipeline with failing middle request succeeded")
	}
	if !strings.Contains(err.Error(), "pipeline request 1") {
		t.Errorf("error does not locate the failing request: %v", err)
	}
	if len(results) != 1 {
		t.Errorf("got %d results before the failure, want 1", len(results))
	}
	// The statement after the failure must not have run.
	res, err := c.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("statement after pipeline failure ran: count = %v", res.Rows[0][0])
	}
	// The connection stays usable for subsequent requests.
	if _, err := c.Exec("INSERT INTO t VALUES (7)"); err != nil {
		t.Errorf("connection unusable after pipeline error: %v", err)
	}
}

func TestExecPipelineEmpty(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.ExecPipeline(nil)
	if err != nil || results != nil {
		t.Errorf("empty pipeline = %v, %v", results, err)
	}
}

// TestPipelineErrorsKeepTheirType: every typed error a pipeline step can
// return reaches the client as its sentinel, not as text to match, and
// still names the failing step.
func TestPipelineErrorsKeepTheirType(t *testing.T) {
	dial := func(t *testing.T, addr string) *Client {
		t.Helper()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	check := func(t *testing.T, c *Client, want error, reqs ...sqldb.PipelineRequest) {
		t.Helper()
		results, err := c.ExecPipeline(reqs)
		if !errors.Is(err, want) {
			t.Fatalf("pipeline error = %v, want %v", err, want)
		}
		if step := fmt.Sprintf("pipeline request %d", len(reqs)-1); !strings.Contains(err.Error(), step) {
			t.Errorf("error %q does not name the failing %s", err, step)
		}
		if len(results) != len(reqs)-1 {
			t.Errorf("%d results before the failure, want %d", len(results), len(reqs)-1)
		}
	}
	sql := func(s string) sqldb.PipelineRequest { return sqldb.PipelineRequest{SQL: s} }

	t.Run("table_exists", func(t *testing.T) {
		_, addr := startServer(t)
		c := dial(t, addr)
		check(t, c, sqldb.ErrTableExists, sql("CREATE TABLE t (n integer)"), sql("CREATE TABLE t (n integer)"))
	})
	t.Run("busy", func(t *testing.T) {
		_, addr := startServer(t)
		c := dial(t, addr)
		check(t, c, sqldb.ErrTxnBusy, sql("BEGIN"), sql("BEGIN"))
	})
	t.Run("conflict", func(t *testing.T) {
		_, addr := startServer(t)
		a, b := dial(t, addr), dial(t, addr)
		if _, err := a.Exec("CREATE TABLE t (n integer)"); err != nil {
			t.Fatal(err)
		}
		// a reads t inside its transaction, b commits into t, a commits.
		if _, err := a.ExecPipeline([]sqldb.PipelineRequest{sql("BEGIN"), sql("SELECT COUNT(*) FROM t"), sql("INSERT INTO t VALUES (1)")}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Exec("INSERT INTO t VALUES (2)"); err != nil {
			t.Fatal(err)
		}
		check(t, a, sqldb.ErrTxnConflict, sql("SELECT 1"), sql("COMMIT"))
	})
	t.Run("read_only", func(t *testing.T) {
		srv, addr := startServer(t)
		c := dial(t, addr)
		if _, err := c.Exec("CREATE TABLE t (n integer)"); err != nil {
			t.Fatal(err)
		}
		srv.SetReadOnly(true)
		check(t, c, sqldb.ErrReadOnly, sql("SELECT COUNT(*) FROM t"), sql("INSERT INTO t VALUES (1)"))
		check(t, c, sqldb.ErrReadOnly, sqldb.PipelineRequest{Bulk: true, Table: "t", Cols: []string{"n"}, Rows: []sqldb.Row{{value.NewInt(1)}}})
		check(t, c, sqldb.ErrReadOnly, sql("SELECT COUNT(*) FROM t"),
			sqldb.PipelineRequest{SQL: "SELECT n", Table: "t", Cols: []string{"n"}, From: []string{"t"}})
	})
	t.Run("corrupt", func(t *testing.T) {
		c := dial(t, damagedServer(t))
		check(t, c, sqldb.ErrCorruptCheckpoint, sql("CREATE TABLE u (a integer)"), sql("SELECT a FROM t"))
		check(t, c, sqldb.ErrCorruptCheckpoint, sql("CREATE TEMP TABLE v (a integer)"),
			sqldb.PipelineRequest{SQL: "SELECT a WHERE a > 0", Table: "v", Cols: []string{"a"}, From: []string{"t"}})
	})
}

// TestPipelineRollsBackItsOwnTransaction: a pipeline that fails after
// its own BEGIN leaves nothing open and nothing written, locally and
// over the wire, while a transaction the caller opened before the
// pipeline stays the caller's.
func TestPipelineRollsBackItsOwnTransaction(t *testing.T) {
	db, addr := func() (*sqldb.DB, string) {
		db := sqldb.NewMemory()
		srv := NewServer(db)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return db, srv.Addr()
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := db.Exec("CREATE TABLE t (n integer)"); err != nil {
		t.Fatal(err)
	}
	failing := []sqldb.PipelineRequest{
		{SQL: "BEGIN"},
		{SQL: "INSERT INTO t VALUES (1)"},
		{Bulk: true, Table: "t", Cols: []string{"n"}, Rows: []sqldb.Row{{value.NewInt(2)}}},
		{SQL: "INSERT INTO missing VALUES (3)"},
		{SQL: "COMMIT"},
	}
	for name, p := range map[string]sqldb.Pipeliner{"local": db, "wire": c} {
		if _, err := p.ExecPipeline(failing); err == nil {
			t.Fatalf("%s: failing pipeline succeeded", name)
		}
		if res, err := db.Exec("SELECT COUNT(*) FROM t"); err != nil || res.Rows[0][0].Int() != 0 {
			t.Fatalf("%s: the failed pipeline's rows are visible: %v, %v", name, res, err)
		}
	}
	// The connection's session has no transaction left open: a BEGIN of
	// its own is not busy.
	if _, err := c.Exec("BEGIN"); err != nil {
		t.Fatalf("BEGIN after the failed pipeline: %v", err)
	}
	// Inside the caller's transaction a failing pipeline rolls back
	// nothing: its earlier statements stay in the caller's hands.
	if _, err := c.ExecPipeline([]sqldb.PipelineRequest{{SQL: "INSERT INTO t VALUES (4)"}, {SQL: "SELECT * FROM missing"}}); err == nil {
		t.Fatal("failing pipeline succeeded")
	}
	if _, err := c.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if res, err := db.Exec("SELECT n FROM t"); err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 {
		t.Fatalf("after the caller's COMMIT: %v, %v, want the one row 4", res, err)
	}
}

func TestLocalExecPipeline(t *testing.T) {
	db := sqldb.NewMemory()
	results, err := db.ExecPipeline([]sqldb.PipelineRequest{
		{SQL: "CREATE TABLE t (n integer)"},
		{Bulk: true, Table: "t", Cols: []string{"n"}, Rows: []sqldb.Row{{value.NewInt(5)}}},
		{SQL: "SELECT n FROM t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2].Rows[0][0].Int() != 5 {
		t.Errorf("local pipeline results = %v, %v", results, err)
	}
}

// pourStep is a source-like pour into dst over the given tables: run
// constants of three types, NaN and ±Inf among them, in front of a
// filtered, unit-converted read.
func pourStep(dst string, from ...string) sqldb.PipelineRequest {
	r := sqldb.PipelineRequest{SQL: "SELECT k, (v * 0.5) AS v, s WHERE k > 0", Table: dst,
		Cols: []string{"fs", "score", "at", "k", "v", "s"}, From: append([]string{}, from...)}
	scores := []float64{math.NaN(), 2, math.Inf(1), 2.5, math.Inf(-1)}
	for i := range from {
		score := value.NewFloat(scores[i%len(scores)])
		if i == 3 {
			score = value.Null(value.Float)
		}
		r.Rows = append(r.Rows, sqldb.Row{value.NewString([]string{"ufs", "it's"}[i%2]), score,
			value.NewTimestamp(time.Date(2005, 9, 1+i, 12, 0, 0, 500, time.UTC))})
	}
	return r
}

// TestPourOverWireMatchesText: a pour crosses the wire as a step — its
// SELECT, tables and constants, no statement text — and leaves the table
// the statement sqldb.RenderPour prints leaves; a pour over no table
// inserts nothing; a failing pour fails as its statement does.
func TestPourOverWireMatchesText(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tables []string
	for i := 0; i < 5; i++ {
		name, v := fmt.Sprintf("r%d", i), "float"
		if i == 2 {
			v = "integer" // a table that needs a plan of its own
		}
		tables = append(tables, name)
		for _, sql := range []string{
			"CREATE TABLE " + name + " (k integer, v " + v + ", s string)",
			fmt.Sprintf("INSERT INTO %s VALUES (0, 1, 'a'), (%d, 3, NULL), (2, NULL, 'b''c')", name, i+1),
		} {
			if _, err := c.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	const dst = " (fs string, score float, at timestamp, k integer, v float, s string)"
	for i, tc := range []struct {
		name  string
		step  sqldb.PipelineRequest
		fails bool
	}{
		{"no table", pourStep("dst"), false},
		{"one table", pourStep("dst", "r0"), false},
		{"five tables", pourStep("dst", tables...), false},
		{"missing table", pourStep("dst", "r0", "nosuch"), true},
		{"arity", func() sqldb.PipelineRequest { r := pourStep("dst", tables...); r.Cols = r.Cols[1:]; return r }(), true},
	} {
		poured, text := tc.step, tc.step
		poured.Table, text.Table = fmt.Sprintf("p%d", i), fmt.Sprintf("t%d", i)
		_, pourErr := c.ExecPipeline([]sqldb.PipelineRequest{{SQL: "CREATE TEMP TABLE " + poured.Table + dst}, poured})
		insert, _, err := sqldb.RenderPour(text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reqs := []sqldb.PipelineRequest{{SQL: "CREATE TEMP TABLE " + text.Table + dst}}
		if insert != "" {
			reqs = append(reqs, sqldb.PipelineRequest{SQL: insert})
		}
		_, textErr := c.ExecPipeline(reqs)
		if (pourErr != nil) != tc.fails || fmt.Sprint(pourErr) != strings.ReplaceAll(fmt.Sprint(textErr), text.Table, poured.Table) {
			t.Fatalf("%s: poured: %v, as text: %v", tc.name, pourErr, textErr)
		}
		dump := func(table string) string {
			res, err := c.Exec("SELECT * FROM " + table)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, row := range res.Rows {
				for _, v := range row {
					sb.WriteString(v.Type().String() + ":" + v.SQL() + " ")
				}
				sb.WriteString("\n")
			}
			return sb.String()
		}
		if got, want := dump(poured.Table), dump(text.Table); got != want {
			t.Errorf("%s: poured:\n%s\nas text:\n%s", tc.name, got, want)
		}
	}
}
