package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
	})
	t.Run("corrupt", func(t *testing.T) {
		c := dial(t, damagedServer(t))
		check(t, c, sqldb.ErrCorruptCheckpoint, sql("CREATE TABLE u (a integer)"), sql("SELECT a FROM t"))
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
