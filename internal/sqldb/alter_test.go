package sqldb

import (
	"errors"
	"testing"

	"perfbase/internal/value"
)

func TestAlterAddColumn(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, db, "ALTER TABLE t ADD COLUMN b float")
	res := mustExec(t, db, "SELECT a, b FROM t ORDER BY a")
	if len(res.Columns) != 2 || res.Columns[1].Type != value.Float {
		t.Fatalf("schema after add = %v", res.Columns)
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("existing rows should have NULL in new column: %v", res.Rows[0])
	}
	mustExec(t, db, "UPDATE t SET b = a * 1.5")
	res = mustExec(t, db, "SELECT b FROM t WHERE a = 2")
	if res.Rows[0][0].Float() != 3 {
		t.Errorf("b = %v", res.Rows[0][0])
	}
	if _, err := db.Exec("ALTER TABLE t ADD COLUMN a integer"); err == nil {
		t.Error("duplicate column add accepted")
	}
	if _, err := db.Exec("ALTER TABLE nope ADD COLUMN x integer"); err == nil {
		t.Error("alter of missing table accepted")
	}
}

func TestAlterDropColumn(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer, b string, c float)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x', 2.5)")
	mustExec(t, db, "CREATE INDEX ON t (b)")
	mustExec(t, db, "ALTER TABLE t DROP COLUMN b")
	res := mustExec(t, db, "SELECT * FROM t")
	if len(res.Columns) != 2 || res.Columns[0].Name != "a" || res.Columns[1].Name != "c" {
		t.Fatalf("schema after drop = %v", res.Columns.Names())
	}
	if res.Rows[0][1].Float() != 2.5 {
		t.Errorf("row after drop = %v", res.Rows[0])
	}
	if _, err := db.Exec("SELECT b FROM t"); err == nil {
		t.Error("dropped column still selectable")
	}
	if _, err := db.Exec("ALTER TABLE t DROP COLUMN nope"); err == nil {
		t.Error("drop of missing column accepted")
	}
}

func TestAlterRename(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE old (a integer)")
	mustExec(t, db, "INSERT INTO old VALUES (7)")
	mustExec(t, db, "ALTER TABLE old RENAME TO fresh")
	res := mustExec(t, db, "SELECT a FROM fresh")
	if res.Rows[0][0].Int() != 7 {
		t.Errorf("renamed table data = %v", res.Rows)
	}
	if _, err := db.Exec("SELECT * FROM old"); err == nil {
		t.Error("old name still resolves")
	}
	mustExec(t, db, "CREATE TABLE blocker (x integer)")
	if _, err := db.Exec("ALTER TABLE fresh RENAME TO blocker"); !errors.Is(err, ErrTableExists) {
		t.Errorf("rename onto existing table: err=%v, want ErrTableExists", err)
	}
}

func TestAlterInTransaction(t *testing.T) {
	db := NewMemory().NewSession() // a transaction belongs to a session
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "ALTER TABLE t ADD COLUMN b float")
	mustExec(t, db, "ROLLBACK")
	res := mustExec(t, db, "SELECT * FROM t")
	if len(res.Columns) != 1 {
		t.Errorf("rolled-back ALTER persisted: %v", res.Columns.Names())
	}
}

func TestAlterDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "ALTER TABLE t ADD COLUMN b string")
	mustExec(t, db, "UPDATE t SET b = 'x'")
	// Crash-style reopen (WAL replay path).
	db.crashWAL()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT a, b FROM t")
	if res.Rows[0][1].Str() != "x" {
		t.Errorf("replayed ALTER state = %v", res.Rows)
	}
	if _, err := db2.Exec("ALTER TABLE t"); err == nil {
		t.Error("bare ALTER TABLE accepted")
	}
}
