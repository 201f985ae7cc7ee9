package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"perfbase/internal/value"
)

// TestPrepareCommitPrepared exercises the happy path of the two-phase
// commit: PREPARE validates and parks the transaction, COMMIT PREPARED
// publishes it.
func TestPrepareCommitPrepared(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (k integer, v integer)")
	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k, v) VALUES (1, 10)")
	mustSess(t, s, "PREPARE TRANSACTION 'g1'")

	// Not yet visible.
	res, err := db.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Fatalf("prepared txn visible before COMMIT PREPARED: count=%d", got)
	}

	mustSess(t, s, "COMMIT PREPARED")
	res, err = db.Exec("SELECT v FROM t WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 {
		t.Fatalf("committed prepared txn not visible: %v", res.Rows)
	}
}

// TestRollbackPrepared verifies ROLLBACK PREPARED discards the parked
// transaction and releases its intents.
func TestRollbackPrepared(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (k integer, v integer)")
	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k, v) VALUES (1, 10)")
	mustSess(t, s, "PREPARE TRANSACTION")
	mustSess(t, s, "ROLLBACK PREPARED")

	res, err := db.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Fatalf("rolled-back prepared txn left rows: count=%d", got)
	}
	// Intents released: a plain write commits.
	mustExec(t, db, "INSERT INTO t (k, v) VALUES (2, 20)")
}

// TestPreparedIntentsBlockWriters verifies that while a transaction is
// prepared, other commits touching its footprint fail with the typed
// conflict, and commits outside the footprint proceed.
func TestPreparedIntentsBlockWriters(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE ta (k integer, v integer)")
	mustExec(t, db, "CREATE TABLE tb (k integer, v integer)")
	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	// Read and written: the intent on ta is exclusive (a blind append
	// would share it with other appenders, see TestAppendIntentsAreShared).
	mustSess(t, s, "SELECT COUNT(*) FROM ta")
	mustSess(t, s, "INSERT INTO ta (k, v) VALUES (1, 10)")
	mustSess(t, s, "PREPARE TRANSACTION")

	// Autocommit write into the footprint: typed conflict.
	if _, err := db.Exec("INSERT INTO ta (k, v) VALUES (2, 20)"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("write into prepared footprint: err=%v, want ErrTxnConflict", err)
	}
	// Bulk write into the footprint: typed conflict.
	if _, err := db.InsertRows("ta", []string{"k", "v"}, []Row{{value.NewInt(3), value.NewInt(30)}}); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("bulk write into prepared footprint: err=%v, want ErrTxnConflict", err)
	}
	// Transactional write into the footprint: typed conflict at COMMIT.
	s2 := db.NewSession()
	mustSess(t, s2, "BEGIN")
	mustSess(t, s2, "INSERT INTO ta (k, v) VALUES (4, 40)")
	if _, err := s2.Exec("COMMIT"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("txn write into prepared footprint: err=%v, want ErrTxnConflict", err)
	}
	// Writes outside the footprint commit normally.
	mustExec(t, db, "INSERT INTO tb (k, v) VALUES (1, 1)")
	// And readers of the footprint table are unaffected.
	if _, err := db.Exec("SELECT COUNT(*) FROM ta"); err != nil {
		t.Fatal(err)
	}

	mustSess(t, s, "COMMIT PREPARED")
	mustExec(t, db, "INSERT INTO ta (k, v) VALUES (5, 50)")
	res, err := db.Exec("SELECT COUNT(*) FROM ta")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("count after commit prepared + insert: got %d, want 2", got)
	}
}

// TestPrepareConflictsWithCommittedWrite verifies PREPARE runs the
// same validation as COMMIT.
func TestPrepareConflictsWithCommittedWrite(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (k integer, v integer)")
	mustExec(t, db, "INSERT INTO t (k, v) VALUES (1, 10)")
	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	if _, err := s.Exec("SELECT v FROM t"); err != nil {
		t.Fatal(err)
	}
	mustSess(t, s, "UPDATE t SET v = 11 WHERE k = 1")
	// A conflicting committed write invalidates the transaction.
	mustExec(t, db, "UPDATE t SET v = 99 WHERE k = 1")
	if _, err := s.Exec("PREPARE TRANSACTION"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("PREPARE after conflicting commit: err=%v, want ErrTxnConflict", err)
	}
	if s.InTxn() {
		t.Fatal("failed PREPARE left the transaction open")
	}
}

// TestTwoPreparedDisjoint: two sessions prepare transactions on
// disjoint tables and both commit.
func TestTwoPreparedDisjoint(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE ta (k integer)")
	mustExec(t, db, "CREATE TABLE tb (k integer)")
	s1, s2 := db.NewSession(), db.NewSession()
	mustSess(t, s1, "BEGIN")
	mustSess(t, s1, "INSERT INTO ta (k) VALUES (1)")
	mustSess(t, s1, "PREPARE TRANSACTION")
	mustSess(t, s2, "BEGIN")
	mustSess(t, s2, "INSERT INTO tb (k) VALUES (2)")
	mustSess(t, s2, "PREPARE TRANSACTION")
	mustSess(t, s2, "COMMIT PREPARED")
	mustSess(t, s1, "COMMIT PREPARED")
	for _, q := range []string{"SELECT COUNT(*) FROM ta", "SELECT COUNT(*) FROM tb"} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 1 {
			t.Fatalf("%s = %d, want 1", q, res.Rows[0][0].Int())
		}
	}
}

// TestOverlappingPreparesConflict: a second PREPARE whose footprint
// overlaps an existing prepared transaction's fails with the typed
// conflict (the coordinator retries the whole transaction) — unless
// both only blind-append to the shared table. Either order of appender
// and rewriter conflicts.
func TestOverlappingPreparesConflict(t *testing.T) {
	for _, first := range []string{"append", "rewrite"} {
		t.Run(first+" first", func(t *testing.T) {
			db := NewMemory()
			mustExec(t, db, "CREATE TABLE t (k integer)")
			mustExec(t, db, "INSERT INTO t (k) VALUES (0)")
			stmts := map[string]string{
				"append":  "INSERT INTO t (k) VALUES (1)",
				"rewrite": "UPDATE t SET k = k + 10",
			}
			second := "rewrite"
			if first == "rewrite" {
				second = "append"
			}
			s1, s2 := db.NewSession(), db.NewSession()
			mustSess(t, s1, "BEGIN")
			mustSess(t, s1, stmts[first])
			mustSess(t, s1, "PREPARE TRANSACTION")
			mustSess(t, s2, "BEGIN")
			mustSess(t, s2, stmts[second])
			if _, err := s2.Exec("PREPARE TRANSACTION"); !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("%s PREPARE over a prepared %s: err=%v, want ErrTxnConflict", second, first, err)
			}
			mustSess(t, s1, "COMMIT PREPARED")
		})
	}
}

// TestAppendIntentsAreShared: transactions that only blind-append to a
// table prepare side by side, ordinary appending commits pass between
// them, and everything that is not an append — a rewrite, a DDL, a
// transaction that also read the table — is kept out until they have
// published. The rows end up in commit order.
func TestAppendIntentsAreShared(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (k integer)")
	mustExec(t, db, "INSERT INTO t (k) VALUES (0)")
	s1, s2 := db.NewSession(), db.NewSession()
	for i, s := range []*Session{s1, s2} {
		mustSess(t, s, "BEGIN")
		mustSess(t, s, fmt.Sprintf("INSERT INTO t (k) VALUES (%d)", i+1))
	}
	mustSess(t, s1, "PREPARE TRANSACTION")
	mustSess(t, s2, "PREPARE TRANSACTION")

	// Appends commit through the append intents, on every write path.
	mustExec(t, db, "INSERT INTO t (k) VALUES (3)")
	if _, err := db.InsertRows("t", []string{"k"}, []Row{{value.NewInt(4)}}); err != nil {
		t.Fatalf("bulk append past append intents: %v", err)
	}
	s3 := db.NewSession()
	mustSess(t, s3, "BEGIN")
	mustSess(t, s3, "INSERT INTO t (k) VALUES (5)")
	mustSess(t, s3, "COMMIT")

	// Anything else is refused.
	for _, sql := range []string{
		"UPDATE t SET k = k + 100",
		"DELETE FROM t WHERE k = 0",
		"CREATE INDEX ON t (k)",
		"ALTER TABLE t ADD COLUMN v integer",
		"DROP TABLE t",
	} {
		if _, err := db.Exec(sql); !errors.Is(err, ErrTxnConflict) {
			t.Fatalf("%s under append intents: err=%v, want ErrTxnConflict", sql, err)
		}
	}
	mustSess(t, s3, "BEGIN")
	mustSess(t, s3, "SELECT COUNT(*) FROM t")
	mustSess(t, s3, "INSERT INTO t (k) VALUES (6)")
	if _, err := s3.Exec("PREPARE TRANSACTION"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("reading PREPARE under append intents: err=%v, want ErrTxnConflict", err)
	}

	mustSess(t, s2, "COMMIT PREPARED")
	mustSess(t, s1, "COMMIT PREPARED")
	mustExec(t, db, "UPDATE t SET k = k + 100") // intents released
	got := readRows(t, db, "SELECT k FROM t")
	if want := []int64{100, 103, 104, 105, 102, 101}; !slices.Equal(got, want) {
		t.Fatalf("rows = %v, want commit order %v", got, want)
	}
}

// TestSessionCloseReleasesPrepared: closing a session (a dropped
// coordinator connection) aborts its prepared transaction and frees
// the intents.
func TestSessionCloseReleasesPrepared(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (k integer)")
	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k) VALUES (1)")
	mustSess(t, s, "PREPARE TRANSACTION")
	s.Close()
	// Intents released, nothing published.
	mustExec(t, db, "INSERT INTO t (k) VALUES (2)")
	res, err := db.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count = %d, want 1 (prepared txn must abort on close)", res.Rows[0][0].Int())
	}
}

func mustSess(t *testing.T, s *Session, sql string) {
	t.Helper()
	if _, err := s.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
