package wire

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
)

// TestBusyErrorTypedAcrossWire checks that the engine's ErrTxnBusy
// survives the wire round trip as a typed error, not just text.
func TestBusyErrorTypedAcrossWire(t *testing.T) {
	db := sqldb.NewMemory()
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Exec("BEGIN")
	if !errors.Is(err, sqldb.ErrTxnBusy) {
		t.Fatalf("second BEGIN error = %v, want ErrTxnBusy", err)
	}
	if _, err := c.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// TestStorageErrorsTypedAcrossWire: a CREATE TABLE over a taken name and
// a statement over a damaged checkpoint reach the client as the
// sentinels a local caller would get, not as text to match.
func TestStorageErrorsTypedAcrossWire(t *testing.T) {
	c, err := Dial(damagedServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE t (b string)"); !errors.Is(err, sqldb.ErrTableExists) {
		t.Errorf("CREATE TABLE over a taken name = %v, want ErrTableExists", err)
	}
	if _, err := c.Exec("SELECT a FROM t"); !errors.Is(err, sqldb.ErrCorruptCheckpoint) {
		t.Errorf("SELECT over a damaged block = %v, want ErrCorruptCheckpoint", err)
	}
	// Neither is the end of the connection.
	if _, err := c.Exec("CREATE TABLE u (a integer)"); err != nil {
		t.Errorf("after the typed errors: %v", err)
	}
}

// damagedServer serves a durable database whose one table t (a integer)
// has its one checkpoint block damaged, and returns its address.
func damagedServer(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := sqldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"CREATE TABLE t (a integer)", "INSERT INTO t VALUES (1), (2), (3)"} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the one block of the one table where it lies in the file.
	blk := filepath.Join(dir, "columns.blk")
	info, err := sqldb.ScanBlockFile(blk)
	if err != nil || len(info.Blocks) != 1 {
		t.Fatalf("scan: %v, %+v", err, info)
	}
	raw, err := os.ReadFile(blk)
	if err != nil {
		t.Fatal(err)
	}
	raw[info.Blocks[0].Offset] ^= 0xff
	if err := os.WriteFile(blk, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = sqldb.Open(dir); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv.Addr()
}

// TestRetryPolicyConcurrentCommit runs two clients that both insist on
// full BEGIN/SELECT/INSERT/COMMIT transactions against one shared
// table (the read is what makes them collide: blind inserts commute).
// Their transactions run concurrently and collide at commit
// validation; RunTxn must retry the conflicted transaction until every
// round lands.
func TestRetryPolicyConcurrentCommit(t *testing.T) {
	db := sqldb.NewMemory()
	if _, err := db.Exec("CREATE TABLE hits (who integer, round integer)"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const rounds = 25
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for who := 0; who < 2; who++ {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetRetryPolicy(RetryPolicy{
			MaxAttempts: 500,
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    2 * time.Millisecond,
		})
		wg.Add(1)
		go func(who int, c *Client) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				err := c.RunTxn(func(c *Client) error {
					if _, err := c.Exec("SELECT COUNT(*) FROM hits"); err != nil {
						return err
					}
					_, err := c.Exec(fmt.Sprintf("INSERT INTO hits VALUES (%d, %d)", who, round))
					return err
				})
				if err != nil {
					errs[who] = fmt.Errorf("round %d: %w", round, err)
					return
				}
			}
		}(who, c)
	}
	wg.Wait()
	for who, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", who, err)
		}
	}
	res, err := db.Exec("SELECT who, COUNT(*) FROM hits GROUP BY who ORDER BY who")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("writers seen = %d, want 2 (%v)", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].Int() != rounds {
			t.Errorf("writer %v committed %v rounds, want %d", row[0], row[1], rounds)
		}
	}
}

// TestRetryDisabledByDefault: transactions on separate connections run
// concurrently — the second BEGIN no longer blocks or errors — and
// without a policy the loser's commit-time conflict surfaces
// immediately as a typed, transaction-scoped ErrTxnConflict (distinct
// from the statement-scoped ErrTxnBusy).
func TestRetryDisabledByDefault(t *testing.T) {
	db := sqldb.NewMemory()
	if _, err := db.Exec("CREATE TABLE t (a integer)"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("BEGIN"); err != nil {
		t.Fatalf("concurrent BEGIN on second connection = %v, want success", err)
	}
	for _, c := range []*Client{a, b} {
		// Read, then write: a blind insert would commute with the other's.
		if _, err := c.Exec("SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec("INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatalf("first committer = %v, want success", err)
	}
	start := time.Now()
	_, err = b.Exec("COMMIT")
	if !errors.Is(err, sqldb.ErrTxnConflict) {
		t.Fatalf("second committer = %v, want ErrTxnConflict", err)
	}
	if errors.Is(err, sqldb.ErrTxnBusy) {
		t.Fatal("conflict error must not satisfy errors.Is(ErrTxnBusy)")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("no-retry conflict took %v; default policy should not back off", d)
	}
	// The conflicted transaction is gone: its insert must not be
	// visible, and the connection is back in autocommit mode.
	res, err := b.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("rows after conflict = %v, want 1 (loser rolled back)", res.Rows[0][0])
	}
}

// TestServerReadFailpointDisconnects: an armed read site severs the
// connection; the client surfaces a receive error and the server keeps
// accepting fresh connections.
func TestServerReadFailpointDisconnects(t *testing.T) {
	db := sqldb.NewMemory()
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := failpoint.Enable("wire/server/read", "error@2"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Fatalf("first statement should pass: %v", err)
	}
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Fatal("statement after injected disconnect succeeded")
	}

	failpoint.DisableAll()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Exec("SELECT 1"); err != nil {
		t.Fatalf("server did not survive injected disconnect: %v", err)
	}
}

// TestServerWriteFailpointDisconnects covers the response-side site:
// the statement executes but its response never arrives.
func TestServerWriteFailpointDisconnects(t *testing.T) {
	db := sqldb.NewMemory()
	if _, err := db.Exec("CREATE TABLE t (a integer)"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := failpoint.Enable("wire/server/write", "error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("client got a response through a severed write path")
	}
	failpoint.DisableAll()
	// The effect of the acked-but-unanswered statement is visible: the
	// disconnect lost the response, not the write. Clients must treat
	// wire errors as "unknown outcome", exactly like any RDBMS.
	if n, ok := db.RowCount("t"); !ok || n != 1 {
		t.Errorf("rows after severed response = %d, want 1", n)
	}
}
