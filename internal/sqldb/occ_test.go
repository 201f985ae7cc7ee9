package sqldb

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// txnRetry re-runs fn (a whole BEGIN..COMMIT transaction) until it
// commits without conflict. The embedded-API analogue of the wire
// client's RunTxn.
func txnRetry(t *testing.T, s *Session, fn func() error) int {
	t.Helper()
	for attempt := 1; ; attempt++ {
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatalf("BEGIN: %v", err)
		}
		err := fn()
		if err == nil {
			_, err = s.Exec("COMMIT")
			if err == nil {
				return attempt
			}
		} else {
			s.Exec("ROLLBACK") //nolint:errcheck
		}
		if !errors.Is(err, ErrTxnConflict) {
			t.Fatalf("transaction failed non-retryably: %v", err)
		}
	}
}

// TestConcurrentDisjointTxnCommit: N sessions each run transactions
// against their own table. Under optimistic concurrency none of them
// may ever observe a conflict, and every commit must land.
func TestConcurrentDisjointTxnCommit(t *testing.T) {
	db := NewMemory()
	const writers = 8
	const rounds = 40
	for w := 0; w < writers; w++ {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE w%d (round integer, v integer)", w))
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for r := 0; r < rounds; r++ {
				if _, err := s.Exec("BEGIN"); err != nil {
					errs[w] = fmt.Errorf("round %d BEGIN: %w", r, err)
					return
				}
				for i := 0; i < 3; i++ {
					if _, err := s.Exec(fmt.Sprintf("INSERT INTO w%d VALUES (%d, %d)", w, r, i)); err != nil {
						errs[w] = fmt.Errorf("round %d INSERT: %w", r, err)
						return
					}
				}
				if _, err := s.Exec("COMMIT"); err != nil {
					// Disjoint write sets: a conflict here is a validation
					// bug, not something to retry around.
					errs[w] = fmt.Errorf("round %d COMMIT: %w", r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	for w := 0; w < writers; w++ {
		n, ok := db.RowCount(fmt.Sprintf("w%d", w))
		if !ok || n != rounds*3 {
			t.Errorf("w%d rows = %d, want %d", w, n, rounds*3)
		}
	}
}

// TestSharedTableTxnConflictRetry: N sessions hammer one shared table
// with read-modify-write transactions, and beside them a lane of
// statements outside BEGIN does the same in one statement each.
// Transaction conflicts must surface as ErrTxnConflict and retry must
// drive every transaction to completion; a lone statement must never
// report one — it is re-run where it stands. The final state must equal
// the serial oracle: if each commit read the highest key (or, which is
// the same number while the keys are dense, the row count) and inserted
// the next, the table holds exactly the dense sequence 1..commits — any
// lost update, or a statement publishing rows computed from a
// superseded read, would leave a duplicate and a hole. Run at 1, 2 and 4
// processors: the interleavings differ.
func TestSharedTableTxnConflictRetry(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			db := NewMemory()
			mustExec(t, db, "CREATE TABLE shared (k integer)")
			const writers, lone = 4, 2
			const commitsEach = 15
			var attempts atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := db.NewSession()
					defer s.Close()
					for c := 0; c < commitsEach; c++ {
						n := txnRetry(t, s, func() error {
							res, err := s.Exec("SELECT MAX(k) FROM shared")
							if err != nil {
								return err
							}
							next := int64(1)
							if len(res.Rows) == 1 && !res.Rows[0][0].IsNull() {
								next = res.Rows[0][0].Int() + 1
							}
							_, err = s.Exec(fmt.Sprintf("INSERT INTO shared VALUES (%d)", next))
							return err
						})
						attempts.Add(int64(n))
					}
				}()
			}
			// The lone statements go through the sessionless API and through
			// a session with no transaction open: one path.
			for _, q := range []Querier{db, db.NewSession()} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c := 0; c < commitsEach; c++ {
						if _, err := q.Exec("INSERT INTO shared SELECT COUNT(*) + 1 FROM shared"); err != nil {
							t.Errorf("statement outside BEGIN: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()

			const txns = writers * commitsEach
			const total = txns + lone*commitsEach
			res := mustExec(t, db, "SELECT COUNT(*), COUNT(DISTINCT k), MIN(k), MAX(k) FROM shared")
			row := res.Rows[0]
			if row[0].Int() != total || row[1].Int() != total || row[2].Int() != 1 || row[3].Int() != int64(total) {
				t.Fatalf("final state (count=%v distinct=%v min=%v max=%v) != serial oracle (%d dense keys)",
					row[0], row[1], row[2], row[3], total)
			}
			t.Logf("%d transactions took %d attempts (%.1f%% conflict rate)",
				txns, attempts.Load(), 100*float64(attempts.Load()-txns)/float64(attempts.Load()))
		})
	}
}

// parkStatement starts run — one statement outside BEGIN — on its own
// goroutine with the failpoint site armed to sleep, and returns once the
// statement has reached the site: parked there, with the site disarmed
// again so that nothing else stops at it. The channel delivers the
// statement's error when it ends. stillRunning reports, without
// blocking, that it has not.
func parkStatement(t *testing.T, site string, run func() error) (done chan error) {
	t.Helper()
	fp := failpoint.Site(site)
	before := fp.Hits()
	if err := failpoint.Enable(site, "sleep(500ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(site)
	done = make(chan error, 1)
	go func() { done <- run() }()
	for deadline := time.Now().Add(5 * time.Second); fp.Hits() == before; {
		if time.Now().After(deadline) {
			t.Fatalf("the statement never reached %s", site)
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func stillRunning(done chan error) bool {
	select {
	case err := <-done:
		done <- err
		return false
	default:
		return true
	}
}

// TestAutocommitDoesNotQueueBehindForeignStatement: a statement executes
// with the commit latch free. While session A's INSERT ... SELECT into
// its own temp table is in the middle of its scan, session B creates,
// fills and drops a table — and is done before A is.
func TestAutocommitDoesNotQueueBehindForeignStatement(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE src (g integer, x float)")
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(i % 7)), value.NewFloat(float64(i))}
	}
	if _, err := db.InsertRows("src", []string{"g", "x"}, rows); err != nil {
		t.Fatal(err)
	}
	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess(t, a, "CREATE TEMP TABLE a_sums (g integer, s float)")

	done := parkStatement(t, "sqldb/vector/morsel", func() error {
		_, err := a.Exec("INSERT INTO a_sums SELECT g, SUM(x) FROM src GROUP BY g")
		return err
	})
	mustSess(t, b, "CREATE TABLE b_claim (id integer)")
	mustSess(t, b, "INSERT INTO b_claim VALUES (1)")
	mustSess(t, b, "DROP TABLE b_claim")
	if !stillRunning(done) {
		t.Fatal("A's INSERT ... SELECT ended before B's DDL returned: B queued behind it")
	}
	if err := <-done; err != nil {
		t.Fatalf("A's INSERT ... SELECT: %v", err)
	}
	if n, _ := db.RowCount("a_sums"); n != 7 {
		t.Errorf("a_sums has %d rows, want 7", n)
	}
}

// TestAutocommitRetriesOnValidationConflict: a rival commits into the
// table of A's UPDATE after A executed and before A takes the latch. A's
// validation fails; nothing of A was visible, so A runs again on the new
// state and its caller sees a plain success: the UPDATE applied exactly
// once, on top of the rival's — one WAL frame and one hook call each.
func TestAutocommitRetriesOnValidationConflict(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE c (v integer)")
	mustExec(t, db, "INSERT INTO c VALUES (0)")
	var mu sync.Mutex
	var frames []string
	defer db.AddCommitHook(func(_ ReplPos, stmts []string) {
		mu.Lock()
		frames = append(frames, stmts...)
		mu.Unlock()
	})()

	// Every seal passes the compaction site: A parks there with its
	// overlay built and the latch not yet asked for.
	const mine, rival = "UPDATE c SET v = v + 1", "UPDATE c SET v = v + 10"
	done := parkStatement(t, "sqldb/table/compact", func() error {
		_, err := db.Exec(mine)
		return err
	})
	mustExec(t, db.NewSession(), rival)
	if !stillRunning(done) {
		t.Fatal("A ended before the rival returned: the rival did not land inside A's statement")
	}
	if err := <-done; err != nil {
		t.Fatalf("A's UPDATE over a rival commit: %v (a statement outside BEGIN never reports a validation conflict)", err)
	}
	if got := readRows(t, db, "SELECT v FROM c"); !slices.Equal(got, []int64{11}) {
		t.Errorf("c = %v, want [11]: each UPDATE exactly once", got)
	}
	mu.Lock()
	if !slices.Equal(frames, []string{rival, mine}) {
		t.Errorf("hooks saw %q, want the rival's frame, then A's, once each", frames)
	}
	mu.Unlock()
	live := db.DumpString()
	db.Crash()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Frames != 4 {
		t.Errorf("replayed %d frames, want 4 (CREATE, INSERT, two UPDATEs)", rec.Frames)
	}
	if got := re.DumpString(); got != live {
		t.Errorf("replay: %s", firstLineDiff(live, got))
	}
}

// TestAutocommitReadsAreValidated: the SELECT half of a statement is
// part of its footprint, on the sessionless API too. INSERT INTO d
// SELECT ... FROM s that computed its rows from an s a rival has since
// replaced does not publish them — it runs again — so d only ever holds
// what the log, replayed statement by statement, computes.
func TestAutocommitReadsAreValidated(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE s (x integer)")
	mustExec(t, db, "INSERT INTO s VALUES (1), (2), (3)")
	mustExec(t, db, "CREATE TABLE d (total integer)")

	done := parkStatement(t, "sqldb/table/compact", func() error {
		_, err := db.Exec("INSERT INTO d SELECT SUM(x) FROM s")
		return err
	})
	mustExec(t, db.NewSession(), "UPDATE s SET x = x * 100")
	if !stillRunning(done) {
		t.Fatal("the INSERT ... SELECT ended before the rival returned: the rival did not land inside it")
	}
	if err := <-done; err != nil {
		t.Fatalf("INSERT ... SELECT over a rival commit: %v", err)
	}
	if got := readRows(t, db, "SELECT total FROM d"); !slices.Equal(got, []int64{600}) {
		t.Errorf("d = %v, want [600]: the sum of the s that was current at the commit", got)
	}
	// A rival that only appends to d is no conflict: the statement never
	// read d, so its own append stays blind and lands behind the rival's.
	done = parkStatement(t, "sqldb/table/compact", func() error {
		_, err := db.Exec("INSERT INTO d SELECT SUM(x) + 1 FROM s")
		return err
	})
	mustExec(t, db.NewSession(), "INSERT INTO d VALUES (7)")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := readRows(t, db, "SELECT total FROM d"); !slices.Equal(got, []int64{600, 7, 601}) {
		t.Errorf("d = %v, want [600 7 601]", got)
	}
	live := db.DumpString()
	db.Crash()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DumpString(); got != live {
		t.Errorf("replay computes something else: %s", firstLineDiff(live, got))
	}
}

// TestBlindAppendsCommute: sessions that only INSERT into one shared,
// indexed table — by statement and by bulk path — never conflict, however
// their transactions interleave with each other, with autocommit
// appends and with a rewriter; every row lands once, the index finds
// each of them, and a crash-reopen replays the WAL into the very same
// row order.
func TestBlindAppendsCommute(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE shared (w integer, k integer)")
	mustExec(t, db, "CREATE INDEX ON shared (k)")
	mustExec(t, db, "CREATE TABLE side (w integer)")
	const writers, rounds = 6, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for r := range rounds {
				k := w*1000 + r*3
				if _, err := s.Exec("BEGIN"); err != nil {
					errs <- err
					return
				}
				// A read of another table leaves the append blind.
				_, err := s.Exec("SELECT COUNT(*) FROM side")
				if err == nil {
					_, err = s.Exec(fmt.Sprintf("INSERT INTO shared VALUES (%d, %d), (%d, %d)", w, k, w, k+1))
				}
				if err == nil {
					_, err = s.InsertRows("shared", []string{"w", "k"}, []Row{{value.NewInt(int64(w)), value.NewInt(int64(k + 2))}})
				}
				if err == nil {
					_, err = s.Exec("COMMIT")
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
			}
		}()
	}
	// Meanwhile: autocommit appends, and a rewriter that must never break
	// an appender (it may itself have to retry).
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for r := range rounds {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO shared VALUES (99, %d)", 900000+r)); err != nil {
				errs <- err
				return
			}
			txnRetry(t, s, func() error {
				_, err := s.Exec("UPDATE shared SET w = w + 100 WHERE w = 99")
				return err
			})
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res := mustExec(t, db, "SELECT COUNT(*), COUNT(DISTINCT k) FROM shared WHERE w < 99")
	if n, d := res.Rows[0][0].Int(), res.Rows[0][1].Int(); n != writers*rounds*3 || d != n {
		t.Fatalf("appended rows: count=%d distinct=%d, want %d of each", n, d, writers*rounds*3)
	}
	for _, k := range []int{0, 1, 2, 5*1000 + 24*3 + 2, 900024} {
		res := mustExec(t, db, fmt.Sprintf("SELECT k FROM shared WHERE k = %d", k))
		if len(res.Rows) != 1 {
			t.Errorf("index probe k=%d found %d rows, want 1", k, len(res.Rows))
		}
	}
	live := db.DumpString()
	db.Crash()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DumpString(); got != live {
		t.Fatalf("WAL replay does not reproduce the committed row order: %s", firstLineDiff(live, got))
	}
}

// TestZeroRowRewriteIsNotBlind: an UPDATE or DELETE that matched no row
// wrote nothing, but it decided that by scanning the table, so an append
// to the same table in the same transaction is no longer blind. A rival
// rewriting the table in between must conflict — at COMMIT and at
// PREPARE, whichever side of the INSERT the scan ran on: neither serial
// order of the two yields what committing both would.
func TestZeroRowRewriteIsNotBlind(t *testing.T) {
	scans := []string{"DELETE FROM k WHERE v = 5", "UPDATE k SET v = 0 WHERE v = 5"}
	for _, scan := range scans {
		for _, order := range [][]string{{scan, "INSERT INTO k VALUES (4)"}, {"INSERT INTO k VALUES (4)", scan}} {
			for _, end := range []string{"COMMIT", "PREPARE TRANSACTION"} {
				db := NewMemory()
				mustExec(t, db, "CREATE TABLE k (v integer)")
				mustExec(t, db, "INSERT INTO k VALUES (4)")
				a := db.NewSession()
				mustSess(t, a, "BEGIN")
				mustSess(t, a, order[0])
				mustSess(t, a, order[1])
				mustExec(t, db, "UPDATE k SET v = v + 1") // serial before a: a's scan finds the 5
				if _, err := a.Exec(end); !errors.Is(err, ErrTxnConflict) {
					t.Errorf("%v then %s over a rival rewrite: err=%v, want ErrTxnConflict", order, end, err)
				}
				if got := readRows(t, db, "SELECT v FROM k"); !slices.Equal(got, []int64{5}) {
					t.Errorf("%v then %s: k = %v, want [5]", order, end, got)
				}
				a.Close()
			}
		}
	}

	// The scan also ends the sharing of a prepared append intent: an
	// appender that scanned takes the table exclusive.
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE k (v integer)")
	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess(t, a, "BEGIN")
	mustSess(t, a, scans[0])
	mustSess(t, a, "INSERT INTO k VALUES (1)")
	mustSess(t, a, "PREPARE TRANSACTION")
	if _, err := db.Exec("INSERT INTO k VALUES (2)"); !errors.Is(err, ErrTxnConflict) {
		t.Errorf("append under a scanning appender's intent: err=%v, want ErrTxnConflict", err)
	}
	mustSess(t, b, "BEGIN")
	mustSess(t, b, "INSERT INTO k VALUES (3)")
	if _, err := b.Exec("PREPARE TRANSACTION"); !errors.Is(err, ErrTxnConflict) {
		t.Errorf("blind PREPARE under a scanning appender's intent: err=%v, want ErrTxnConflict", err)
	}
	mustSess(t, a, "COMMIT PREPARED")
}

// TestTxnIsolationAcrossSessions: a transaction's writes are invisible
// to other sessions (and the committed state) until COMMIT, then
// visible atomically.
func TestTxnIsolationAcrossSessions(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE iso (a integer)")
	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()

	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO iso VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	// The writer reads its own writes...
	res, err := a.Exec("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("in-txn count = %v, want 2", res.Rows[0][0])
	}
	// ...but nobody else sees them.
	for name, q := range map[string]Querier{"session": b, "db": db, "snapshot": db.Snapshot()} {
		res, err := q.Exec("SELECT COUNT(*) FROM iso")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 0 {
			t.Fatalf("%s sees %v uncommitted rows, want 0", name, res.Rows[0][0])
		}
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err = b.Exec("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("post-commit count = %v, want 2", res.Rows[0][0])
	}
}

// TestReadWriteConflict: a transaction that read a table another
// transaction then modified must fail validation, even though their
// write sets are disjoint (the classic write skew shape).
func TestReadWriteConflict(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE src (a integer)")
	mustExec(t, db, "CREATE TABLE dst (a integer)")
	mustExec(t, db, "INSERT INTO src VALUES (10)")

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	// a reads src, writes dst.
	if _, err := a.Exec("SELECT SUM(a) FROM src"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO dst VALUES (10)"); err != nil {
		t.Fatal(err)
	}
	// b changes src and commits first.
	if _, err := b.Exec("UPDATE src SET a = 99"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("COMMIT"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("COMMIT after read-set invalidation = %v, want ErrTxnConflict", err)
	}
	if n, _ := db.RowCount("dst"); n != 0 {
		t.Errorf("conflicted txn leaked %d rows into dst", n)
	}
}

// TestPointReadNoFalseConflict: transactions that point-read different
// indexed keys of a shared table must not conflict with a writer that
// changed an unrelated key; a writer changing the probed key must
// still conflict.
func TestPointReadNoFalseConflict(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE kv (k integer, v integer)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	mustExec(t, db, "INSERT INTO kv VALUES (1, 100), (2, 200), (3, 300)")
	mustExec(t, db, "CREATE TABLE out (v integer)")

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()

	// a point-reads k=1, b rewrites k=3: no overlap, no conflict.
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	res, err := a.Exec("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("probe = %v", res.Rows)
	}
	if _, err := a.Exec("INSERT INTO out VALUES (100)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("UPDATE kv SET v = 333 WHERE k = 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatalf("disjoint point read conflicted: %v", err)
	}

	// Same shape, but b rewrites the key a probed: must conflict.
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("SELECT v FROM kv WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO out VALUES (101)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("UPDATE kv SET v = 111 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("COMMIT"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("stale point read committed: %v, want ErrTxnConflict", err)
	}
}

// TestPointReadInListNoFalseConflict: a transaction whose IN list
// probed the keys 'a' and 'c' of an indexed table records a point read
// per key. It commits past another session's insert of 'b', and
// conflicts with one of 'a'.
func TestPointReadInListNoFalseConflict(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE kv (k string, v integer)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	mustExec(t, db, "INSERT INTO kv VALUES ('a', 1), ('b', 2), ('c', 3)")
	mustExec(t, db, "CREATE TABLE out (n integer)")

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	probe := func() {
		t.Helper()
		if _, err := a.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		res, err := a.Exec("SELECT COUNT(*) FROM kv WHERE k IN ('a', 'c')")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Exec(fmt.Sprintf("INSERT INTO out VALUES (%d)", res.Rows[0][0].Int())); err != nil {
			t.Fatal(err)
		}
	}

	probe()
	if _, err := b.Exec("INSERT INTO kv VALUES ('b', 20)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("COMMIT"); err != nil {
		t.Fatalf("a probe of 'a' and 'c' conflicted with an insert of 'b': %v", err)
	}

	probe()
	if _, err := b.Exec("INSERT INTO kv VALUES ('a', 10)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("COMMIT"); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("a probe of 'a' committed past an insert of 'a': %v, want ErrTxnConflict", err)
	}
}

// TestAbortedTxnPlanNotShared: a plan compiled against DDL that only
// ever existed inside an aborted transaction must not serve later
// statements (the shared-LRU promotion happens at commit, never on
// rollback). Covers both the session path and a sessionless DB.Exec
// after the session's rollback.
func TestAbortedTxnPlanNotShared(t *testing.T) {
	run := func(t *testing.T, exec func(string) (*Result, error)) {
		const q = "SELECT a FROM ghost"
		if _, err := exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		if _, err := exec("CREATE TABLE ghost (a integer)"); err != nil {
			t.Fatal(err)
		}
		if _, err := exec("INSERT INTO ghost VALUES (7)"); err != nil {
			t.Fatal(err)
		}
		res, err := exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
			t.Fatalf("in-txn read = %v", res.Rows)
		}
		if _, err := exec("ROLLBACK"); err != nil {
			t.Fatal(err)
		}
		// Same SQL text, same table name — different schema. A lingering
		// plan would project the wrong column.
		if _, err := exec("CREATE TABLE ghost (pad string, a string)"); err != nil {
			t.Fatal(err)
		}
		if _, err := exec("INSERT INTO ghost VALUES ('x', 'y')"); err != nil {
			t.Fatal(err)
		}
		res, err = exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != value.NewString("y") {
			t.Fatalf("post-abort read = %v, want [y] under the new schema", res.Rows)
		}
	}
	t.Run("session", func(t *testing.T) {
		s := NewMemory().NewSession()
		defer s.Close()
		run(t, s.Exec)
	})
	t.Run("sessionless", func(t *testing.T) {
		db := NewMemory()
		s := db.NewSession()
		defer s.Close()
		run(t, func(sql string) (*Result, error) {
			if sql == "BEGIN" || s.InTxn() {
				return s.Exec(sql)
			}
			return db.Exec(sql)
		})
	})
}

// TestCommittedTxnPlansPromoted: plans compiled inside a committed
// transaction become shared-cache hits afterwards.
func TestCommittedTxnPlansPromoted(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE p (a integer)")
	mustExec(t, db, "INSERT INTO p VALUES (1)")
	s := db.NewSession()
	defer s.Close()
	const q = "SELECT a FROM p WHERE a = 1"
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	cp := db.plans.get(q)
	if cp == nil {
		t.Fatal("committed transaction's plan was not promoted to the shared cache")
	}
	cp.mu.Lock()
	compiled := cp.sel != nil && db.state.Load().versionsMatch(cp.tables, cp.vers)
	cp.mu.Unlock()
	if !compiled {
		t.Fatal("promoted plan is not compiled against the committed versions")
	}
}

// firstLineDiff names the first line at which two dumps part.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// TestAutocommitRefusesTxnControl: a transaction belongs to a Session,
// never to the database. Through DB.Exec each transaction-control
// statement fails with ErrNoSession and opens nothing, so the INSERT
// after it commits at once, and another goroutine's DB.Exec read sees
// exactly the committed rows — never a session's uncommitted one.
func TestAutocommitRefusesTxnControl(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (100)") // s's, uncommitted

	const q = "SELECT COUNT(*) FROM t"
	count := func() (int64, error) {
		ch := make(chan error, 1)
		var n int64
		go func() {
			res, err := db.Exec(q)
			if err == nil {
				n = res.Rows[0][0].Int()
			}
			ch <- err
		}()
		return n, <-ch
	}
	for i, sql := range []string{
		"BEGIN", "COMMIT", "ROLLBACK",
		"PREPARE TRANSACTION 'g'", "COMMIT PREPARED", "ROLLBACK PREPARED",
	} {
		if _, err := db.Exec(sql); !errors.Is(err, ErrNoSession) {
			t.Errorf("DB.Exec(%q) = %v, want ErrNoSession", sql, err)
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		got, err := count()
		if err != nil {
			t.Fatal(err)
		}
		committed := mustExec(t, db.Snapshot(), q).Rows[0][0].Int()
		if got != committed || committed != int64(i+1) {
			t.Errorf("after DB.Exec(%q) and an INSERT: a DB.Exec read counts %d rows, %d are committed, want %d",
				sql, got, committed, i+1)
		}
	}
	if _, err := s.Exec("BEGIN"); !errors.Is(err, ErrTxnBusy) {
		t.Errorf("second BEGIN on one session = %v, want ErrTxnBusy", err)
	}
	mustExec(t, s, "COMMIT")
	if got, err := count(); err != nil || got != 7 {
		t.Errorf("after the session's COMMIT: count %d, %v; want 7", got, err)
	}
}
