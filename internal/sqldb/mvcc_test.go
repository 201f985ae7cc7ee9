package sqldb

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/value"
)

// TestConcurrentWritersReaders is the MVCC stress test (run it with
// -race). N writer goroutines, each on its own Session, commit whole
// batches — through transactions, including deliberate rollbacks and
// concurrent ALTERs — while M readers continuously assert that every
// SELECT observes a consistent snapshot: whole committed batches only,
// in committed prefix order, never a torn or partially applied
// statement and never a batch that was rolled back.
func TestConcurrentWritersReaders(t *testing.T) {
	const (
		writers   = 3
		readers   = 4
		batches   = 40
		batchSize = 25
	)
	db := NewMemory()
	for w := 0; w < writers; w++ {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE w%d (v integer)", w))
	}
	mustExec(t, db, "CREATE TABLE alt (id integer)")
	mustExec(t, db, "INSERT INTO alt VALUES (1), (2), (3)")

	var wwg, rwg sync.WaitGroup // writers+churner; readers
	stop := make(chan struct{})
	errs := make(chan error, writers+readers+1)

	// Batch writers: batch k fills w<i> with batchSize rows of value k,
	// committed in order. Odd batch numbers are first inserted as value
	// -k and rolled back, then committed — a transaction is its
	// session's alone, so no reader ever observes the rolled-back rows,
	// and at any instant the table holds exactly batches 1..max(v),
	// whole.
	batchSQL := func(k int) string {
		var sb strings.Builder
		sb.WriteString("INSERT INTO %s VALUES ")
		for i := 0; i < batchSize; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d)", k)
		}
		return sb.String()
	}
	// Every transactional writer opens its transactions on its own
	// session; a second BEGIN there would be ErrTxnBusy.
	beginTxn := func(who string, s *Session) bool {
		if _, err := s.Exec("BEGIN"); err != nil {
			errs <- fmt.Errorf("%s: BEGIN: %w", who, err)
			return false
		}
		return true
	}

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			who := fmt.Sprintf("writer %d", w)
			tbl := fmt.Sprintf("w%d", w)
			s := db.NewSession()
			defer s.Close()
			exec := func(sql string) bool {
				if _, err := s.Exec(sql); err != nil {
					errs <- fmt.Errorf("%s: %s: %w", who, sql, err)
					return false
				}
				return true
			}
			for k := 1; k <= batches; k++ {
				ins := fmt.Sprintf(batchSQL(k), tbl)
				if k%2 == 1 {
					if !beginTxn(who, s) || !exec(fmt.Sprintf(batchSQL(-k), tbl)) || !exec("ROLLBACK") {
						return
					}
				}
				if !beginTxn(who, s) || !exec(ins) || !exec("COMMIT") {
					return
				}
			}
		}(w)
	}

	// Schema churner: ALTER ADD/DROP on its own table while readers
	// count it, exercising plan invalidation under concurrency. Each
	// pair runs in its own transaction, so no reader sees the column
	// added.
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 60; i++ {
			if !beginTxn("churner", s) {
				return
			}
			for _, q := range []string{
				"ALTER TABLE alt ADD COLUMN extra integer",
				"ALTER TABLE alt DROP COLUMN extra",
				"COMMIT",
			} {
				if _, err := s.Exec(q); err != nil {
					errs <- fmt.Errorf("churner: %s: %w", q, err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			tbl := fmt.Sprintf("w%d", r%writers)
			q := fmt.Sprintf("SELECT COUNT(*), MIN(v), MAX(v) FROM %s", tbl)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Exec(q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				row := res.Rows[0]
				count := row[0].Int()
				if count == 0 {
					continue
				}
				mn, mx := row[1].Int(), row[2].Int()
				if mn < 0 {
					errs <- fmt.Errorf("reader %d: observed rolled-back batch %d of %s", r, -mn, tbl)
					return
				}
				// A consistent snapshot holds exactly batches 1..mx,
				// each whole.
				if mn != 1 || count != mx*batchSize {
					errs <- fmt.Errorf("reader %d: inconsistent snapshot of %s: count=%d min=%d max=%d",
						r, tbl, count, mn, mx)
					return
				}
				if ares, err := db.Exec("SELECT COUNT(*) FROM alt"); err != nil {
					errs <- fmt.Errorf("reader %d: alt: %w", r, err)
					return
				} else if n := ares.Rows[0][0].Int(); n != 3 {
					errs <- fmt.Errorf("reader %d: alt count = %d, want 3", r, n)
					return
				}
			}
		}(r)
	}

	// Stop the readers once every writer's last batch has been observed
	// committed — or, if a writer bailed out early on an error, as soon
	// as all writers have returned (the error is then reported below).
	done := make(chan struct{})
	go func() { wwg.Wait(); close(done) }()
	go func() {
		for w := 0; ; {
			res, err := db.Exec(fmt.Sprintf("SELECT MAX(v) FROM w%d", w))
			if err == nil && !res.Rows[0][0].IsNull() && res.Rows[0][0].Int() == batches {
				w++
				if w == writers {
					close(stop)
					return
				}
			}
			select {
			case <-done:
				close(stop)
				return
			default:
			}
		}
	}()
	wwg.Wait()
	rwg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final state: all rolled-back batches are gone, all committed ones
	// present.
	for w := 0; w < writers; w++ {
		res := mustExec(t, db, fmt.Sprintf("SELECT COUNT(*) FROM w%d", w))
		if got, want := res.Rows[0][0].Int(), int64(batches*batchSize); got != want {
			t.Errorf("w%d final count = %d, want %d", w, got, want)
		}
	}
}

// TestRollbackTableCreatedAndDroppedInTxn is the regression test for
// the transaction/plan-cache edge case: a table created AND dropped
// inside a rolled-back transaction must not leave a stale compiled
// plan behind. Schema versions come from one database-wide counter
// and are never reused, so a plan compiled mid-transaction can never
// match a table created after the rollback.
func TestRollbackTableCreatedAndDroppedInTxn(t *testing.T) {
	db := NewMemory()
	s := db.NewSession()
	q := "SELECT a FROM x"

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE TABLE x (a integer)")
	mustExec(t, s, "INSERT INTO x VALUES (41)")
	res := mustExec(t, s, q) // compiles and caches a plan against the txn's x
	if res.Rows[0][0].Int() != 41 {
		t.Fatalf("in-txn read = %v", res.Rows)
	}
	mustExec(t, s, "DROP TABLE x")
	mustExec(t, s, "ROLLBACK")

	if _, err := db.Exec(q); err == nil {
		t.Fatal("SELECT after rollback should fail: x never existed")
	}

	// Recreate x with a different shape; the cached plan from inside
	// the aborted transaction must not be reused.
	mustExec(t, db, "CREATE TABLE x (pad string, a string)")
	mustExec(t, db, "INSERT INTO x VALUES ('p', 'hello')")
	res = mustExec(t, db, q)
	if len(res.Columns) != 1 || res.Columns[0].Type != value.String {
		t.Fatalf("stale plan survived rollback: columns = %v", res.Columns)
	}
	if res.Rows[0][0].Str() != "hello" {
		t.Fatalf("stale plan survived rollback: rows = %v", res.Rows)
	}
}

// TestRollbackIsPointerSwap verifies the overlay-transaction claim
// directly: rolling back a one-row insert into a large table must not
// copy the table's rows (the old engine deep-copied all of them into
// an undo log).
func TestRollbackIsPointerSwap(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE big (a integer)")
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(i))}
	}
	for i := 0; i < 100; i++ {
		if _, err := db.InsertRows("big", []string{"a"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	s := db.NewSession()
	allocs := testing.AllocsPerRun(20, func() {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "INSERT INTO big VALUES (1)")
		mustExec(t, s, "ROLLBACK")
	})
	// A deep copy of 100k rows would cost >100k allocations; the
	// overlay path is a small constant (statement parse reuse, snapshot
	// bookkeeping, one chunk append).
	if allocs > 300 {
		t.Errorf("rollback of insert into 100k-row table cost %.0f allocs; undo appears to deep-copy", allocs)
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM big")
	if res.Rows[0][0].Int() != 100000 {
		t.Errorf("count after rollbacks = %v", res.Rows)
	}
}

// TestLikeCacheBounded feeds more distinct LIKE patterns than the
// cache admits and checks it stays bounded.
func TestLikeCacheBounded(t *testing.T) {
	for i := 0; i < likeCacheSize*4; i++ {
		if _, err := likePattern(fmt.Sprintf("%%pat-%d%%", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := likeCache.len(); n > likeCacheSize {
		t.Errorf("likeCache grew to %d entries, bound is %d", n, likeCacheSize)
	}
	// Still functional after eviction churn.
	res, err := evalLike(value.NewString("xpat-1x"), value.NewString("%pat-1%"))
	if err != nil || !res.Bool() {
		t.Errorf("evalLike after churn = %v, %v", res, err)
	}
}

// TestExplainReportsSnapshot checks the EXPLAIN concurrency trailer:
// snapshot id, referenced table versions, WAL sync policy.
func TestExplainReportsSnapshot(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	res := mustExec(t, db, "EXPLAIN SELECT a FROM t")
	last := res.Rows[len(res.Rows)-1][0].Str()
	if want := regexp.MustCompile(`^snapshot \d+ \[t@v\d+\] wal sync=none \(memory database\)$`); !want.MatchString(last) {
		t.Errorf("EXPLAIN trailer = %q, want match of %v", last, want)
	}
	// DDL moves both the snapshot id and the table version.
	mustExec(t, db, "ALTER TABLE t ADD COLUMN b integer")
	res2 := mustExec(t, db, "EXPLAIN SELECT a FROM t")
	last2 := res2.Rows[len(res2.Rows)-1][0].Str()
	if last2 == last {
		t.Errorf("EXPLAIN trailer unchanged across DDL: %q", last2)
	}
	if !strings.Contains(last2, "t@v") {
		t.Errorf("EXPLAIN trailer lacks table version: %q", last2)
	}
}

// TestExplainReportsSyncPolicy checks the trailer against a durable
// database.
func TestExplainReportsSyncPolicy(t *testing.T) {
	db, err := OpenWithPolicy(t.TempDir(), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	res := mustExec(t, db, "EXPLAIN SELECT a FROM t")
	last := res.Rows[len(res.Rows)-1][0].Str()
	if !strings.Contains(last, "wal sync=always") {
		t.Errorf("EXPLAIN trailer = %q, want wal sync=always", last)
	}
}

// TestSnapshotPinnedReader exercises the exported Snapshot: it stays
// at its point in time regardless of later commits, serves SELECT and
// EXPLAIN, and rejects mutations.
func TestSnapshotPinnedReader(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")

	snap := db.Snapshot()
	if !snap.HasTable("t") || snap.HasTable("nope") {
		t.Fatal("HasTable broken")
	}

	mustExec(t, db, "INSERT INTO t VALUES (3)")
	mustExec(t, db, "CREATE TABLE u (b integer)")

	res, err := snap.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("pinned snapshot sees %v rows, want the 2 from pin time", res.Rows[0][0])
	}
	if snap.HasTable("u") {
		t.Error("pinned snapshot sees a table created after the pin")
	}
	if _, err := snap.Exec("SELECT * FROM u"); err == nil {
		t.Error("SELECT on post-pin table should fail on the snapshot")
	}
	if _, err := snap.Exec("INSERT INTO t VALUES (4)"); err == nil {
		t.Error("mutation through a snapshot should fail")
	}
	if _, err := snap.Exec("EXPLAIN SELECT a FROM t"); err != nil {
		t.Errorf("EXPLAIN on snapshot: %v", err)
	}
	if live := mustExec(t, db, "SELECT COUNT(*) FROM t"); live.Rows[0][0].Int() != 3 {
		t.Errorf("live db count = %v, want 3", live.Rows[0][0])
	}
	if db.Snapshot().ID() <= snap.ID() {
		t.Error("snapshot id did not advance with commits")
	}
}

// TestStatementAtomicity: a multi-row INSERT that fails part-way
// leaves no partial rows behind (the failed statement's working state
// is discarded, not published).
func TestStatementAtomicity(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	if _, err := db.Exec("INSERT INTO t VALUES (1), ('not a number')"); err == nil {
		t.Fatal("expected type error")
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("failed INSERT left %v rows behind", res.Rows[0][0])
	}
}

// TestGroupCommitSyncAlways: durable commits under SyncAlways survive
// a crash-style reopen, including concurrent committers sharing
// fsyncs.
func TestGroupCommitSyncAlways(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", g*100+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	db.crashWAL()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 40 {
		t.Errorf("recovered %v rows, want 40", res.Rows[0][0])
	}
}
