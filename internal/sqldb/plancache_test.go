package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The plan cache must be invisible except for speed: repeated Exec of
// the same text reuses the parsed statement and compiled plan, and any
// DDL on a referenced table invalidates what was cached.

func TestPlanCacheReuse(t *testing.T) {
	db := seedDB(t)
	const q = "SELECT COUNT(*) FROM results WHERE fs = 'ufs'"
	a := mustExec(t, db, q)
	if db.plans.len() == 0 {
		t.Fatal("statement not cached after Exec")
	}
	cp := db.plans.get(q)
	if cp == nil {
		t.Fatal("cache lookup failed for executed SQL")
	}
	if cp.sel == nil {
		t.Fatal("compiled plan not attached to cached SELECT")
	}
	before := cp.sel
	b := mustExec(t, db, q)
	if a.Rows[0][0].Int() != b.Rows[0][0].Int() {
		t.Errorf("cached result %v != first result %v", b.Rows[0][0], a.Rows[0][0])
	}
	if db.plans.get(q).sel != before {
		t.Error("second execution rebuilt the compiled plan")
	}
}

func TestPlanCacheInvalidationOnAlterDrop(t *testing.T) {
	db := seedDB(t)
	const q = "SELECT * FROM results WHERE run_id = 1"
	res := mustExec(t, db, q)
	if len(res.Columns) != 6 {
		t.Fatalf("seed schema has %d columns", len(res.Columns))
	}

	// ALTER TABLE DROP COLUMN: the cached star expansion must not
	// resurface the dropped column.
	mustExec(t, db, "ALTER TABLE results DROP COLUMN op")
	res = mustExec(t, db, q)
	if len(res.Columns) != 5 {
		t.Fatalf("after DROP COLUMN got %d columns, want 5", len(res.Columns))
	}
	for _, c := range res.Columns {
		if lower(c.Name) == "op" {
			t.Errorf("dropped column %q still projected", c.Name)
		}
	}

	// DROP TABLE: the cached plan must not outlive the table. Hold on to
	// the entry itself, as a concurrent reader that fetched it before
	// the DROP would.
	stale := db.plans.get(q)
	staleSel := stale.sel
	mustExec(t, db, "DROP TABLE results")
	if db.plans.get(q) != nil {
		t.Error("DROP TABLE left the table's plan in the cache")
	}
	if _, err := db.Exec(q); err == nil {
		t.Fatal("cached SELECT survived DROP TABLE")
	}

	// CREATE TABLE with a different shape: the same SQL text must now
	// run against the new schema.
	mustExec(t, db, "CREATE TABLE results (run_id integer, note string)")
	mustExec(t, db, "INSERT INTO results VALUES (1, 'fresh')")
	res = mustExec(t, db, q)
	if len(res.Columns) != 2 || len(res.Rows) != 1 {
		t.Fatalf("after re-CREATE got %d columns, %d rows; want 2, 1", len(res.Columns), len(res.Rows))
	}
	if res.Rows[0][1].Str() != "fresh" {
		t.Errorf("row = %v", res.Rows[0])
	}

	// Eviction is hygiene; the schema version is what makes reuse safe.
	// The dropped table's version went with it (no tombstone), and the
	// recreated name must still not match the held entry: versions come
	// from one database-wide counter and are never handed out twice.
	sn := db.state.Load()
	if sn.versionsMatch(stale.tables, stale.vers) {
		t.Fatalf("plan compiled before DROP matches the recreated table (versions %v)", stale.vers)
	}
	p, err := db.selectPlanFor(sn, stale, stale.st.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if p == staleSel {
		t.Error("plan compiled against the dropped table was reused for its namesake")
	}
}

// TestSchemaVersionsDoNotLeak: a query session's CREATE TEMP TABLE /
// DROP TABLE churn (every perfbase query names its vectors pbq<n>_…)
// must leave nothing behind — no catalog entry, no trie node, no
// version bookkeeping, no per-table plan index entry, no column vector.
func TestSchemaVersionsDoNotLeak(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, "SELECT COUNT(*) FROM results")
	type size struct{ tables, nodes, plans, planIdx, vecs int }
	measure := func() size {
		cat := db.state.Load().cat
		nodes, _ := catShape(cat.root)
		vecs, _ := db.env.cache.stats()
		return size{cat.len(), nodes, db.plans.len(), len(db.plans.byTable), vecs}
	}
	base := measure()
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("pbq%d_x", i)
		mustExec(t, db, "CREATE TEMP TABLE "+name+" AS SELECT run_id, bw FROM results")
		mustExec(t, db, "INSERT INTO "+name+" VALUES (99, 1.5)")
		if n := mustExec(t, db, "SELECT COUNT(*), SUM(bw) FROM "+name).Rows[0][0].Int(); n != 11 {
			t.Fatalf("cycle %d: %d rows", i, n)
		}
		mustExec(t, db, "DROP TABLE "+name)
	}
	if got := measure(); got != base {
		t.Errorf("after 2000 create/drop cycles: %+v, want the baseline %+v", got, base)
	}
}

func TestPlanCacheInvalidationOnRename(t *testing.T) {
	db := seedDB(t)
	const q = "SELECT COUNT(*) FROM results"
	mustExec(t, db, q)
	mustExec(t, db, "ALTER TABLE results RENAME TO archived")
	if _, err := db.Exec(q); err == nil {
		t.Fatal("cached SELECT survived RENAME of its table")
	}
	// And the old name can be reused with new content.
	mustExec(t, db, "CREATE TABLE results (x integer)")
	res := mustExec(t, db, q)
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("count over recreated table = %v, want 0", res.Rows[0][0])
	}
}

func TestPlanCacheRollbackInvalidation(t *testing.T) {
	db := seedDB(t)
	const q = "SELECT * FROM results"
	before := mustExec(t, db, q)
	s := db.NewSession()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "ALTER TABLE results ADD COLUMN extra integer")
	mid := mustExec(t, s, q)
	if len(mid.Columns) != len(before.Columns)+1 {
		t.Fatalf("in-txn schema: %d columns", len(mid.Columns))
	}
	// The in-transaction SELECT compiled into the transaction's entry,
	// against a table version that is about to vanish.
	shared := s.tx.Load().plans[q]
	committed := db.state.Load()
	mustExec(t, s, "ROLLBACK")
	if db.state.Load() != committed {
		t.Error("ROLLBACK published a snapshot; it should be a pointer drop")
	}
	if committed.versionsMatch(shared.tables, shared.vers) {
		t.Error("plan compiled inside the aborted transaction matches the committed schema version")
	}
	after := mustExec(t, db, q)
	if len(after.Columns) != len(before.Columns) {
		t.Errorf("after rollback got %d columns, want %d", len(after.Columns), len(before.Columns))
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db := seedDB(t)
	for i := 0; i < planCacheSize+50; i++ {
		mustExec(t, db, fmt.Sprintf("SELECT COUNT(*) FROM results WHERE run_id = %d", i))
	}
	if n := db.plans.len(); n > planCacheSize {
		t.Errorf("cache grew to %d entries, cap is %d", n, planCacheSize)
	}
	// Oversized statements must not be cached at all.
	big := "SELECT COUNT(*) FROM results WHERE fs <> '" + strings.Repeat("x", planCacheMaxSQL) + "'"
	mustExec(t, db, big)
	if db.plans.get(big) != nil {
		t.Error("oversized statement was cached")
	}
}

// TestPlanCacheConcurrentExec hammers the cache from readers while a
// writer churns the schema of a second table and the data of the
// first; run with -race. It asserts the readers always see either a
// valid result or a clean "no such table" error — never a stale plan
// against a changed schema.
func TestPlanCacheConcurrentExec(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, "CREATE TABLE scratch (a integer, b string)")
	const q = "SELECT COUNT(*), AVG(bw) FROM results WHERE fs = 'ufs'"
	const qs = "SELECT * FROM scratch"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Exec(q)
				if err != nil {
					t.Errorf("stable query failed: %v", err)
					return
				}
				if res.Rows[0][0].Int() != 6 {
					t.Errorf("stable query count = %v, want 6", res.Rows[0][0])
					return
				}
				if _, err := db.Exec(qs); err != nil && !strings.Contains(err.Error(), "no such table") {
					t.Errorf("scratch query failed oddly: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		mustExec(t, db, "DROP TABLE scratch")
		if i%2 == 0 {
			mustExec(t, db, "CREATE TABLE scratch (a integer, b string, c float)")
		} else {
			mustExec(t, db, "CREATE TABLE scratch (a integer, b string)")
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO scratch (a, b) VALUES (%d, 'x')", i))
	}
	close(stop)
	wg.Wait()
}
