package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// fmtViewResult renders a Result deterministically (column names/types and
// every row in SQL literal form) for byte-identical comparison.
func fmtViewResult(res *Result) string {
	var b strings.Builder
	for i, c := range res.Columns {
		if i > 0 {
			b.WriteByte('\t')
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Type)
	}
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.SQL())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkView asserts one materialized view is byte-identical to
// on-demand execution of its defining SELECT.
func checkView(t *testing.T, db *DB, r *ViewRegistry, name, sql string) {
	t.Helper()
	if err := r.WaitPos(db.Pos(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Get(name)
	if err != nil {
		t.Fatalf("view %q: %v", name, err)
	}
	want, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("on-demand %q: %v", name, err)
	}
	if g, w := fmtViewResult(got), fmtViewResult(want); g != w {
		t.Fatalf("view %q diverged\n--- materialized ---\n%s--- on-demand ---\n%s", name, g, w)
	}
}

func TestMatViewIncremental(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE runs (exp STRING, nproc INTEGER, bw FLOAT)")
	r := NewViewRegistry(db)
	defer r.Close()

	views := map[string]string{
		"by_exp":   "SELECT exp, COUNT(*), AVG(bw) FROM runs GROUP BY exp",
		"by_nproc": "SELECT nproc, SUM(bw), MIN(bw), MAX(bw) FROM runs GROUP BY nproc",
		"overall":  "SELECT COUNT(*), AVG(bw), STDDEV(bw) FROM runs",
		"top":      "SELECT exp, bw FROM runs WHERE bw > 10 ORDER BY bw DESC LIMIT 3",
		"composite": "SELECT exp, nproc, COUNT(*) FROM runs GROUP BY exp, nproc " +
			"HAVING COUNT(*) >= 1 ORDER BY exp, nproc",
	}
	for name, sql := range views {
		if err := r.Register(name, sql); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	// Empty-table materializations must already match (including the
	// synthetic all-NULL group of ungrouped aggregates).
	for name, sql := range views {
		checkView(t, db, r, name, sql)
	}

	exps := []string{"beff", "latency", "stream"}
	for i := 0; i < 60; i++ {
		// Dyadic-rational floats keep float addition exact, so the
		// comparison cannot be blurred by summation order.
		bw := float64(i%32) / 8
		mustExec(t, db, fmt.Sprintf("INSERT INTO runs VALUES ('%s', %d, %g)",
			exps[i%len(exps)], 1<<(i%4), bw))
		if i%7 == 0 {
			for name, sql := range views {
				checkView(t, db, r, name, sql)
			}
		}
	}
	for name, sql := range views {
		checkView(t, db, r, name, sql)
	}
}

func TestMatViewRecomputeFallback(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (k STRING, n INTEGER)")
	r := NewViewRegistry(db)
	defer r.Close()
	const sql = "SELECT k, SUM(n) FROM t GROUP BY k ORDER BY k"
	if err := r.Register("sums", sql); err != nil {
		t.Fatal(err)
	}

	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)")
	checkView(t, db, r, "sums", sql)

	// Each non-incrementalizable delta must fall back to recompute.
	mustExec(t, db, "UPDATE t SET n = n + 10 WHERE k = 'a'")
	checkView(t, db, r, "sums", sql)
	mustExec(t, db, "DELETE FROM t WHERE k = 'b'")
	checkView(t, db, r, "sums", sql)
	mustExec(t, db, "INSERT INTO t VALUES ('c', 5)")
	checkView(t, db, r, "sums", sql)
	// INSERT ... SELECT is not a literal delta.
	mustExec(t, db, "CREATE TABLE src (k STRING, n INTEGER)")
	mustExec(t, db, "INSERT INTO src VALUES ('d', 7)")
	mustExec(t, db, "INSERT INTO t SELECT k, n FROM src")
	checkView(t, db, r, "sums", sql)
	// CREATE INDEX changes no rows; unrelated-table writes are skipped.
	mustExec(t, db, "CREATE INDEX ON t (k)")
	mustExec(t, db, "INSERT INTO src VALUES ('zz', 9)")
	checkView(t, db, r, "sums", sql)
	// DELETE of everything: the grouped view collapses to zero rows.
	mustExec(t, db, "DELETE FROM t")
	checkView(t, db, r, "sums", sql)
	mustExec(t, db, "INSERT INTO t VALUES ('e', 1)")
	checkView(t, db, r, "sums", sql)
}

// TestMatViewAlterTableRebuilds is a regression test: ALTER TABLE on a
// view's base table (ADD/DROP COLUMN, RENAME) must force a rebuild —
// an earlier version classified ALTER under the wildcard target that
// no view matched, so views kept folding inserts through a stale
// schema.
func TestMatViewAlterTableRebuilds(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (k STRING, n INTEGER)")
	mustExec(t, db, "CREATE TABLE u (k STRING, m INTEGER)")
	r := NewViewRegistry(db)
	defer r.Close()
	const incSQL = "SELECT k, SUM(n) FROM t GROUP BY k ORDER BY k"
	const joinSQL = "SELECT t.k, SUM(u.m) FROM t JOIN u ON t.k = u.k GROUP BY t.k ORDER BY t.k"
	if err := r.Register("inc", incSQL); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("joined", joinSQL); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', 2)")
	mustExec(t, db, "INSERT INTO u VALUES ('a', 10), ('b', 20)")
	checkView(t, db, r, "inc", incSQL)
	checkView(t, db, r, "joined", joinSQL)

	// ADD COLUMN widens the base schema; later inserts carry the new
	// column and must not be folded through the captured old schema.
	mustExec(t, db, "ALTER TABLE t ADD COLUMN extra FLOAT")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 3, 1.5), ('c', 4, 2.5)")
	checkView(t, db, r, "inc", incSQL)
	checkView(t, db, r, "joined", joinSQL)

	// DROP COLUMN narrows it again.
	mustExec(t, db, "ALTER TABLE t DROP COLUMN extra")
	mustExec(t, db, "INSERT INTO t VALUES ('b', 5)")
	checkView(t, db, r, "inc", incSQL)
	checkView(t, db, r, "joined", joinSQL)

	// RENAME away: the view's base table is gone; materialized and
	// on-demand execution must fail alike.
	mustExec(t, db, "ALTER TABLE u RENAME TO u2")
	if err := r.WaitPos(db.Pos(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("joined"); err == nil {
		t.Fatal("view over renamed-away table should be in error state")
	}
	if _, err := db.Exec(joinSQL); err == nil {
		t.Fatal("on-demand over renamed-away table should fail")
	}
	// RENAME back: the next touch of the base restores the view.
	mustExec(t, db, "ALTER TABLE u2 RENAME TO u")
	mustExec(t, db, "INSERT INTO u VALUES ('c', 30)")
	checkView(t, db, r, "inc", incSQL)
	checkView(t, db, r, "joined", joinSQL)
}

func TestMatViewJoinRebuilds(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE a (k STRING, n INTEGER)")
	mustExec(t, db, "CREATE TABLE b (k STRING, m INTEGER)")
	r := NewViewRegistry(db)
	defer r.Close()
	const sql = "SELECT a.k, SUM(b.m) FROM a JOIN b ON a.k = b.k GROUP BY a.k ORDER BY a.k"
	if err := r.Register("joined", sql); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO a VALUES ('x', 1), ('y', 2)")
	checkView(t, db, r, "joined", sql)
	mustExec(t, db, "INSERT INTO b VALUES ('x', 10), ('x', 20), ('y', 5)")
	checkView(t, db, r, "joined", sql)
	mustExec(t, db, "UPDATE b SET m = 99 WHERE k = 'y'")
	checkView(t, db, r, "joined", sql)
}

// TestMatViewJoinSurvivesUnrelatedCommit: a rebuild-only view retains
// no state to render, so a commit that does not touch its tables — or a
// WAL rotation — must republish the last rebuild's result, not render
// an empty one.
func TestMatViewJoinSurvivesUnrelatedCommit(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE a (k INTEGER, x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (k INTEGER, y INTEGER)")
	mustExec(t, db, "CREATE TABLE decoy (z INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 10), (2, 20)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 5), (2, 6)")
	r := NewViewRegistry(db)
	defer r.Close()
	views := map[string]string{
		"agg":  "SELECT COUNT(*), SUM(x + y) FROM a JOIN b ON a.k = b.k",
		"rows": "SELECT a.k, y FROM a JOIN b ON a.k = b.k ORDER BY a.k",
	}
	for name, sql := range views {
		if err := r.Register(name, sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		mustExec(t, db, "INSERT INTO decoy VALUES (1)")
		for name, sql := range views {
			checkView(t, db, r, name, sql)
		}
	}
}

func TestMatViewErrorState(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	r := NewViewRegistry(db)
	defer r.Close()
	if err := r.Register("bad", "SELECT COUNT(*) FROM missing"); err != nil {
		t.Fatalf("register should defer execution errors, got %v", err)
	}
	if _, _, err := r.Get("bad"); err == nil {
		t.Fatal("Get on a view over a missing table should fail")
	}
	// Commits on unrelated tables while the view is in its error state
	// must republish the error, not crash the worker on the nil plan.
	mustExec(t, db, "CREATE TABLE other (x INTEGER)")
	mustExec(t, db, "INSERT INTO other VALUES (1)")
	if err := r.WaitPos(db.Pos(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get("bad"); err == nil {
		t.Fatal("error state should persist across unrelated commits")
	}
	// The view heals when the table appears.
	mustExec(t, db, "CREATE TABLE missing (x INTEGER)")
	mustExec(t, db, "INSERT INTO missing VALUES (1), (2)")
	checkView(t, db, r, "bad", "SELECT COUNT(*) FROM missing")

	if err := r.Register("nosql", "INSERT INTO missing VALUES (3)"); err == nil {
		t.Fatal("Register of a non-SELECT should fail")
	}
	if _, _, err := r.Get("nope"); err == nil {
		t.Fatal("Get of an unknown view should fail")
	}
	r.Unregister("bad")
	if _, _, err := r.Get("bad"); err == nil {
		t.Fatal("Get after Unregister should fail")
	}
}

// TestMatViewDifferential1k drives 1000 random commits — multi-row
// inserts, updates, deletes, DDL, writes to a decoy table — and checks
// after every commit that each view is byte-identical to on-demand
// execution of its SQL.
func TestMatViewDifferential1k(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE m (k STRING, g INTEGER, x FLOAT)")
	mustExec(t, db, "CREATE TABLE decoy (x INTEGER)")
	r := NewViewRegistry(db)
	defer r.Close()

	views := map[string]string{
		"v_str":  "SELECT k, COUNT(*), SUM(x) FROM m GROUP BY k",
		"v_num":  "SELECT g, AVG(x), COUNT(*) FROM m GROUP BY g",
		"v_comp": "SELECT k, g, MAX(x) FROM m GROUP BY k, g ORDER BY k, g",
		"v_all":  "SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM m",
		"v_flt":  "SELECT k, x FROM m WHERE g >= 2 ORDER BY x DESC, k LIMIT 5",
		"v_hav":  "SELECT k, COUNT(*) FROM m GROUP BY k HAVING COUNT(*) > 3",
		"v_med":  "SELECT g, MEDIAN(x) FROM m GROUP BY g ORDER BY g",
	}
	for name, sql := range views {
		if err := r.Register(name, sql); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}

	rng := rand.New(rand.NewSource(9))
	keys := []string{"a", "b", "c", "d"}
	commits := 1000
	if testing.Short() {
		commits = 100
	}
	for i := 0; i < commits; i++ {
		switch op := rng.Intn(20); {
		case op < 13: // literal INSERT, 1-4 rows (the incremental path)
			n := 1 + rng.Intn(4)
			var vals []string
			for j := 0; j < n; j++ {
				vals = append(vals, fmt.Sprintf("('%s', %d, %g)",
					keys[rng.Intn(len(keys))], rng.Intn(5), float64(rng.Intn(64))/8))
			}
			mustExec(t, db, "INSERT INTO m VALUES "+strings.Join(vals, ", "))
		case op < 15:
			mustExec(t, db, fmt.Sprintf("UPDATE m SET x = x + 0.5 WHERE g = %d", rng.Intn(5)))
		case op < 17:
			mustExec(t, db, fmt.Sprintf("DELETE FROM m WHERE k = '%s' AND x > %g",
				keys[rng.Intn(len(keys))], float64(rng.Intn(48))/8))
		case op < 19: // decoy-table writes must not disturb the views
			mustExec(t, db, fmt.Sprintf("INSERT INTO decoy VALUES (%d)", i))
		default:
			mustExec(t, db, fmt.Sprintf("INSERT INTO m (k, g) VALUES ('%s', %d)",
				keys[rng.Intn(len(keys))], rng.Intn(5))) // NULL x via column subset
		}
		for name, sql := range views {
			checkView(t, db, r, name, sql)
		}
	}
}

// TestMatViewOnReplica attaches a registry to a second DB fed by
// frame replay (the replica write path) and checks views stay
// maintained there — views can be served from read replicas.
func TestMatViewOnReplica(t *testing.T) {
	primary := NewMemory()
	defer primary.Close()
	replica := NewMemory()
	defer replica.Close()

	// Feed every primary frame through the replica's normal write path
	// in commit order, as internal/repl's Replica does: the hook only
	// queues, one goroutine replays.
	frames := make(chan []string, 16)
	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		for stmts := range frames {
			for _, s := range stmts {
				if _, err := replica.Exec(s); err != nil {
					t.Errorf("replay: %v", err)
				}
			}
		}
	}()
	remove := primary.AddCommitHook(func(pos ReplPos, stmts []string) {
		if stmts != nil {
			frames <- stmts
		}
	})
	defer func() {
		remove()
		close(frames)
		<-replayed
	}()

	r := NewViewRegistry(replica)
	defer r.Close()
	mustExec(t, primary, "CREATE TABLE t (k STRING, n INTEGER)")
	if err := r.Register("counts", "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, primary, "INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)")

	deadline := time.Now().Add(5 * time.Second)
	for {
		res, _, err := r.Get("counts")
		if err == nil && len(res.Rows) == 2 {
			checkView(t, replica, r, "counts", "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica view never caught up: res=%v err=%v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
