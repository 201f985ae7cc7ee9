package sqldb

import (
	"strings"
	"testing"
)

// plan joins the EXPLAIN output lines.
func plan(t *testing.T, db *DB, sql string) string {
	t.Helper()
	res := mustExec(t, db, sql)
	if len(res.Columns) != 1 || res.Columns[0].Name != "plan" {
		t.Fatalf("explain columns = %v", res.Columns.Names())
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].Str())
	}
	return strings.Join(lines, "\n")
}

func TestExplainScanPaths(t *testing.T) {
	db := seedDB(t)
	p := plan(t, db, "EXPLAIN SELECT * FROM results WHERE fs = 'ufs'")
	if !strings.Contains(p, "scan results (full, 10 rows)") {
		t.Errorf("unindexed plan:\n%s", p)
	}
	mustExec(t, db, "CREATE INDEX ON results (fs)")
	p = plan(t, db, "EXPLAIN SELECT * FROM results WHERE fs = 'ufs'")
	if !strings.Contains(p, "via hash index on fs") {
		t.Errorf("indexed plan:\n%s", p)
	}
	// Non-equality predicates cannot probe the index.
	p = plan(t, db, "EXPLAIN SELECT * FROM results WHERE fs <> 'ufs'")
	if !strings.Contains(p, "full") {
		t.Errorf("range predicate plan:\n%s", p)
	}
	// The indexed and full paths return identical results.
	a := mustExec(t, db, "SELECT COUNT(*) FROM results WHERE fs = 'ufs'")
	if a.Rows[0][0].Int() != 6 {
		t.Errorf("indexed result = %v", a.Rows[0][0])
	}
}

func TestExplainJoins(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE l (id integer)")
	mustExec(t, db, "CREATE TABLE r (id integer)")
	p := plan(t, db, "EXPLAIN SELECT * FROM l JOIN r ON l.id = r.id")
	if !strings.Contains(p, "inner hash join with r") {
		t.Errorf("hash join plan:\n%s", p)
	}
	p = plan(t, db, "EXPLAIN SELECT * FROM l LEFT JOIN r ON l.id < r.id")
	if !strings.Contains(p, "left outer nested-loop join with r") {
		t.Errorf("nested loop plan:\n%s", p)
	}
	p = plan(t, db, "EXPLAIN SELECT * FROM l, r")
	if !strings.Contains(p, "cross join of 2 tables") {
		t.Errorf("cross join plan:\n%s", p)
	}
	// Fig. 8's relate: every col = col conjunct of one key class is a key.
	mustExec(t, db, "CREATE TABLE a (op string, S_chunk integer, s string)")
	mustExec(t, db, "CREATE TABLE b (op string, S_chunk float, s string)")
	for on, want := range map[string]string{
		"a.op = b.op AND a.S_chunk = b.S_chunk":                "inner hash join with b",
		"a.op = b.op AND b.S_chunk = a.S_chunk AND a.s <> 'x'": "inner hash join with b",
		"a.op = b.op AND a.S_chunk = b.s":                      "inner hash join with b",
		"a.S_chunk = b.s":                                      "inner nested-loop join with b",
		"a.op = b.op AND a.S_chunk / b.S_chunk > 0":            "inner nested-loop join with b",
		"a.op = b.op AND a.op = a.s":                           "inner hash join with b",
		"a.op = b.op OR a.S_chunk = b.S_chunk":                 "inner nested-loop join with b",
	} {
		if p := plan(t, db, "EXPLAIN SELECT COUNT(*) FROM a JOIN b ON "+on); !strings.Contains(p, want) {
			t.Errorf("ON %s: want %q, plan:\n%s", on, want, p)
		}
	}
}

func TestExplainPipelineSteps(t *testing.T) {
	db := seedDB(t)
	p := plan(t, db, `EXPLAIN SELECT DISTINCT fs, AVG(bw) FROM results
		WHERE chunk > 10 GROUP BY fs HAVING COUNT(*) > 1 ORDER BY fs LIMIT 5`)
	for _, want := range []string{
		"filter rows (WHERE)",
		"aggregate 2 function(s) over 1 group key(s)",
		"filter groups (HAVING)",
		"deduplicate rows (DISTINCT)",
		"sort by 1 key(s)",
		"limit/offset",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("plan missing %q:\n%s", want, p)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	db := NewMemory()
	if _, err := db.Exec("EXPLAIN SELECT * FROM ghost"); err == nil {
		t.Error("explain of missing table accepted")
	}
	if _, err := db.Exec("EXPLAIN INSERT INTO t VALUES (1)"); err == nil {
		t.Error("explain of non-select accepted")
	}
	p := plan(t, db, "EXPLAIN SELECT 1")
	if !strings.Contains(p, "synthetic row") {
		t.Errorf("table-less plan:\n%s", p)
	}
}

// TestExplainBlockSkipping: EXPLAIN on a block-resident table reports
// the zone-map pruning decision — how many blocks the scan would
// decode vs skip — plus the dominant encoding of each plan column.
func TestExplainBlockSkipping(t *testing.T) {
	dir := t.TempDir()
	db := blockTestDB(t, dir, 3*vecMorselRows) // 3 blocks per column
	defer db.Close()

	// k is increasing, so k < 100 touches only the first block.
	p := plan(t, db, "EXPLAIN SELECT COUNT(*), SUM(v) FROM bench WHERE k < 100")
	if !strings.Contains(p, "column blocks [blocks=1/2]") {
		t.Errorf("plan missing block-skip report:\n%s", p)
	}
	if !strings.Contains(p, "k=delta") {
		t.Errorf("plan missing the k column's delta encoding label:\n%s", p)
	}

	// With zone maps disabled every block is decoded.
	db.SetZoneMaps(false)
	p = plan(t, db, "EXPLAIN SELECT COUNT(*), SUM(v) FROM bench WHERE k < 100")
	if !strings.Contains(p, "column blocks [blocks=3/0]") {
		t.Errorf("zone-disabled plan should decode all blocks:\n%s", p)
	}
	db.SetZoneMaps(true)

	// An unselective predicate prunes nothing.
	p = plan(t, db, "EXPLAIN SELECT COUNT(*) FROM bench WHERE k >= 0")
	if !strings.Contains(p, "column blocks [blocks=3/0]") {
		t.Errorf("unselective plan should decode all blocks:\n%s", p)
	}

	// A memory database has no block store and no report line.
	mem := NewMemory()
	mustExec(t, mem, "CREATE TABLE m (a integer)")
	mustExec(t, mem, "INSERT INTO m VALUES (1)")
	if p := plan(t, mem, "EXPLAIN SELECT COUNT(*) FROM m WHERE a < 5"); strings.Contains(p, "column blocks") {
		t.Errorf("memory plan should not mention column blocks:\n%s", p)
	}
}
