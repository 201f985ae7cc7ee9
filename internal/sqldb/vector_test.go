package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/value"
)

// fmtResult renders a result canonically so two engines can be
// compared byte-for-byte.
func fmtResult(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// vecTestDBs builds two databases with identical content: one with the
// vectorized path enabled (the default), one forced onto the row
// engine. Every query in the agreement tests runs on both.
func vecTestDBs(t *testing.T, stmts []string) (*DB, *DB) {
	t.Helper()
	vdb, rdb := NewMemory(), NewMemory()
	rdb.SetVectorized(false)
	for _, sql := range stmts {
		if _, err := vdb.Exec(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
		if _, err := rdb.Exec(sql); err != nil {
			t.Fatalf("setup %q (row db): %v", sql, err)
		}
	}
	return vdb, rdb
}

func checkAgree(t *testing.T, vdb, rdb *DB, queries []string) {
	t.Helper()
	for _, sql := range queries {
		vres, verr := vdb.Exec(sql)
		rres, rerr := rdb.Exec(sql)
		if (verr == nil) != (rerr == nil) {
			t.Fatalf("%q: vectorized err=%v, row err=%v", sql, verr, rerr)
		}
		if verr != nil {
			continue
		}
		if v, r := fmtResult(vres), fmtResult(rres); v != r {
			t.Errorf("%q: paths disagree\nvectorized:\n%srow:\n%s", sql, v, r)
		}
	}
}

// vecAgreementQueries are TestVectorRowAgreement's statements over its
// table t (i integer, f float, s string, b boolean, ver version).
var vecAgreementQueries = []string{
	// Comparison kernels, every operator and operand class.
	"SELECT COUNT(*) FROM t WHERE i = 5",
	"SELECT COUNT(*) FROM t WHERE i <> 5",
	"SELECT COUNT(*) FROM t WHERE i < 0",
	"SELECT COUNT(*) FROM t WHERE i <= -1",
	"SELECT COUNT(*) FROM t WHERE i > 10",
	"SELECT COUNT(*) FROM t WHERE i >= 10",
	"SELECT COUNT(*) FROM t WHERE 3 < i",
	"SELECT COUNT(*) FROM t WHERE i > 2.5",
	"SELECT COUNT(*) FROM t WHERE f = 1.25",
	"SELECT COUNT(*) FROM t WHERE f > 8",
	"SELECT COUNT(*) FROM t WHERE s >= 's06'",
	"SELECT COUNT(*) FROM t WHERE s = 's03'",
	"SELECT COUNT(*) FROM t WHERE b = TRUE",
	"SELECT COUNT(*) FROM t WHERE b",
	// NULL tests, IN, BETWEEN, and/or composition.
	"SELECT COUNT(*) FROM t WHERE i IS NULL",
	"SELECT COUNT(*) FROM t WHERE f IS NOT NULL",
	"SELECT COUNT(*) FROM t WHERE i IN (1, 2, 3)",
	"SELECT COUNT(*) FROM t WHERE i NOT IN (1, 2, 3)",
	"SELECT COUNT(*) FROM t WHERE i IN (1, 2.5, 3)",
	"SELECT COUNT(*) FROM t WHERE s IN ('s01', 's05', 'zzz')",
	"SELECT COUNT(*) FROM t WHERE i BETWEEN -3 AND 7",
	"SELECT COUNT(*) FROM t WHERE i NOT BETWEEN -3 AND 7",
	"SELECT COUNT(*) FROM t WHERE f BETWEEN 1.5 AND 9.75",
	"SELECT COUNT(*) FROM t WHERE s BETWEEN 's02' AND 's08'",
	"SELECT COUNT(*) FROM t WHERE i > 0 AND f < 10",
	"SELECT COUNT(*) FROM t WHERE i > 15 OR i < -15",
	"SELECT COUNT(*) FROM t WHERE (i > 0 AND b) OR s = 's00'",
	// Non-grouped filtered projection.
	"SELECT i, f, s FROM t WHERE i > 12",
	"SELECT * FROM t WHERE i = 7",
	"SELECT i + 1, s FROM t WHERE i > 17",
	// Aggregate kernels, single/multi group keys, HAVING, tails.
	"SELECT COUNT(*), COUNT(i), COUNT(f), COUNT(s) FROM t",
	"SELECT SUM(i), MIN(i), MAX(i), AVG(i) FROM t",
	"SELECT SUM(f), MIN(f), MAX(f) FROM t WHERE f < 100",
	"SELECT MIN(s), MAX(s) FROM t",
	"SELECT s, COUNT(*), SUM(i) FROM t GROUP BY s ORDER BY s",
	"SELECT i, COUNT(*) FROM t GROUP BY i ORDER BY i",
	"SELECT b, COUNT(*), AVG(i) FROM t GROUP BY b ORDER BY b",
	"SELECT f, COUNT(*) FROM t GROUP BY f ORDER BY f",
	"SELECT ver, COUNT(*) FROM t GROUP BY ver ORDER BY ver",
	"SELECT s, b, COUNT(*), MAX(f) FROM t GROUP BY s, b ORDER BY s, b",
	"SELECT s, SUM(i) FROM t GROUP BY s HAVING SUM(i) > 0 ORDER BY s",
	"SELECT s, COUNT(*) FROM t WHERE i > 0 GROUP BY s ORDER BY s",
	"SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY COUNT(*) DESC, s LIMIT 4",
	"SELECT i, f FROM t WHERE i > 5 ORDER BY i, f LIMIT 10 OFFSET 3",
	// Aggregates over empty input (one NULL-rep group, no GROUP BY).
	"SELECT COUNT(*), SUM(i), MIN(f), AVG(i) FROM t WHERE i > 1000",
	"SELECT s, COUNT(*) FROM t WHERE i > 1000 GROUP BY s",
	// NOT and LIKE run inside the batch on the row back end's kernel;
	// expression and DISTINCT aggregates fall back to the row engine —
	// agreement required either way.
	"SELECT COUNT(*) FROM t WHERE NOT (i > 0)",
	"SELECT COUNT(*) FROM t WHERE s LIKE 's0%'",
	"SELECT SUM(i + 1) FROM t",
	"SELECT COUNT(DISTINCT s) FROM t",
	"SELECT MEDIAN(i) FROM t",
}

// TestVectorRowAgreement runs a battery of qualifying (and some
// disqualifying) statements over a table covering every vectorizable
// type, with NULLs and NaN, and requires the vectorized and row paths
// to agree byte-for-byte.
func TestVectorRowAgreement(t *testing.T) {
	setup := []string{
		"CREATE TABLE t (i integer, f float, s string, b boolean, ver version)",
	}
	vdb, rdb := vecTestDBs(t, setup)
	// Rows go in through InsertRows so NaN and NULL land exactly.
	cols := []string{"i", "f", "s", "b", "ver"}
	var rows []Row
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 900; k++ {
		var r Row
		if k%17 == 0 {
			r = Row{value.Null(value.Integer), value.Null(value.Float),
				value.Null(value.String), value.Null(value.Boolean), value.Null(value.Version)}
		} else {
			f := float64(rng.Intn(64)) * 0.25
			if k%23 == 0 {
				f = math.NaN()
			}
			r = Row{
				value.NewInt(int64(rng.Intn(40) - 20)),
				value.NewFloat(f),
				value.NewString(fmt.Sprintf("s%02d", rng.Intn(12))),
				value.NewBool(k%3 == 0),
				value.NewVersion(fmt.Sprintf("1.%d.%d", rng.Intn(3), rng.Intn(4))),
			}
		}
		rows = append(rows, r)
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("t", cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	checkAgree(t, vdb, rdb, vecAgreementQueries)
	for _, q := range []string{
		"EXPLAIN SELECT COUNT(*) FROM t WHERE NOT (i > 0)",
		"EXPLAIN SELECT COUNT(*) FROM t WHERE s LIKE 's0%'",
	} {
		if p := fmtResult(mustExec(t, vdb, q)); !strings.Contains(p, "[vectorized]") {
			t.Errorf("%s: not vectorized:\n%s", q, p)
		}
	}
}

// TestVectorAgreementAfterMutations checks the chunk-identity cache
// keying: UPDATE/DELETE/INSERT produce fresh chunks whose vectors must
// be rebuilt, never served stale.
func TestVectorAgreementAfterMutations(t *testing.T) {
	setup := []string{
		"CREATE TABLE t (i integer, s string)",
	}
	vdb, rdb := vecTestDBs(t, setup)
	step := func(sql string) {
		t.Helper()
		for _, db := range []*DB{vdb, rdb} {
			if _, err := db.Exec(sql); err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
		}
	}
	queries := []string{
		"SELECT s, COUNT(*), SUM(i) FROM t GROUP BY s ORDER BY s",
		"SELECT i, s FROM t WHERE i >= 2 ORDER BY i",
	}
	for k := 0; k < 30; k++ {
		step(fmt.Sprintf("INSERT INTO t VALUES (%d, 'g%d')", k, k%3))
	}
	checkAgree(t, vdb, rdb, queries) // populate the column cache
	step("UPDATE t SET i = i + 100 WHERE s = 'g1'")
	checkAgree(t, vdb, rdb, queries)
	step("DELETE FROM t WHERE i < 5")
	checkAgree(t, vdb, rdb, queries)
	step("INSERT INTO t VALUES (7, 'g0'), (8, 'g1')")
	checkAgree(t, vdb, rdb, queries)
	step("DELETE FROM t WHERE i >= 0") // empty table, empty chunk
	checkAgree(t, vdb, rdb, queries)
}

// TestVectorMorselDeterminism requires byte-identical results at any
// worker count on a table large enough to engage the parallel path.
func TestVectorMorselDeterminism(t *testing.T) {
	db := NewMemory()
	if _, err := db.Exec("CREATE TABLE big (k integer, g string, v integer)"); err != nil {
		t.Fatal(err)
	}
	cols := []string{"k", "g", "v"}
	var rows []Row
	for k := 0; k < 3*vecParallelMinRows; k++ {
		rows = append(rows, Row{
			value.NewInt(int64(k)),
			value.NewString(fmt.Sprintf("g%d", k%37)),
			value.NewInt(int64(k%211 - 100)),
		})
	}
	if _, err := db.InsertRows("big", cols, rows); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM big GROUP BY g ORDER BY g",
		"SELECT COUNT(*) FROM big WHERE v > 50",
		"SELECT k, v FROM big WHERE v = 17 ORDER BY k",
	}
	var want []string
	db.SetScanWorkers(1)
	for _, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmtResult(res))
	}
	for _, workers := range []int{2, 4, 8} {
		db.SetScanWorkers(workers)
		for i, q := range queries {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmtResult(res); got != want[i] {
				t.Errorf("workers=%d: %q differs from single-worker result", workers, q)
			}
		}
	}
}

// TestColumnCacheEviction checks the bytes-capped LRU: the cache never
// exceeds its limit, shrinking evicts immediately, and dropping a
// table purges its vectors so dead chunks cannot stay pinned.
func TestColumnCacheEviction(t *testing.T) {
	db := NewMemory()
	if _, err := db.Exec("CREATE TABLE t (a integer, b integer)"); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for k := 0; k < 10000; k++ {
		rows = append(rows, Row{value.NewInt(int64(k)), value.NewInt(int64(k % 7))})
	}
	if _, err := db.InsertRows("t", []string{"a", "b"}, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b"); err != nil {
		t.Fatal(err)
	}
	entries, bytes := db.env.cache.stats()
	if entries == 0 || bytes == 0 {
		t.Fatalf("expected cached vectors after a vectorized query, got entries=%d bytes=%d", entries, bytes)
	}
	// Shrink below the current footprint: immediate eviction.
	db.ColumnCacheLimit(bytes / 2)
	if _, nb := db.env.cache.stats(); nb > bytes/2 {
		t.Fatalf("cache holds %d bytes after limit set to %d", nb, bytes/2)
	}
	db.ColumnCacheLimit(colCacheDefaultBytes)
	if _, err := db.Exec("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b"); err != nil {
		t.Fatal(err)
	}
	// DROP TABLE must evict the table's vectors outright.
	if _, err := db.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if entries, _ := db.env.cache.stats(); entries != 0 {
		t.Fatalf("cache still holds %d entries after DROP TABLE", entries)
	}
}

// TestColumnCachePutRace exercises first-put-wins: concurrent builders
// of the same vector must converge on one shared copy.
func TestColumnCachePutRace(t *testing.T) {
	c := &colCache{limit: 1 << 20}
	ch := &chunk{resident: [1][]Row{{{value.NewInt(1)}, {value.NewInt(2)}}}}
	var wg sync.WaitGroup
	got := make([]*colVec, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = c.colFor(ch, 0, value.Integer)
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		if got[w] != got[0] {
			t.Fatalf("builder %d got a different vector than builder 0", w)
		}
	}
	if entries, _ := c.stats(); entries != 1 {
		t.Fatalf("expected 1 cache entry, got %d", entries)
	}
}

// TestVectorConcurrentReaders stress-builds the column cache from many
// readers while bulk imports publish new snapshots — the -race CI job
// runs this with the detector on.
func TestVectorConcurrentReaders(t *testing.T) {
	db := NewMemory()
	if _, err := db.Exec("CREATE TABLE r (g string, v integer)"); err != nil {
		t.Fatal(err)
	}
	db.ColumnCacheLimit(1 << 20) // force eviction churn too
	cols := []string{"g", "v"}
	batch := func(base int) []Row {
		rows := make([]Row, 2000)
		for k := range rows {
			rows[k] = Row{value.NewString(fmt.Sprintf("g%d", (base+k)%11)), value.NewInt(int64(k))}
		}
		return rows
	}
	if _, err := db.InsertRows("r", cols, batch(0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				if _, err := db.Exec("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 1; i <= 8; i++ {
		if _, err := db.InsertRows("r", cols, batch(i)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	res, err := db.Exec("SELECT COUNT(*) FROM r WHERE v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 9*2000 {
		t.Fatalf("COUNT(*) = %d, want %d", n, 9*2000)
	}
}

// TestTopKIndices compares the bounded heap against a full stable sort
// across sizes and heavy ties; the kept prefix must be identical,
// including tie order.
func TestTopKIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(7) // many duplicates → ties matter
		}
		less := func(a, b int) bool { return vals[a] < vals[b] }
		full := make([]int, n)
		for i := range full {
			full[i] = i
		}
		sort.SliceStable(full, func(a, b int) bool { return less(full[a], full[b]) })
		for _, k := range []int{0, 1, 2, n / 2, n, n + 3} {
			got := topKIndices(n, k, less)
			want := full
			if k < n {
				want = full[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d indexes, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: index %d = %d, want %d (vals=%v)", n, k, i, got[i], want[i], vals)
				}
			}
		}
	}
}

// TestVectorExplain checks the plan labels: [vectorized]/[morsels=N]
// on qualifying statements, the classic fused line otherwise (a WHERE
// that can fail), and [topk k=N] on ORDER BY ... LIMIT.
func TestVectorExplain(t *testing.T) {
	db := NewMemory()
	if _, err := db.Exec("CREATE TABLE e (g string, v integer)"); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for k := 0; k < 2*vecMorselRows; k++ {
		rows = append(rows, Row{value.NewString("g"), value.NewInt(int64(k))})
	}
	if _, err := db.InsertRows("e", []string{"g", "v"}, rows); err != nil {
		t.Fatal(err)
	}
	plan := func(sql string) string {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return fmtResult(res)
	}
	vec := plan("EXPLAIN SELECT g, COUNT(*) FROM e GROUP BY g")
	if !strings.Contains(vec, "[vectorized]") || !strings.Contains(vec, "[morsels=2]") {
		t.Errorf("vectorized plan missing labels:\n%s", vec)
	}
	like := plan("EXPLAIN SELECT g FROM e WHERE g LIKE 'g%'")
	if !strings.Contains(like, "[vectorized]") {
		t.Errorf("LIKE filter must run in the batch:\n%s", like)
	}
	row := plan("EXPLAIN SELECT g FROM e WHERE v / 2 > 1")
	if strings.Contains(row, "[vectorized]") {
		t.Errorf("a filter that can fail must stay on the row engine:\n%s", row)
	}
	topk := plan("EXPLAIN SELECT v FROM e WHERE v > 3 ORDER BY v LIMIT 5 OFFSET 2")
	if !strings.Contains(topk, "[topk k=7]") {
		t.Errorf("plan missing [topk k=7]:\n%s", topk)
	}
	db.SetVectorized(false)
	off := plan("EXPLAIN SELECT g, COUNT(*) FROM e GROUP BY g")
	if strings.Contains(off, "[vectorized]") {
		t.Errorf("disabled path still labelled vectorized:\n%s", off)
	}
}

// TestSupersededVectorsAreDropped: a vector lives as long as its chunk
// is in the table's published version. A table rewritten a thousand
// times between vectorized scans holds the vectors of its current
// chunks and nothing else — the cache does not grow — while a Snapshot
// pinned before the rewrites still answers from its own rows, rebuilding
// on a miss. Chunks merged away by compaction go the same way.
func TestSupersededVectorsAreDropped(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer, b float)")
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(i)), value.NewFloat(float64(i))}
	}
	if _, err := db.InsertRows("t", []string{"a", "b"}, rows); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*), SUM(a), SUM(b) FROM t WHERE a >= 0"
	scan := func(qr Querier) (int64, int64) {
		t.Helper()
		res, err := qr.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int(), res.Rows[0][1].Int()
	}
	scan(db)
	pinned := db.Snapshot()
	entries0, bytes0 := db.env.cache.stats()
	if entries0 == 0 {
		t.Fatal("the query did not take the vector path")
	}
	for i := 1; i <= 1000; i++ {
		mustExec(t, db, "UPDATE t SET a = a + 1 WHERE a >= 0")
		if n, sum := scan(db); n != 1000 || sum != int64(499500+1000*i) {
			t.Fatalf("after %d updates: count=%d sum=%d", i, n, sum)
		}
		if entries, nbytes := db.env.cache.stats(); entries != entries0 || nbytes != bytes0 {
			t.Fatalf("after %d updates the cache holds %d vectors / %d bytes, want a flat %d / %d",
				i, entries, nbytes, entries0, bytes0)
		}
	}
	if n, sum := scan(pinned); n != 1000 || sum != 499500 {
		t.Fatalf("pinned snapshot reads count=%d sum=%d, want its own 1000 rows summing to 499500", n, sum)
	}

	// Single-row inserts: compaction keeps merging the tail chunks, and
	// the merged-away chunks' vectors must go with them.
	mustExec(t, db, "DELETE FROM t")
	if entries, _ := db.env.cache.stats(); entries != 2 { // the pinned snapshot's rebuilt pair
		t.Fatalf("after DELETE the cache holds %d vectors, want only the pinned snapshot's 2", entries)
	}
	for i := 0; i < 2000; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i))
		scan(db)
	}
	chunks := len(db.state.Load().cat.get("t").builtChunks())
	if entries, _ := db.env.cache.stats(); entries > 2*chunks+2 {
		t.Fatalf("after 2000 inserts the cache holds %d vectors for %d live chunks", entries, chunks)
	}
	mustExec(t, db, "DROP TABLE t")
	if entries, _ := db.env.cache.stats(); entries != 2 {
		t.Fatalf("after DROP TABLE the cache holds %d vectors, want only the pinned snapshot's 2", entries)
	}
}

// TestSupersededKeepsUntouchedChunks: a DELETE or UPDATE replaces only
// the chunks holding a row it matched. The version it publishes holds
// the parent version's other chunk objects, their vectors stay cached —
// the cache loses the changed chunk's entries and no more — the table
// reads back as before with only the matched rows changed, in the same
// order, an index finds rows past a deleted one at their new ordinals,
// and a Snapshot pinned before reads its own rows.
func TestSupersededKeepsUntouchedChunks(t *testing.T) {
	const per = 600 // above maxCompactChunk: each batch stays its own chunk
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer, b float)")
	mustExec(t, db, "CREATE INDEX ON t (a)")
	var want []Row
	for c := 0; c < 3; c++ {
		rows := make([]Row, per)
		for i := range rows {
			a := int64(c*per + i)
			rows[i] = Row{value.NewInt(a), value.NewFloat(float64(a) / 2)}
		}
		if _, err := db.InsertRows("t", []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
		want = append(want, rows...)
	}
	const q = "SELECT COUNT(*), SUM(a), SUM(b) FROM t WHERE a >= 0"
	chunks := func() []*chunk { return db.state.Load().cat.get("t").builtChunks() }
	entries := func() int { n, _ := db.env.cache.stats(); return n }
	check := func(stmt string, changed int) {
		t.Helper()
		mustExec(t, db, q) // caches 2 vectors per chunk
		was, before := chunks(), entries()
		if len(was) != 3 || before != 2*len(was) {
			t.Fatalf("before %s: %d chunks, %d cached vectors, want 3 and 6", stmt, len(was), before)
		}
		mustExec(t, db, stmt)
		now := chunks()
		for i := range was {
			if kept := i < len(now) && now[i] == was[i]; kept != (i != changed) {
				t.Errorf("after %s chunk %d kept=%v, want only chunk %d replaced", stmt, i, kept, changed)
			}
		}
		if got := entries(); got != before-2 {
			t.Errorf("after %s the cache holds %d vectors, want %d: only the changed chunk's 2 go", stmt, got, before-2)
		}
		got := mustExec(t, db, "SELECT a, b FROM t").Rows
		if len(got) != len(want) {
			t.Fatalf("after %s: %d rows, want %d", stmt, len(got), len(want))
		}
		for i := range want {
			if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
				t.Fatalf("after %s row %d = %v, want %v", stmt, i, got[i], want[i])
			}
		}
	}

	pinned := db.Snapshot()
	want = append(want[:700:700], want[701:]...)
	check("DELETE FROM t WHERE a = 700", 1)
	for _, a := range []int64{699, 701, 1500} {
		res := mustExec(t, db, fmt.Sprintf("SELECT b FROM t WHERE a = %d", a))
		if len(res.Rows) != 1 || res.Rows[0][0].Float() != float64(a)/2 {
			t.Errorf("index lookup of a = %d after the DELETE = %v", a, res.Rows)
		}
	}
	want[1499] = Row{value.NewInt(1500), value.NewFloat(-1)}
	check("UPDATE t SET b = -1 WHERE a = 1500", 2)
	if got := mustExec(t, pinned, q).Rows[0]; got[0].Int() != 3*per || got[1].Int() != 3*per*(3*per-1)/2 {
		t.Errorf("pinned snapshot reads count=%v sum=%v, want its own %d rows", got[0], got[1], 3*per)
	}

	// A chunk the DELETE empties goes; the others stay.
	was := chunks()
	mustExec(t, db, "DELETE FROM t WHERE a < 600")
	if now := chunks(); len(now) != 2 || now[0] != was[1] || now[1] != was[2] {
		t.Errorf("after emptying the first chunk the version holds %d chunks, want the other 2 as they were", len(now))
	}
}

// TestSupersededRenameKeepsVectors: ALTER TABLE … RENAME TO publishes
// the table's chunk objects under the new name, so their vectors stay
// cached, autocommit or inside a transaction that also writes another
// table; a DROP in such a transaction still evicts the dropped table's.
func TestSupersededRenameKeepsVectors(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (a integer, b float)")
	mustExec(t, db, "CREATE TABLE other (x integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)")
	entries := func() int { n, _ := db.env.cache.stats(); return n }
	mustExec(t, db, "SELECT SUM(a), SUM(b) FROM t WHERE a > 0")
	before := entries()
	if before == 0 {
		t.Fatal("the query did not take the vector path")
	}
	mustExec(t, db, "ALTER TABLE t RENAME TO u")
	if got := entries(); got != before {
		t.Fatalf("after RENAME the cache holds %d vectors, want %d", got, before)
	}
	if got := mustExec(t, db, "SELECT SUM(a), SUM(b) FROM u WHERE a > 0").Rows[0]; got[0].Int() != 6 || got[1].Float() != 4.5 {
		t.Fatalf("renamed table reads %v", got)
	}
	if got := entries(); got != before {
		t.Fatalf("reading the renamed table rebuilt vectors: %d cached, want %d", got, before)
	}

	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "ALTER TABLE u RENAME TO v", "INSERT INTO other VALUES (1)", "COMMIT"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := entries(); got != before {
		t.Fatalf("after RENAME in a transaction the cache holds %d vectors, want %d", got, before)
	}
	for _, sql := range []string{"BEGIN", "DROP TABLE v", "INSERT INTO other VALUES (2)", "COMMIT"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := entries(); got != 0 {
		t.Fatalf("after DROP in a transaction the cache holds %d vectors, want 0", got)
	}
}

// TestSupersededBlockVectorsAreDropped: a block-resident chunk's vectors
// are cached one per morsel-sized block, not one per chunk, and a rewrite
// of the table has to find those too — every block of every column the
// scan touched, including the short last one.
func TestSupersededBlockVectorsAreDropped(t *testing.T) {
	const nrows = 2*vecMorselRows + 100
	db := blockTestDB(t, t.TempDir(), nrows)
	defer db.Close()
	const q = "SELECT COUNT(*), SUM(k), SUM(f) FROM bench WHERE k >= 0"
	mustExec(t, db, q)
	if scanned, _ := db.BlockStats(); scanned != 3 {
		t.Fatalf("the scan decoded %d blocks, want 3: the chunk is not block-resident", scanned)
	}
	if entries, _ := db.env.cache.stats(); entries != 3*2 {
		t.Fatalf("the scan cached %d vectors, want 2 columns x 3 blocks", entries)
	}
	pinned := db.Snapshot()
	mustExec(t, db, "UPDATE bench SET k = k + 1 WHERE k = 0")
	if entries, nbytes := db.env.cache.stats(); entries != 0 || nbytes != 0 {
		t.Fatalf("after the rewrite the cache still holds %d vectors / %d bytes of the old chunk", entries, nbytes)
	}
	if got := mustExec(t, db, q).Rows[0][1].Int(); got != int64(nrows*(nrows-1)/2+1) {
		t.Fatalf("SUM(k) after the update = %d", got)
	}
	if got := mustExec(t, pinned, q).Rows[0][1].Int(); got != int64(nrows*(nrows-1)/2) {
		t.Fatalf("pinned SUM(k) = %d, want the old rows'", got)
	}

	// A freshly opened table whose blocks pass their zone check but hold
	// no matching row has vectors cached and no rows: it is still cold,
	// and superseding it has to find those vectors all the same.
	for _, stmt := range []string{"DROP TABLE bench", "UPDATE bench SET k = k + 1 WHERE k = 0"} {
		dir := t.TempDir()
		if err := blockTestDB(t, dir, nrows).Close(); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		// f is a multiple of 0.5 inside every block's range.
		if got := mustExec(t, db, "SELECT COUNT(*), SUM(k) FROM bench WHERE f = 120.25").Rows[0][0].Int(); got != 0 {
			t.Fatalf("f = 120.25 matched %d rows", got)
		}
		entries, _ := db.env.cache.stats()
		if scanned, _ := db.BlockStats(); scanned != 3 || entries != 3*2 || db.env.hydrated.Load() != 0 {
			t.Fatalf("the scan decoded %d blocks into %d vectors and hydrated %d tables, want 3, 3 x 2 and none",
				scanned, entries, db.env.hydrated.Load())
		}
		mustExec(t, db, stmt)
		if entries, nbytes := db.env.cache.stats(); entries != 0 || nbytes != 0 {
			t.Errorf("after %s the cache still holds %d vectors / %d bytes of the cold version", stmt, entries, nbytes)
		}
	}
}

// TestVecInListMatchesLinear: the batch path searches an IN list it has
// sorted once. Over random lists with duplicates, NaN, −0 and 0, the
// empty string and NULL items, IN and NOT IN keep the rows the row
// engine's linear scan keeps, on columns that hold all of those and
// NULLs.
func TestVecInListMatchesLinear(t *testing.T) {
	vdb, rdb := vecTestDBs(t, []string{"CREATE TABLE t (i integer, f float, s string)"})
	negZero, nan := math.Copysign(0, -1), math.NaN()
	ints := []int64{-3, 0, 1, 2, 5, 8, 13, 40, 41, 99}
	floats := []float64{negZero, 0, 0.5, -2.5, 3, 8, nan, 1e300, 41}
	strs := []string{"", "a", "b", "ab", "ba", "z", "s7"}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, 3000)
	for k := range rows {
		rows[k] = Row{value.NewInt(ints[rng.Intn(len(ints))]), value.NewFloat(floats[rng.Intn(len(floats))]),
			value.NewString(strs[rng.Intn(len(strs))])}
		if k%11 == 0 {
			rows[k][k%3] = value.Null(rows[k][k%3].Type())
		}
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("t", []string{"i", "f", "s"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	lit := func(col string) string {
		if rng.Intn(12) == 0 {
			return "NULL"
		}
		switch col {
		case "i":
			return fmt.Sprint(ints[rng.Intn(len(ints))] + int64(rng.Intn(3)-1))
		case "f":
			switch f := floats[rng.Intn(len(floats))]; {
			case math.IsNaN(f):
				return "CAST('NaN' AS float)"
			case f == 0 && math.Signbit(f):
				return "-0.0"
			default:
				return value.NewFloat(f).SQL()
			}
		}
		return value.NewString(strs[rng.Intn(len(strs))] + []string{"", "", "b"}[rng.Intn(3)]).SQL()
	}
	if got := fmtResult(mustExec(t, vdb, "EXPLAIN SELECT COUNT(*) FROM t WHERE f IN (-0.0, 3, CAST('NaN' AS float))")); !strings.Contains(got, "[vectorized]") {
		t.Fatalf("an IN list does not take the batch path:\n%s", got)
	}
	for trial := 0; trial < 300; trial++ {
		col := []string{"i", "f", "s"}[trial%3]
		items := make([]string, 1+rng.Intn(40))
		for k := range items {
			items[k] = lit(col)
		}
		not := []string{"", "NOT "}[rng.Intn(2)]
		q := fmt.Sprintf("SELECT COUNT(*), SUM(i), COUNT(s) FROM t WHERE %s %sIN (%s)", col, not, strings.Join(items, ", "))
		if v, r := fmtResult(mustExec(t, vdb, q)), fmtResult(mustExec(t, rdb, q)); v != r {
			t.Fatalf("%s\nbatch path: %srow engine: %s", q, v, r)
		}
	}
}

// TestInListNullItem: an IN list's NULL item never matches, and a value
// that matches no item beside it is NULL, not false — so a WHERE keeps
// no row that `i NOT IN (1, NULL)` or `NOT (i IN (1, NULL))` tests, and
// a projection reads NULL — on the batch path and the row engine alike.
func TestInListNullItem(t *testing.T) {
	vdb, rdb := vecTestDBs(t, []string{
		"CREATE TABLE t (i integer)",
		"INSERT INTO t VALUES (1), (2), (3), (NULL)",
	})
	if p := fmtResult(mustExec(t, vdb, "EXPLAIN SELECT COUNT(*) FROM t WHERE i NOT IN (1, NULL)")); !strings.Contains(p, "[vectorized]") {
		t.Fatalf("NOT IN with a NULL item does not take the batch path:\n%s", p)
	}
	counts := map[string]int64{
		"i NOT IN (1, NULL)":       0,
		"NOT (i NOT IN (1, NULL))": 1,
		"i IN (1, NULL)":           1,
		"NOT (i IN (1, NULL))":     0,
		"i NOT IN (NULL)":          0,
		"i NOT IN (1, 5)":          2,
		"i IN (1, NULL) OR i = 3":  2,
	}
	for _, db := range []*DB{vdb, rdb} {
		for where, want := range counts {
			if got := mustExec(t, db, "SELECT COUNT(*) FROM t WHERE "+where).Rows[0][0].Int(); got != want {
				t.Errorf("vectorized %v: WHERE %s counts %d, want %d", db == vdb, where, got, want)
			}
		}
		res := mustExec(t, db, "SELECT i, i IN (1, NULL), i NOT IN (1, NULL) FROM t")
		for _, row := range res.Rows {
			matched := !row[0].IsNull() && row[0].Int() == 1
			switch {
			case matched && (row[1].IsNull() || !row[1].Bool() || row[2].IsNull() || row[2].Bool()):
				t.Errorf("vectorized %v: 1 IN, NOT IN (1, NULL) = %v, %v, want true, false", db == vdb, row[1], row[2])
			case !matched && (!row[1].IsNull() || !row[2].IsNull()):
				t.Errorf("vectorized %v: %v IN, NOT IN (1, NULL) = %v, %v, want NULL, NULL", db == vdb, row[0], row[1], row[2])
			}
		}
	}
}
