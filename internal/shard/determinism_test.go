package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// The determinism battery re-runs the vectorized-execution test
// shapes through the coordinator and demands byte-identical output
// across shard counts 1, 2, 4 and 8 and across repeated runs. Only
// shapes with a defined output order qualify: every projection
// carries a total-order ORDER BY and every grouped query orders by
// its keys (or by an aggregate alias with a key tiebreaker). Floats
// are dyadic (multiples of 0.25) so partial sums merge exactly and
// SUM/AVG do not depend on the order rows are folded in.
var determinismQueries = []struct {
	sql string
	// pushdown: the coordinator answers from the shards' PARTIAL states;
	// otherwise it gathers the table whole. TestScatterPushdownSet pins it.
	pushdown bool
}{
	{"SELECT COUNT(*) FROM t", true},
	{"SELECT COUNT(*), SUM(i), MIN(i), MAX(i) FROM t", true},
	{"SELECT SUM(f), MIN(f), MAX(f), AVG(f) FROM t", true},
	{"SELECT COUNT(*) FROM t WHERE i > 0 AND b", true},
	{"SELECT COUNT(*), SUM(i) FROM t WHERE i BETWEEN -5 AND 5", true},
	{"SELECT COUNT(*) FROM t WHERE s LIKE 's0%'", true},
	{"SELECT COUNT(*) FROM t WHERE NOT b OR f IS NULL", true},
	{"SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s", true},
	{"SELECT s, COUNT(*) AS n, SUM(i) AS si FROM t GROUP BY s ORDER BY n DESC, s", true},
	{"SELECT s, b, COUNT(*), MIN(f), MAX(f) FROM t GROUP BY s, b ORDER BY s, b", true},
	{"SELECT s, AVG(f) AS af FROM t GROUP BY s HAVING COUNT(*) > 5 ORDER BY s", true},
	{"SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY n DESC, s LIMIT 5", true},
	{"SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY s LIMIT 4 OFFSET 3", true},
	{"SELECT COUNT(*), SUM(i), MIN(i), MAX(i) FROM t WHERE i > 1000", true},
	{"SELECT k, i, f, s FROM t WHERE i > 12 ORDER BY k", true},
	{"SELECT k, i FROM t WHERE i IN (3, 7, 11) ORDER BY k", true},
	{"SELECT DISTINCT s FROM t ORDER BY s", false},
	{"SELECT i, COUNT(*) FROM t WHERE s LIKE 's0%' GROUP BY i ORDER BY i", true},
	{"SELECT COUNT(DISTINCT s) FROM t", false},
	{"SELECT MEDIAN(i) FROM t", false},
	{"SELECT s, SUM(i + 1) FROM t GROUP BY s ORDER BY s", false},
	// What the engine's render does over merged state, and the SQL merge
	// did not: HAVING and ORDER BY over AVG, an expression key.
	{"SELECT s, COUNT(*) FROM t GROUP BY s HAVING AVG(f) > 7.5 ORDER BY s", true},
	{"SELECT s, AVG(f) FROM t GROUP BY s ORDER BY AVG(f) DESC, s", true},
	{"SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY AVG(f) DESC, s LIMIT 3 OFFSET 2", true},
	{"SELECT i % 3 AS m, COUNT(*), AVG(f), MIN(s) FROM t GROUP BY i % 3 ORDER BY m", true},
	// AVG over integers sums floats, on a shard as on one node: past 2^53
	// an integer sum rounds differently, and three of 2^62 wrap it.
	{"SELECT g, COUNT(*), AVG(x) FROM big GROUP BY g ORDER BY g", true},
	{"SELECT AVG(x) FROM big WHERE g = 1", true},
	// No shard has a row: no group, and the one group of an ungrouped
	// aggregate over nothing.
	{"SELECT s, COUNT(*), AVG(f) FROM t WHERE i > 1000 GROUP BY s ORDER BY s", true},
	{"SELECT COUNT(*), COUNT(f), AVG(i), MIN(s), MAX(f) FROM t WHERE i > 1000", true},
	// A window that straddles shards, in both directions.
	{"SELECT k, i FROM t ORDER BY k LIMIT 4 OFFSET 3", true},
	{"SELECT k, i FROM t ORDER BY i DESC, k DESC LIMIT 4 OFFSET 3", true},
	{"SELECT COUNT(*) FROM t a JOIN big ON a.k = big.k", false},
	{"SELECT COUNT(*), MIN(k) FROM t UNION ALL SELECT COUNT(*), MAX(k) FROM big", false},
}

// loadDeterminismData fills table t with the vector-test data shape:
// small ints, dyadic floats (NULL every 7th row instead of NaN, so
// MIN/MAX stay order-independent), a dozen strings, and a boolean.
func loadDeterminismData(t *testing.T, c interface {
	sqldb.Querier
	sqldb.BulkInserter
}) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE big (k integer, g integer, x integer)")
	mustExec(t, c, "INSERT INTO big VALUES (0, 1, 9007199254740993), (1, 1, 9007199254740993), (2, 1, 9007199254740993), "+
		"(3, 2, 4611686018427387904), (4, 2, 4611686018427387904), (5, 2, 4611686018427387904)")
	mustExec(t, c, "CREATE TABLE t (k integer, i integer, f float, s string, b boolean)")
	rng := rand.New(rand.NewSource(7))
	const n = 400
	rows := make([]sqldb.Row, 0, n)
	for k := 0; k < n; k++ {
		i := int64(rng.Intn(40) - 20)
		f := value.NewFloat(float64(rng.Intn(64)) * 0.25)
		if k%7 == 3 {
			f = value.Null(value.Float)
		}
		rows = append(rows, sqldb.Row{
			value.NewInt(int64(k)),
			value.NewInt(i),
			f,
			value.NewString(fmt.Sprintf("s%02d", rng.Intn(12))),
			value.NewBool(k%3 == 0),
		})
	}
	if _, err := c.InsertRows("t", []string{"k", "i", "f", "s", "b"}, rows); err != nil {
		t.Fatalf("InsertRows: %v", err)
	}
}

func runBattery(t *testing.T, c sqldb.Querier) string {
	t.Helper()
	var sb strings.Builder
	for _, q := range determinismQueries {
		res, err := c.Exec(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		sb.WriteString("-- ")
		sb.WriteString(q.sql)
		sb.WriteByte('\n')
		sb.WriteString(dumpResult(res))
	}
	return sb.String()
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestShardDeterminismBattery: same data, same queries, shard counts
// 1/2/4/8, two runs each — every dump must be byte-identical to the
// single-node reference.
func TestShardDeterminismBattery(t *testing.T) {
	ref := NewLocal(1)
	defer ref.Close()
	loadDeterminismData(t, ref)
	want := runBattery(t, ref)
	if again := runBattery(t, ref); again != want {
		t.Fatalf("1-shard battery not stable across runs: %s", firstDiff(want, again))
	}
	for _, n := range []int{2, 4, 8} {
		c := NewLocal(n)
		loadDeterminismData(t, c)
		for run := 0; run < 2; run++ {
			got := runBattery(t, c)
			if got != want {
				c.Close()
				t.Fatalf("%d-shard run %d diverges from single node: %s", n, run, firstDiff(want, got))
			}
		}
		c.Close()
	}
}

// TestScatterPushdownSet pins which battery shapes the coordinator
// answers from PARTIAL states, so the set cannot shrink unnoticed, and
// that a cluster's answers are those of one plain database holding all
// the rows — not merely those of a one-shard cluster, which merges too.
func TestScatterPushdownSet(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	loadDeterminismData(t, db)
	c := NewLocal(4)
	defer c.Close()
	loadDeterminismData(t, c)
	if want, got := runBattery(t, db), runBattery(t, c); got != want {
		t.Errorf("4 shards diverge from a plain database: %s", firstDiff(want, got))
	}
	for _, q := range determinismQueries {
		st, err := sqldb.Parse(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqldb.SelectStmt)
		ok := false
		if tables := sqldb.ReferencedTables(sel); len(tables) == 1 {
			sch, _ := c.schema(tables[0], nil)
			_, ok = sqldb.PlanDistributedSelect(sel, sch)
		}
		if ok != q.pushdown {
			t.Errorf("%s: pushdown = %v, want %v", q.sql, ok, q.pushdown)
		}
	}
}

// fakeShard answers PARTIAL statements itself: a shard of another build.
type fakeShard struct {
	Backend
	partial func(real *sqldb.Result) (*sqldb.Result, error)
}

func (f fakeShard) Exec(sql string) (*sqldb.Result, error) {
	res, err := f.Backend.Exec(sql)
	if err == nil && strings.HasPrefix(sql, "PARTIAL ") {
		return f.partial(res)
	}
	return res, err
}

// TestScatterRejectsMalformedState: a shard's state comes from outside
// the process. One that does not fit the plan fails the query with a
// typed error naming the shard — no panic, no wrong fold — and a shard
// that predates PARTIAL answers with its syntax error, which comes back
// as it is.
func TestScatterRejectsMalformedState(t *testing.T) {
	const grouped, plain = "SELECT g, COUNT(*), SUM(v) FROM m GROUP BY g ORDER BY g", "SELECT k, v FROM m ORDER BY v LIMIT 3"
	// edit returns a deep enough copy of res for cell to be rewritten.
	edit := func(res *sqldb.Result, cell func(cols sqldb.Schema, row sqldb.Row) sqldb.Row) *sqldb.Result {
		out := &sqldb.Result{Columns: append(sqldb.Schema(nil), res.Columns...)}
		for _, row := range res.Rows {
			out.Rows = append(out.Rows, cell(out.Columns, append(sqldb.Row(nil), row...)))
		}
		return out
	}
	errOld := errors.New(`sqldb: unsupported statement starting with "PARTIAL"`)
	for _, tc := range []struct {
		name, sql string
		partial   func(*sqldb.Result) (*sqldb.Result, error)
		want      error
	}{
		{"short row", grouped, func(res *sqldb.Result) (*sqldb.Result, error) {
			return edit(res, func(_ sqldb.Schema, row sqldb.Row) sqldb.Row { return row[:len(row)-1] }), nil
		}, sqldb.ErrPartialState},
		{"short row, ungrouped", plain, func(res *sqldb.Result) (*sqldb.Result, error) {
			return edit(res, func(_ sqldb.Schema, row sqldb.Row) sqldb.Row { return row[:1] }), nil
		}, sqldb.ErrPartialState},
		{"missing column", grouped, func(res *sqldb.Result) (*sqldb.Result, error) {
			out := edit(res, func(_ sqldb.Schema, row sqldb.Row) sqldb.Row { return row[:len(row)-4] })
			out.Columns = out.Columns[:len(out.Columns)-4]
			return out, nil
		}, sqldb.ErrPartialState},
		{"wrong column type", grouped, func(res *sqldb.Result) (*sqldb.Result, error) {
			return edit(res, func(cols sqldb.Schema, row sqldb.Row) sqldb.Row {
				cols[len(cols)-2].Type = value.Integer // the float sum
				return row
			}), nil
		}, sqldb.ErrPartialState},
		{"wrong cell type", grouped, func(res *sqldb.Result) (*sqldb.Result, error) {
			return edit(res, func(_ sqldb.Schema, row sqldb.Row) sqldb.Row {
				row[len(row)-3] = value.NewString("7") // the integer sum
				return row
			}), nil
		}, sqldb.ErrPartialState},
		{"NULL counter", grouped, func(res *sqldb.Result) (*sqldb.Result, error) {
			return edit(res, func(_ sqldb.Schema, row sqldb.Row) sqldb.Row {
				row[3] = value.Null(value.Integer) // the group's row count, after m's three columns
				return row
			}), nil
		}, sqldb.ErrPartialState},
		{"n < 0", grouped, func(res *sqldb.Result) (*sqldb.Result, error) {
			return edit(res, func(_ sqldb.Schema, row sqldb.Row) sqldb.Row {
				row[len(row)-4] = value.NewInt(-1) // SUM's input count
				return row
			}), nil
		}, sqldb.ErrPartialState},
		{"no answer", grouped, func(*sqldb.Result) (*sqldb.Result, error) { return nil, nil }, sqldb.ErrPartialState},
		{"a shard that predates PARTIAL", grouped, func(*sqldb.Result) (*sqldb.Result, error) { return nil, errOld }, errOld},
	} {
		c, err := New([]Backend{Local(sqldb.NewMemory()), fakeShard{Local(sqldb.NewMemory()), tc.partial}})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, c, "CREATE TABLE m (k integer, g integer, v integer)")
		mustExec(t, c, "INSERT INTO m VALUES (1, 1, 10), (2, 2, 20), (3, 1, 30), (4, 2, 40), (5, 1, 50), (6, 3, 60)")
		res, err := c.Exec(tc.sql)
		if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), "shard 1: ") {
			t.Errorf("%s: got %v, %v; want shard 1's %v", tc.name, res, err, tc.want)
		}
		c.Close()
	}
}

// TestShardDeterminismUnderLatency injects sleep latency at the
// scatter site so partial results arrive in a scrambled wall-clock
// order; the merged output must not change, because merge order is
// shard-index order, never arrival order.
func TestShardDeterminismUnderLatency(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	loadDeterminismData(t, c)
	want := runBattery(t, c)
	if err := failpoint.Enable("shard/scatter", "sleep(2ms)"); err != nil {
		t.Fatalf("enable failpoint: %v", err)
	}
	defer failpoint.DisableAll()
	got := runBattery(t, c)
	if got != want {
		t.Fatalf("scatter latency changed query output: %s", firstDiff(want, got))
	}
}

// TestShardConcurrentCommitters stresses the two-phase commit path
// under the race detector: several goroutines commit cross-shard
// transactions against the same table, retrying on the typed
// conflict (which blind inserts no longer meet —
// TestConcurrentCrossShardCommits is the test that forbids it). Every
// committed transaction must land both its rows.
func TestShardConcurrentCommitters(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE race (k integer, g integer, seq integer)")

	const goroutines = 6
	txns := 20
	if testing.Short() {
		txns = 8
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := c.NewSession()
			defer s.Close()
			for seq := 0; seq < txns; seq++ {
				// Two inserts whose keys land on different shards
				// (consecutive ints rarely hash together on all 4),
				// so most commits take the 2PC path and append to
				// the marker table side by side.
				k1 := g*100000 + seq*2
				k2 := k1 + 1
				for {
					if _, err := s.Exec("BEGIN"); err != nil {
						t.Errorf("g%d BEGIN: %v", g, err)
						return
					}
					_, err := s.Exec(fmt.Sprintf("INSERT INTO race VALUES (%d, %d, %d)", k1, g, seq))
					if err == nil {
						_, err = s.Exec(fmt.Sprintf("INSERT INTO race VALUES (%d, %d, %d)", k2, g, seq))
					}
					if err != nil {
						s.Exec("ROLLBACK") //nolint:errcheck
					} else {
						_, err = s.Exec("COMMIT")
						if err == nil {
							break
						}
					}
					if !errors.Is(err, sqldb.ErrTxnConflict) {
						t.Errorf("g%d seq %d: unexpected error: %v", g, seq, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	res := mustExec(t, c, "SELECT COUNT(*) FROM race")
	if got := dumpResult(res); !strings.Contains(got, fmt.Sprintf("%d", 2*goroutines*txns)) {
		t.Fatalf("expected %d rows, got dump:\n%s", 2*goroutines*txns, got)
	}
	pairs := mustExec(t, c, "SELECT g, seq, COUNT(*) AS n FROM race GROUP BY g, seq ORDER BY g, seq")
	if len(pairs.Rows) != goroutines*txns {
		t.Fatalf("expected %d (g,seq) groups, got %d", goroutines*txns, len(pairs.Rows))
	}
	for _, row := range pairs.Rows {
		if row[2].SQL() != "2" {
			t.Fatalf("torn transaction: group %s,%s has %s rows", row[0].SQL(), row[1].SQL(), row[2].SQL())
		}
	}
}

// TestConcurrentCrossShardCommits: multi-shard transactions commute
// unless they read or rewrite something in common, so a fleet of them
// must go through with no conflict at all — no retry loop here, unlike
// TestShardConcurrentCommitters. Each goroutine alternates two-phase
// commits that insert into one shared table with the atomic DDL
// broadcasts parquery's parallel elements issue (CREATE TABLE ... AS
// over the shared source table, then DROP), every one of which writes
// the _shard_txns marker on every shard. The outcome must equal the
// same work done by one goroutine after the other.
func TestConcurrentCrossShardCommits(t *testing.T) {
	const goroutines, txns = 6, 12
	work := func(t *testing.T, c *Cluster, g int) {
		s := c.NewSession()
		defer s.Close()
		for seq := range txns {
			for _, sql := range []string{
				"BEGIN",
				fmt.Sprintf("INSERT INTO race VALUES (%d, %d, %d), (%d, %d, %d)", g*1000+seq*3, g, seq, g*1000+seq*3+1, g, seq),
				fmt.Sprintf("INSERT INTO race VALUES (%d, %d, %d)", g*1000+seq*3+2, g, seq),
				"COMMIT",
			} {
				if _, err := s.Exec(sql); err != nil {
					t.Errorf("g%d seq %d: %s: %v", g, seq, sql, err)
					return
				}
			}
			vec := fmt.Sprintf("vec_%d_%d", g, seq)
			for _, sql := range []string{
				fmt.Sprintf("CREATE TABLE %s AS SELECT k, v FROM src WHERE v >= %d", vec, seq),
				fmt.Sprintf("INSERT INTO sums SELECT %d, COUNT(*), SUM(v) FROM %s", g*1000+seq, vec),
				"DROP TABLE " + vec,
			} {
				if _, err := c.Exec(sql); err != nil {
					t.Errorf("g%d seq %d: %s: %v", g, seq, sql, err)
					return
				}
			}
		}
	}
	run := func(t *testing.T, concurrent bool) string {
		c := NewLocal(4)
		defer c.Close()
		mustExec(t, c, "CREATE TABLE race (k integer, g integer, seq integer)")
		mustExec(t, c, "CREATE TABLE sums (id integer, n integer, total integer)")
		mustExec(t, c, "CREATE TABLE src (k integer, v integer)")
		for k := range 40 {
			mustExec(t, c, fmt.Sprintf("INSERT INTO src VALUES (%d, %d)", k, k%txns))
		}
		var wg sync.WaitGroup
		for g := range goroutines {
			if !concurrent {
				work(t, c, g)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(t, c, g)
			}()
		}
		wg.Wait()
		var sb strings.Builder
		for _, q := range []string{
			"SELECT k, g, seq FROM race ORDER BY k",
			"SELECT id, n, total FROM sums ORDER BY id",
			"SELECT COUNT(*) FROM src",
		} {
			sb.WriteString(dumpResult(mustExec(t, c, q)))
		}
		for i := range c.NumShards() {
			for _, name := range c.Shard(i).(schemaReader).Tables() {
				if strings.HasPrefix(name, "vec_") {
					t.Errorf("shard %d still holds %s", i, name)
				}
			}
		}
		return sb.String()
	}
	want := run(t, false)
	if t.Failed() {
		t.Fatal("sequential run failed")
	}
	if n := strings.Count(want, "\n"); n < goroutines*txns*4 {
		t.Fatalf("sequential run produced %d lines, want at least %d", n, goroutines*txns*4)
	}
	if got := run(t, true); !t.Failed() && got != want {
		t.Fatalf("concurrent run diverges from sequential: %s", firstDiff(want, got))
	}
}
