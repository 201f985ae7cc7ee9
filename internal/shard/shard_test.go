package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

func mustExec(t *testing.T, q sqldb.Querier, sql string) *sqldb.Result {
	t.Helper()
	res, err := q.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// dumpQuery renders a result for comparison.
func dumpResult(res *sqldb.Result) string {
	var sb strings.Builder
	for _, c := range res.Columns {
		sb.WriteString(c.Name)
		sb.WriteByte('|')
		sb.WriteString(c.Type.String())
		sb.WriteByte('\t')
	}
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for _, v := range row {
			sb.WriteString(v.SQL())
			sb.WriteByte('\t')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestDDLBroadcast(t *testing.T) {
	c := NewLocal(3)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v string)")
	for i := 0; i < 3; i++ {
		if _, ok := c.Shard(i).(schemaReader).TableSchema("m"); !ok {
			t.Fatalf("shard %d missing table after DDL broadcast", i)
		}
	}
	mustExec(t, c, "DROP TABLE m")
	for i := 0; i < 3; i++ {
		if _, ok := c.Shard(i).(schemaReader).TableSchema("m"); ok {
			t.Fatalf("shard %d still has table after DROP broadcast", i)
		}
	}
}

func TestInsertPartitioning(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	for i := 0; i < 64; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, %d)", i, i*10))
	}
	// Every row landed somewhere, and the shards partition the keyspace.
	total, populated := 0, 0
	for i := 0; i < 4; i++ {
		res := mustExec(t, c.Shard(i), "SELECT COUNT(*) FROM m")
		n := int(res.Rows[0][0].Int())
		total += n
		if n > 0 {
			populated++
		}
	}
	if total != 64 {
		t.Fatalf("rows across shards = %d, want 64", total)
	}
	if populated < 2 {
		t.Fatalf("only %d shards populated; hash partitioning is not spreading", populated)
	}
	// The same key always routes to the same shard.
	a, err := c.shardFor("m", value.NewInt(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.shardFor("m", value.NewFloat(7), nil) // 7.0 coerces to integer 7
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("spellings of key 7 hash to different shards: %d vs %d", a, b)
	}
}

func TestKeyRoutedStatements(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	mustExec(t, c, "INSERT INTO m (k, v) VALUES (1, 10), (2, 20), (3, 30)")

	res := mustExec(t, c, "SELECT v FROM m WHERE k = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("key-routed SELECT: %v", res.Rows)
	}
	if res := mustExec(t, c, "UPDATE m SET v = 21 WHERE k = 2"); res.Affected != 1 {
		t.Fatalf("key-routed UPDATE affected %d", res.Affected)
	}
	if res := mustExec(t, c, "DELETE FROM m WHERE k = 3"); res.Affected != 1 {
		t.Fatalf("key-routed DELETE affected %d", res.Affected)
	}
	res = mustExec(t, c, "SELECT k, v FROM m ORDER BY k")
	want := [][2]int64{{1, 10}, {2, 21}}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].Int() != w[0] || res.Rows[i][1].Int() != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}

	// Changing the partition key is rejected: rows never migrate.
	if _, err := c.Exec("UPDATE m SET k = 9 WHERE k = 1"); err == nil {
		t.Fatal("UPDATE of partition key succeeded")
	}
}

func TestBroadcastWriteIsAtomic(t *testing.T) {
	c := NewLocal(3)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	for i := 0; i < 30; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 0)", i))
	}
	if res := mustExec(t, c, "UPDATE m SET v = 1"); res.Affected != 30 {
		t.Fatalf("broadcast UPDATE affected %d, want 30", res.Affected)
	}
	res := mustExec(t, c, "SELECT SUM(v) FROM m")
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("SUM(v) = %v, want 30", res.Rows[0][0])
	}
}

// TestScatterGatherMatchesSingleNode is the core equivalence check:
// the same data and queries on a 1-shard and a 4-shard cluster give
// byte-identical results.
func TestScatterGatherMatchesSingleNode(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM m",
		"SELECT COUNT(v), SUM(v), MIN(v), MAX(v) FROM m",
		"SELECT AVG(f) FROM m",
		"SELECT g, COUNT(*), SUM(v), AVG(f) FROM m GROUP BY g ORDER BY g",
		"SELECT g, SUM(v) AS s FROM m WHERE v > 50 GROUP BY g ORDER BY s DESC, g",
		"SELECT k, v FROM m ORDER BY v DESC, k LIMIT 5",
		"SELECT k, v FROM m ORDER BY k LIMIT 4 OFFSET 3",
		"SELECT m.g, n.name, SUM(m.v) FROM m JOIN n ON m.g = n.g GROUP BY m.g, n.name ORDER BY m.g",
		"SELECT DISTINCT g FROM m ORDER BY g",
		"SELECT COUNT(*) FROM m WHERE f IS NULL",
	}
	var dumps [2][]string
	for ci, nsh := range []int{1, 4} {
		c := NewLocal(nsh)
		mustExec(t, c, "CREATE TABLE m (k integer, g integer, v integer, f float)")
		mustExec(t, c, "CREATE TABLE n (g integer, name string)")
		for g := 0; g < 3; g++ {
			mustExec(t, c, fmt.Sprintf("INSERT INTO n (g, name) VALUES (%d, 'grp%d')", g, g))
		}
		for i := 0; i < 97; i++ {
			f := "NULL"
			if i%7 != 0 {
				// Dyadic rationals: float sums are order-independent.
				f = fmt.Sprintf("%g", float64(i%64)*0.25)
			}
			mustExec(t, c, fmt.Sprintf("INSERT INTO m (k, g, v, f) VALUES (%d, %d, %d, %s)", i, i%3, i*3%101, f))
		}
		for _, q := range queries {
			res, err := c.Exec(q)
			if err != nil {
				t.Fatalf("%d shards: %s: %v", nsh, q, err)
			}
			dumps[ci] = append(dumps[ci], dumpResult(res))
		}
		c.Close()
	}
	for i, q := range queries {
		if dumps[0][i] != dumps[1][i] {
			t.Errorf("%s:\n1 shard:\n%s\n4 shards:\n%s", q, dumps[0][i], dumps[1][i])
		}
	}
}

func TestCrossShardTxnAtomicity(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")

	// Find two keys on different shards.
	k1, k2 := int64(0), int64(-1)
	s1, _ := c.shardFor("m", value.NewInt(k1), nil)
	for k := int64(1); k < 64; k++ {
		if s, _ := c.shardFor("m", value.NewInt(k), nil); s != s1 {
			k2 = k
			break
		}
	}
	if k2 < 0 {
		t.Fatal("no second shard found")
	}

	s := c.NewSession()
	defer s.Close()
	mustExecS(t, s, "BEGIN")
	mustExecS(t, s, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 1)", k1))
	mustExecS(t, s, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 2)", k2))
	// Nothing visible before commit.
	if res := mustExec(t, c, "SELECT COUNT(*) FROM m"); res.Rows[0][0].Int() != 0 {
		t.Fatalf("uncommitted rows visible: %v", res.Rows)
	}
	mustExecS(t, s, "COMMIT")
	if res := mustExec(t, c, "SELECT COUNT(*) FROM m"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("committed rows = %v, want 2", res.Rows[0][0])
	}

	// Rollback leaves nothing.
	s2 := c.NewSession()
	defer s2.Close()
	mustExecS(t, s2, "BEGIN")
	mustExecS(t, s2, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 3)", k1+100))
	mustExecS(t, s2, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 4)", k2+100))
	mustExecS(t, s2, "ROLLBACK")
	if res := mustExec(t, c, "SELECT COUNT(*) FROM m"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("rolled-back rows leaked: %v", res.Rows[0][0])
	}
}

func TestCrossShardConflictIsTyped(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	mustExec(t, c, "INSERT INTO m (k, v) VALUES (1, 10), (2, 20), (3, 30), (4, 40)")

	s1 := c.NewSession()
	defer s1.Close()
	mustExecS(t, s1, "BEGIN")
	// Read everywhere, write everywhere: footprint covers table m on
	// both shards.
	mustExecS(t, s1, "SELECT SUM(v) FROM m")
	mustExecS(t, s1, "UPDATE m SET v = v + 1")

	// A concurrent autocommit write invalidates s1's reads.
	mustExec(t, c, "INSERT INTO m (k, v) VALUES (5, 50)")

	if _, err := s1.Exec("COMMIT"); !errors.Is(err, sqldb.ErrTxnConflict) {
		t.Fatalf("cross-shard conflicting COMMIT: err=%v, want ErrTxnConflict", err)
	}
	// The failed transaction left no partial writes on any shard.
	res := mustExec(t, c, "SELECT SUM(v) FROM m")
	if res.Rows[0][0].Int() != 150 {
		t.Fatalf("SUM(v) = %v, want 150 (10+20+30+40+50)", res.Rows[0][0])
	}
}

func TestClusterOverWire(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	srv := wire.NewBackendServer(c)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec("CREATE TABLE m (k integer, v integer)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO m (k, v) VALUES (1, 10), (2, 20), (3, 30)"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec("SELECT SUM(v) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 60 {
		t.Fatalf("SUM over wire = %v, want 60", res.Rows[0][0])
	}
	// Transactions work across the wire too (per-connection session).
	err = cl.RunTxn(func(c *wire.Client) error {
		for k := 10; k < 14; k++ {
			if _, err := c.Exec(fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 1)", k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = cl.Exec("SELECT COUNT(*) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 7 {
		t.Fatalf("COUNT over wire = %v, want 7", res.Rows[0][0])
	}
	// Status works against a coordinator (no WAL policy to report).
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" {
		t.Fatalf("role = %q, want coordinator", st.Role)
	}
}

func TestRemoteShardBackends(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		db := sqldb.NewMemory()
		srv := wire.NewServer(db)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	shards := make([]Backend, len(addrs))
	for i, a := range addrs {
		b, err := Remote(a)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = b
	}
	c, err := New(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	for i := 0; i < 20; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, %d)", i, i))
	}
	res := mustExec(t, c, "SELECT COUNT(*), SUM(v) FROM m")
	if res.Rows[0][0].Int() != 20 || res.Rows[0][1].Int() != 190 {
		t.Fatalf("remote scatter = %v", res.Rows[0])
	}
	// Cross-shard transaction over remote backends (dedicated
	// connection per shard session).
	s := c.NewSession()
	defer s.Close()
	mustExecS(t, s, "BEGIN")
	for i := 20; i < 24; i++ {
		mustExecS(t, s, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 0)", i))
	}
	mustExecS(t, s, "COMMIT")
	res = mustExec(t, c, "SELECT COUNT(*) FROM m")
	if res.Rows[0][0].Int() != 24 {
		t.Fatalf("count after remote txn = %v, want 24", res.Rows[0][0])
	}
}

func TestUnsupportedStatements(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	if _, err := c.Exec("COMMIT"); err == nil {
		t.Error("COMMIT without a session: expected error on a cluster")
	}
	// A materializing form reads the transaction's snapshot, its own
	// writes included, as on one node.
	one := sqldb.NewMemory()
	mustExec(t, one, "CREATE TABLE m (k integer, v integer)")
	var dumps []string
	for _, q := range []sqldb.Querier{c.NewSession(), one.NewSession()} {
		for _, sql := range []string{"BEGIN", "INSERT INTO m VALUES (1, 10), (2, 20)", "INSERT INTO m SELECT k + 2, v FROM m", "COMMIT"} {
			mustExec(t, q, sql)
		}
		dumps = append(dumps, dumpResult(mustExec(t, q, "SELECT k, v FROM m ORDER BY k")))
	}
	if dumps[0] != dumps[1] {
		t.Errorf("in-txn INSERT ... SELECT: cluster\n%s\none node\n%s", dumps[0], dumps[1])
	}
}

// TestMaterializingStatements covers the coordinator's INSERT ...
// SELECT and CREATE [TEMP] TABLE AS: a scatter-gather snapshot read
// whose rows are re-partitioned by their first column.
func TestMaterializingStatements(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	for i := 0; i < 20; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO m VALUES (%d, %d)", i, i*i))
	}

	mustExec(t, c, "CREATE TABLE big (k integer, v integer)")
	if _, err := c.Exec("INSERT INTO big SELECT k, v FROM m WHERE v >= 100"); err != nil {
		t.Fatalf("INSERT ... SELECT: %v", err)
	}
	res := mustExec(t, c, "SELECT COUNT(*), MIN(k), MAX(k) FROM big")
	if got := dumpResult(res); !strings.Contains(got, "10\t10\t19") {
		t.Fatalf("INSERT ... SELECT result wrong:\n%s", got)
	}

	if _, err := c.Exec("CREATE TEMP TABLE sq AS SELECT k, v FROM m WHERE k < 5"); err != nil {
		t.Fatalf("CREATE TEMP TABLE AS: %v", err)
	}
	res = mustExec(t, c, "SELECT k, v FROM sq ORDER BY k")
	if len(res.Rows) != 5 {
		t.Fatalf("CREATE TABLE AS rows = %d, want 5", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].Int() != int64(i) || row[1].Int() != int64(i*i) {
			t.Fatalf("row %d = %s,%s", i, row[0].SQL(), row[1].SQL())
		}
	}
	// The materialized table is registered in the partition map:
	// key-routed statements work against it.
	mustExec(t, c, "DELETE FROM sq WHERE k = 3")
	res = mustExec(t, c, "SELECT COUNT(*) FROM sq")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("count after delete = %v, want 4", res.Rows[0][0])
	}
}

func mustExecS(t *testing.T, s *ClusterSession, sql string) *sqldb.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestShardedCompoundSelect checks a three-branch UNION ALL — each
// branch over a table of its own, the last an aggregate — against a
// single-node database: standalone, as the source of INSERT ... SELECT,
// and inside BEGIN ... COMMIT where it must see the transaction's own
// write. A coordinator that planned from the first branch alone would
// return r1's rows three times, or r1's schema for the aggregate.
func TestShardedCompoundSelect(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	single := sqldb.NewMemory()
	both := func(sql string) {
		t.Helper()
		mustExec(t, c, sql)
		mustExec(t, single, sql)
	}
	both("CREATE TABLE r1 (k integer, v float)")
	both("CREATE TABLE r2 (k integer, v integer)")
	both("CREATE TABLE r3 (k integer, v float)")
	for i := 0; i < 12; i++ {
		both(fmt.Sprintf("INSERT INTO r1 VALUES (%d, %d.25)", i, i))
		both(fmt.Sprintf("INSERT INTO r2 VALUES (%d, %d)", i, 100+i))
		both(fmt.Sprintf("INSERT INTO r3 VALUES (%d, %d.5)", i, 7*i))
	}
	const q = "SELECT 1 AS branch, k, v FROM r1 WHERE v > 3 UNION ALL SELECT 2, k, v FROM r2 UNION ALL SELECT 3, COUNT(*), SUM(v) FROM r3 WHERE k = 4"

	// Branches arrive in order on both sides; within a branch the
	// cluster gathers in shard order, so rows are compared sorted.
	same := func(what string, got, want *sqldb.Result) {
		t.Helper()
		lines := func(res *sqldb.Result) []string {
			all := strings.Split(strings.TrimSuffix(dumpResult(res), "\n"), "\n")
			rows := all[1:]
			last := int64(0)
			for _, r := range res.Rows {
				if r[0].Int() < last {
					t.Errorf("%s: branch %d after branch %d", what, r[0].Int(), last)
				}
				last = r[0].Int()
			}
			sort.Strings(rows)
			return append(all[:1], rows...)
		}
		g, w := lines(got), lines(want)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s:\ncluster:\n%s\nsingle node:\n%s", what, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
	want := mustExec(t, single, q)
	if len(want.Rows) != 9+12+1 {
		t.Fatalf("single node returns %d rows", len(want.Rows))
	}
	same("standalone", mustExec(t, c, q), want)

	both("CREATE TABLE vec (branch integer, k integer, v float)")
	both("INSERT INTO vec (branch, k, v) " + q)
	const back = "SELECT branch, k, v FROM vec ORDER BY branch, k"
	same("INSERT ... SELECT", mustExec(t, c, back), mustExec(t, single, back))

	cs, ss := c.NewSession(), single.NewSession()
	defer cs.Close()
	defer ss.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO r2 VALUES (50, 150)", "UPDATE r3 SET v = 1.5 WHERE k = 4"} {
		mustExecS(t, cs, sql)
		mustExec(t, ss, sql)
	}
	want = mustExec(t, ss, q)
	if len(want.Rows) != 9+13+1 || want.Rows[22][2].Float() != 1.5 {
		t.Fatalf("single-node transaction does not see its own writes: %v", want.Rows)
	}
	same("inside BEGIN ... COMMIT", mustExecS(t, cs, q), want)
	mustExecS(t, cs, "COMMIT")
	mustExec(t, ss, "COMMIT")
	same("after COMMIT", mustExec(t, c, q), mustExec(t, single, q))
}

// TestSelectOffsetComesFromTheParser: the coordinator re-routes the
// SELECT of INSERT ... SELECT and CREATE TABLE ... AS by its text, which
// it used to find by searching for "SELECT" — and so found it inside a
// table or column name. Only the routes that execute that text show
// it: a key-equality select (sent to its shard as is) and one the
// planner declines (run on the gathered copy).
func TestSelectOffsetComesFromTheParser(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	mustExec(t, c, "INSERT INTO m VALUES (1, 10), (2, 20), (3, 20)")
	mustExec(t, c, "CREATE TABLE preselected (selectk integer, v integer)")
	mustExec(t, c, "INSERT INTO preselected (selectk, v) SELECT k, v FROM m WHERE k = 2")
	mustExec(t, c, "INSERT INTO preselected (selectk, v) SELECT DISTINCT 9, v FROM m WHERE v = 20")
	res := mustExec(t, c, "SELECT selectk, v FROM preselected ORDER BY selectk")
	if got := dumpResult(res); !strings.HasSuffix(got, "\n2\t20\t\n9\t20\t\n") {
		t.Errorf("preselected:\n%s", got)
	}
	mustExec(t, c, "CREATE TABLE selected_as AS SELECT k, v FROM m WHERE k = 3")
	mustExec(t, c, "CREATE TEMP TABLE unselect AS SELECT DISTINCT v FROM m")
	if n := mustExec(t, c, "SELECT COUNT(*) FROM selected_as").Rows[0][0].Int(); n != 1 {
		t.Errorf("selected_as has %d rows, want 1", n)
	}
	if n := mustExec(t, c, "SELECT COUNT(*) FROM unselect").Rows[0][0].Int(); n != 2 {
		t.Errorf("unselect has %d rows, want 2", n)
	}
}
