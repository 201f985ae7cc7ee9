package shard

import (
	"fmt"
	"strings"
	"testing"

	"perfbase/internal/sqldb"
)

// ddlScript is one table's life through every schema change the
// coordinator routes: CREATE TABLE IF NOT EXISTS over the existing
// table, ALTER TABLE ADD, DROP of a non-key column, DROP of the
// partition key (its rows must be dealt anew by the new first column)
// and RENAME. After each change the table takes a column-less INSERT, a
// key-routed SELECT, UPDATE and DELETE, and a scatter aggregate. CREATE
// TABLE … AS and INSERT … SELECT read the table's own writes. Every
// table name is the prefix p plus a suffix, so one database holds the
// script run several times.
func ddlScript(p string) []string {
	script := []string{
		"CREATE TABLE {t} (k integer, v float)",
		"INSERT INTO {t} VALUES (1, 0.5), (2, 1.5), (3, 2.5), (4, 3.5), (5, 4.5), (6, 5.5)",
		"CREATE TABLE {t} (k integer)",
		"CREATE TABLE IF NOT EXISTS {t} (x string, y integer)",
		"INSERT INTO {t} VALUES (7, 6.5)",
		"SELECT k, v FROM {t} WHERE k = 7",
		"UPDATE {t} SET v = 0.25 WHERE k = 6",
		"SELECT COUNT(*), SUM(v) FROM {t}",
		"CREATE TABLE {t}_copy AS SELECT k, v FROM {t} WHERE k > 4",
		"INSERT INTO {t}_copy SELECT k + 10, v FROM {t} WHERE k <= 2",
		"SELECT k, v FROM {t}_copy ORDER BY k",
		"SELECT k, v FROM {t}_copy WHERE k = 11",

		"ALTER TABLE {t} ADD COLUMN v float",
		"ALTER TABLE {t} ADD COLUMN s string",
		"INSERT INTO {t} VALUES (8, 7.5, 'h')",
		"SELECT k, v, s FROM {t} WHERE k = 8",
		"UPDATE {t} SET s = 'a' WHERE k = 1",
		"DELETE FROM {t} WHERE k = 2",
		"SELECT COUNT(*), SUM(v), COUNT(s), MAX(s) FROM {t}",

		"ALTER TABLE {t} DROP COLUMN nope",
		"ALTER TABLE {t} DROP COLUMN v",
		"INSERT INTO {t} VALUES (9, 'i')",
		"SELECT k, s FROM {t} WHERE k = 9",
		"UPDATE {t} SET s = 'c' WHERE k = 3",
		"DELETE FROM {t} WHERE k = 4",
		"SELECT COUNT(*), COUNT(s), MIN(s), MAX(s) FROM {t}",

		"ALTER TABLE {t} ADD COLUMN n integer",
		"UPDATE {t} SET n = k * 10",
		"UPDATE {t} SET s = 'e' WHERE k = 5",
		"UPDATE {t} SET s = 'f' WHERE k = 6",
		"UPDATE {t} SET s = 'g' WHERE k = 7",
		"ALTER TABLE {t} DROP COLUMN k",
		"INSERT INTO {t} VALUES ('j', 100)",
		"SELECT s, n FROM {t} WHERE s = 'c'",
		"SELECT s, n FROM {t} WHERE s = 'j'",
		"UPDATE {t} SET n = n + 1 WHERE s = 'a'",
		"DELETE FROM {t} WHERE s = 'e'",
		"SELECT COUNT(*), SUM(n), MIN(s) FROM {t}",
		"SELECT s, n FROM {t} ORDER BY s",

		"ALTER TABLE {t} RENAME TO {t}_r",
		"SELECT COUNT(*) FROM {t}",
		"INSERT INTO {t}_r VALUES ('k', 110)",
		"SELECT s, n FROM {t}_r WHERE s = 'k'",
		"UPDATE {t}_r SET n = 0 WHERE s = 'k'",
		"DELETE FROM {t}_r WHERE s = 'f'",
		"SELECT COUNT(*), SUM(n) FROM {t}_r",
		"SELECT s, n FROM {t}_r ORDER BY s",
	}
	for i, sql := range script {
		script[i] = strings.ReplaceAll(sql, "{t}", p)
	}
	return script
}

// afterDDL reads what the script left, and writes once more.
var afterDDL = []string{
	"SELECT s, n FROM a_r WHERE s = 'c'",
	"INSERT INTO a_r VALUES ('l', 120)",
	"SELECT s, n FROM a_r WHERE s = 'l'",
	"SELECT COUNT(*), SUM(n), MAX(s) FROM a_r",
	"SELECT s, n FROM a_r ORDER BY s",
	"SELECT k, v FROM a_copy ORDER BY k",
	"SELECT s, n FROM b_r WHERE s = 'g'",
	"SELECT s, n FROM b_r ORDER BY s",
	"SELECT k, v FROM b_copy ORDER BY k",
	"SELECT COUNT(*) FROM c",
	"SELECT COUNT(*) FROM c_r",
	"SELECT COUNT(*) FROM c_copy",
	"CREATE TABLE c (z integer)",
	"INSERT INTO c VALUES (1), (2)",
	"SELECT z FROM c WHERE z = 2",
}

// runTranscript runs the statements on one session and records each
// one's verdict, its affected-row count and its rows.
func runTranscript(q sqldb.Querier, script []string) string {
	var sb strings.Builder
	for _, sql := range script {
		fmt.Fprintf(&sb, "-- %s\n", sql)
		res, err := q.Exec(sql)
		if err != nil {
			sb.WriteString("error\n")
			continue
		}
		fmt.Fprintf(&sb, "affected %d\n", res.Affected)
		sb.WriteString(dumpResult(res))
	}
	return sb.String()
}

// TestShardedDDLMatchesSingleNode runs the DDL script outside any
// transaction (table a), inside one that commits (b) and inside one
// that rolls back (c), on one node and on 1- and 4-shard clusters, and
// requires the same verdicts, counts and rows everywhere. A durable
// 4-shard cluster is closed and reopened before the last reads: the
// partition map it rebuilds from the shards' catalogs must route the
// altered tables.
func TestShardedDDLMatchesSingleNode(t *testing.T) {
	var script []string
	script = append(script, ddlScript("a")...)
	script = append(script, "BEGIN")
	script = append(script, ddlScript("b")...)
	script = append(script, "COMMIT", "BEGIN")
	script = append(script, ddlScript("c")...)
	script = append(script, "ROLLBACK")

	db := sqldb.NewMemory()
	one := db.NewSession()
	defer one.Close()
	want := runTranscript(one, script) + runTranscript(one, afterDDL)

	for _, n := range []int{1, 4} {
		c := NewLocal(n)
		s := c.NewSession()
		got := runTranscript(s, script) + runTranscript(s, afterDDL)
		s.Close()
		c.Close()
		if got != want {
			t.Fatalf("%d-shard cluster diverges from one node: %s", n, firstDiff(want, got))
		}
	}

	dir := t.TempDir()
	c, err := OpenLocal(dir, 4, sqldb.SyncInterval)
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession()
	got := runTranscript(s, script)
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = OpenLocal(dir, 4, sqldb.SyncInterval); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s = c.NewSession()
	defer s.Close()
	got += runTranscript(s, afterDDL)
	if got != want {
		t.Fatalf("reopened 4-shard cluster diverges from one node: %s", firstDiff(want, got))
	}
}

// TestShardedDDLRefusals: a cluster refuses what would leave a table
// without a partition key — a CREATE with no column and a DROP of its
// only column — and an ALTER TABLE that fails leaves the partition map
// and the shards as they were.
func TestShardedDDLRefusals(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE one (k integer)")
	mustExec(t, c, "INSERT INTO one VALUES (1), (2), (3)")
	if _, err := c.Exec("ALTER TABLE one DROP COLUMN k"); err == nil {
		t.Error("drop of the only column: expected an error on a cluster")
	}
	if _, err := c.Exec("ALTER TABLE one ADD COLUMN k float"); err == nil {
		t.Error("ADD of an existing column: expected an error")
	}
	if _, err := c.Exec("ALTER TABLE gone ADD COLUMN x float"); err == nil {
		t.Error("ALTER of an unknown table: expected an error")
	}
	for i := 0; i < c.NumShards(); i++ {
		if sch, _ := c.Shard(i).(schemaReader).TableSchema("one"); len(sch) != 1 {
			t.Errorf("shard %d: schema %v after refused ALTERs", i, sch)
		}
	}
	if got := mustExec(t, c, "SELECT k FROM one WHERE k = 2").Rows; len(got) != 1 {
		t.Errorf("key-routed read after refused ALTERs = %v", got)
	}
}
