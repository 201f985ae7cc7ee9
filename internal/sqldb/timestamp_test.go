package sqldb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perfbase/internal/value"
)

// TestTimestampLiteral: a String literal compared with a Timestamp is
// read as CAST(… AS timestamp) would read it, so WHERE, IN, BETWEEN and
// COALESCE compare instants, not display text, on both engines. k = 4
// is the instant of k = 1 written in another zone, and k = 2 is half a
// second later; a timestamp displays with the digits it needs and in
// UTC. want is the rows, each value's display form, or the error text
// expected; was is what the engine answered while it compared display
// text and displayed whole seconds.
func TestTimestampLiteral(t *testing.T) {
	setup := []string{
		"CREATE TABLE t (k integer, ts timestamp)",
		"INSERT INTO t VALUES (1, '2004-11-23T18:30:30Z'), (2, '2004-11-23T18:30:30.5Z'), (3, NULL), (4, '2004-11-23T19:30:30+01:00')",
	}
	probes := []struct{ sql, was, want string }{
		{"SELECT k FROM t WHERE ts = '2004-11-23T18:30:30Z' ORDER BY k", "1; 2", "1; 4"},
		{"SELECT k FROM t WHERE '2004-11-23T18:30:30Z' = ts ORDER BY k", "1; 2", "1; 4"},
		{"SELECT k FROM t WHERE ts < '2004-11-23T18:30:30.2Z' ORDER BY k", "", "1; 4"},
		{"SELECT k FROM t WHERE ts IN ('2004-11-23T18:30:30.5Z') ORDER BY k", "", "2"},
		{"SELECT k FROM t WHERE ts BETWEEN '2004-11-23T18:30:30.1Z' AND '2004-11-23T18:30:31Z' ORDER BY k", "1; 2", "2"},
		{"SELECT k FROM t WHERE COALESCE(ts, '2004-11-23T18:30:30Z') = '2004-11-23T18:30:30Z' ORDER BY k", "1; 2; 3", "1; 3; 4"},
		{"SELECT ts, COUNT(*) FROM t GROUP BY ts ORDER BY ts", "NULL 1; 2004-11-23T18:30:30Z 2; 2004-11-23T18:30:30Z 1",
			"NULL 1; 2004-11-23T18:30:30Z 2; 2004-11-23T18:30:30.5Z 1"},
		{"SELECT ts FROM t WHERE k = 4", "2004-11-23T19:30:30+01:00", "2004-11-23T18:30:30Z"},
		{"SELECT k FROM t WHERE ts = 'yesterday'", "", `error: value: "yesterday" is not a timestamp`},
		// Out of the range of int64 nanoseconds: refused, not wrapped.
		{"SELECT CAST(CAST('2300-01-01' AS timestamp) AS float)", "-8.032952073709552e+09",
			`error: value: timestamp "2300-01-01" is outside the range 1677-09-21T00:12:43.145224192Z to 2262-04-11T23:47:16.854775807Z`},
		{"SELECT CAST('99999999999999' AS timestamp)", "3170843-11-07T09:46:39Z",
			"error: value: timestamp 99999999999999 (Unix seconds) is outside the range"},
	}
	vdb, rdb := vecTestDBs(t, setup)
	for _, db := range []*DB{vdb, rdb} {
		for _, p := range probes {
			var got string
			if res, err := db.Exec(p.sql); err != nil {
				got = "error: " + err.Error()
			} else {
				var rows []string
				for _, r := range res.Rows {
					var vals []string
					for _, v := range r {
						vals = append(vals, v.String())
					}
					rows = append(rows, strings.Join(vals, " "))
				}
				got = strings.Join(rows, "; ")
			}
			if isErr := strings.HasPrefix(p.want, "error: "); isErr && !strings.HasPrefix(got, p.want) || !isErr && got != p.want {
				t.Errorf("vectorized %v: %s = %q, want %q (was %q)", !db.env.vecDisabled.Load(), p.sql, got, p.want, p.was)
			}
		}
	}
}

// TestTimestampColumnsVectorize: a Timestamp column is an int64 column —
// its comparisons with timestamps, COUNT, MIN and MAX run on the batch
// path, and a checkpoint's zone maps let a selective WHERE skip blocks.
func TestTimestampColumnsVectorize(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k integer, ts timestamp)")
	base := time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]Row, 3*vecMorselRows)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(i)), value.NewTimestamp(base.Add(time.Duration(i) * time.Second))}
	}
	if _, err := db.InsertRows("t", []string{"k", "ts"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range []string{
		"EXPLAIN SELECT COUNT(*) FROM t WHERE ts > CAST('2004-01-01' AS timestamp)",
		"EXPLAIN SELECT MAX(ts) FROM t",
		"EXPLAIN SELECT ts, COUNT(*) FROM t WHERE ts >= '2004-01-01T01:00:00Z' GROUP BY ts",
	} {
		if plan := fmt.Sprint(mustExec(t, db, q).Rows); !strings.Contains(plan, "batch scan") || !strings.Contains(plan, "[vectorized]") {
			t.Errorf("%s is not a vectorized batch scan:\n%s", q, plan)
		}
	}
	last := base.Add(time.Duration(2*vecMorselRows+10) * time.Second).Format(time.RFC3339)
	q := "SELECT COUNT(*), MIN(ts), MAX(k) FROM t WHERE ts >= '" + last + "'"
	s0, k0 := db.BlockStats()
	got := fmt.Sprint(mustExec(t, db, q).Rows)
	if s1, k1 := db.BlockStats(); s1-s0 != 1 || k1-k0 != 2 {
		t.Errorf("%s decoded %d and skipped %d blocks, want 1 and 2", q, s1-s0, k1-k0)
	}
	want := fmt.Sprint([]Row{{value.NewInt(vecMorselRows - 10), value.NewTimestamp(base.Add(time.Duration(2*vecMorselRows+10) * time.Second)), value.NewInt(3*vecMorselRows - 1)}})
	if got != want {
		t.Errorf("%s = %s, want %s", q, got, want)
	}
}
