package sqldb

import (
	"testing"

	"perfbase/internal/value"
)

// oneEqualitySetup builds the tables of TestOneEquality: f holds the
// Floats 1e6, −0, 0 and NaN; i the Integers 1000000 and 0 (k is 1 in
// both); ta and tb two timestamps 0.5 s apart; s string pairs that a
// separator-joined display key conflates; v three spellings of one
// version.
var oneEqualitySetup = []string{
	"CREATE TABLE f (k integer, f float)",
	"INSERT INTO f VALUES (1, 1e6), (1, CAST('-0' AS FLOAT)), (1, 0.0), (1, CAST('NaN' AS FLOAT))",
	"CREATE TABLE i (k integer, i integer)",
	"INSERT INTO i VALUES (1, 1000000), (1, 0)",
	"CREATE TABLE ta (ts timestamp)",
	"INSERT INTO ta VALUES ('2004-11-23T18:30:30Z'), ('2004-11-23T18:30:30.5Z')",
	"CREATE TABLE tb (ts timestamp)",
	"INSERT INTO tb SELECT ts FROM ta",
	"CREATE TABLE s (a string, b string)",
	"INSERT INTO s VALUES ('a\x1f', 'b'), ('a', '\x1fb'), ('\x00NULL', 'z'), (NULL, 'z')",
	"CREATE TABLE v (v version)",
	"INSERT INTO v VALUES ('1.2'), ('1.02'), ('1-2')",
}

// TestOneEquality: WHERE, ON, GROUP BY, DISTINCT and hash indexes match
// values by one equality, value.Compare's, on both engines, and the
// Float and Timestamp probes again once their columns are indexed. A
// probe's answer is the single COUNT it selects, or with rows set the
// number of rows. before is what the engine answered, unindexed, while
// those sites matched by four equalities — value.Compare, display forms,
// raw float bits and display forms joined by a separator byte — shown
// for the record (indexed, WHERE f = 0 answered 1, and f = 7 and
// f = 1000000 already the one equality's answers); want is the one
// equality's.
func TestOneEquality(t *testing.T) {
	probes := []struct {
		sql          string
		rows, index  bool
		before, want int64
	}{
		{"SELECT COUNT(*) FROM f WHERE f = 0", false, true, 3, 2},
		{"SELECT COUNT(*) FROM f WHERE f = 7", false, true, 1, 0},
		{"SELECT COUNT(*) FROM f WHERE f = 1000000", false, true, 2, 1},
		{"SELECT COUNT(DISTINCT f) FROM f", false, true, 4, 3},
		{"SELECT f, COUNT(*) FROM f GROUP BY f", true, true, 4, 3},
		{"SELECT DISTINCT f FROM f", true, true, 4, 3},
		{"SELECT COUNT(*) FROM i JOIN f ON i.i = f.f", false, true, 1, 3},
		{"SELECT COUNT(*) FROM i JOIN f ON i.i = f.f AND i.k = f.k", false, true, 5, 3},
		{"SELECT COUNT(*) FROM i, f WHERE i.i = f.f AND i.k = f.k", false, true, 5, 3},
		{"SELECT COUNT(*) FROM f a JOIN f b ON a.f = b.f", false, true, 4, 6},
		{"SELECT COUNT(*) FROM ta JOIN tb ON ta.ts = tb.ts", false, true, 4, 2},
		{"SELECT COUNT(DISTINCT ts) FROM ta", false, true, 1, 2},
		{"SELECT ts, COUNT(*) FROM ta GROUP BY ts", true, true, 1, 2},
		{"SELECT a, b, COUNT(*) FROM s GROUP BY a, b", true, false, 2, 4},
		{"SELECT DISTINCT a, b FROM s", true, false, 2, 4},
		{"SELECT v, COUNT(*) FROM v GROUP BY v", true, false, 3, 1},
		{"SELECT COUNT(*) FROM v a JOIN v b ON a.v = b.v", false, false, 3, 9},
		{"SELECT COUNT(*) FROM v a JOIN v b ON a.v = b.v AND 1 = 1", false, false, 9, 9},
	}
	vdb, rdb := vecTestDBs(t, oneEqualitySetup)
	run := func(indexed bool) {
		for _, db := range []*DB{vdb, rdb} {
			for _, p := range probes {
				if indexed && !p.index {
					continue
				}
				res := mustExec(t, db, p.sql)
				got := int64(len(res.Rows))
				if !p.rows {
					got = res.Rows[0][0].Int()
				}
				if got != p.want {
					t.Errorf("vectorized %v, indexed %v: %s = %d, want %d (was %d)",
						!db.env.vecDisabled.Load(), indexed, p.sql, got, p.want, p.before)
				}
			}
		}
	}
	run(false)
	for _, sql := range []string{"CREATE INDEX ON f (f)", "CREATE INDEX ON ta (ts)", "CREATE INDEX ON tb (ts)"} {
		mustExec(t, vdb, sql)
		mustExec(t, rdb, sql)
	}
	run(true)
}

// TestColVecKeyMatchesBoxed: a vector element's key is its boxed
// value's, for every vector type, NULLs and the float edge values
// included: the group table hashes the element as the row engine's key
// of the boxed value, and finds both in one group — and a pad in the
// NULL's.
func TestColVecKeyMatchesBoxed(t *testing.T) {
	db := NewMemory()
	for _, sql := range []string{
		"CREATE TABLE t (i integer, f float, s string, b boolean, v version, ts timestamp)",
		"INSERT INTO t VALUES (0, 0.0, '', FALSE, '1.2', '2004-11-23T18:30:30Z'), (-1, CAST('-0' AS FLOAT), 'a\x1f', TRUE, '1.02', '2004-11-23T19:30:30+01:00')",
		"INSERT INTO t VALUES (9007199254740993, CAST('NaN' AS FLOAT), '\x00NULL', NULL, '1-2', '2004-11-23T18:30:30.5Z')",
		"INSERT INTO t VALUES (NULL, 1e6, NULL, TRUE, 'rc1.x', NULL), (1000000, NULL, 'z', FALSE, NULL, '1677-09-21T00:12:43.145224192Z')",
		"INSERT INTO t VALUES (-9223372036854775807, CAST('Inf' AS FLOAT), 'b', TRUE, '2.6.10', '1969-12-31T23:59:59.999999999Z')",
	} {
		mustExec(t, db, sql)
	}
	sn := db.state.Load()
	tab, _ := sn.table("t")
	for ci, c := range tab.schema {
		st := mustParseSelect(t, "SELECT "+c.Name+", COUNT(*) FROM t GROUP BY "+c.Name)
		p, err := sn.planSelect(st)
		if err != nil {
			t.Fatal(err)
		}
		gt := newGroupTable(st, p)
		// key returns the hash and the group of a one-tuple batch.
		key := func(keys []keyVec) (uint64, int32) {
			pr := &probe{at: []int32{0}}
			gi := gt.lookup(keys, pr)[0]
			return pr.hs[0], gi
		}
		boxed := func(x value.Value) (uint64, int32) {
			gt.ctx.row = make(Row, len(tab.schema))
			gt.ctx.row[ci] = x
			h, err := gt.rowKey(&gt.ctx)
			if err != nil {
				t.Fatal(err)
			}
			return h, gt.find(gt.row.q, 0, h)
		}
		for _, ch := range tab.builtChunks() {
			v := db.env.cache.colFor(ch, ci, c.Type)
			if v == nil {
				t.Fatalf("no vector for column %s", c.Name)
			}
			for i, row := range ch.rows() {
				vh, vg := key([]keyVec{{v, []int32{int32(i)}}})
				if bh, bg := boxed(row[ci]); vh != bh || vg != bg {
					t.Errorf("%s row %d (%v): vector hash %x, group %d; boxed hash %x, group %d", c.Name, i, row[ci], vh, vg, bh, bg)
				}
			}
			vh, vg := key([]keyVec{{v, []int32{-1}}})
			if bh, bg := boxed(value.Null(c.Type)); vh != bh || vg != bg {
				t.Errorf("%s pad: hash %x, group %d; NULL hash %x, group %d", c.Name, vh, vg, bh, bg)
			}
		}
	}
}

// TestHashJoinMatchesNestedLoop: a hash join — keys, and keys with the
// other conjuncts filtering each matched pair — answers exactly what the
// nested loop answers for the same condition (made opaque to the hash
// join by OR-ing a false), rows and their order, INNER and LEFT, on
// both engines.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	setup := append([]string{
		"CREATE TABLE p (n integer, s string, x float)",
		"INSERT INTO p VALUES (1, 'a', 0.0), (0, 'b', CAST('NaN' AS FLOAT)), (NULL, 'a', 1e6), (1000000, NULL, CAST('-0' AS FLOAT)), (1, 'a', 2.5)",
		"CREATE TABLE q (n integer, s string, x float)",
		"INSERT INTO q VALUES (1, 'a', CAST('-0' AS FLOAT)), (1000000, 'b', 1e6), (0, 'a', CAST('NaN' AS FLOAT)), (NULL, NULL, NULL), (1, 'b', 0.0)",
	}, oneEqualitySetup...)
	vdb, rdb := vecTestDBs(t, setup)
	for _, on := range []string{
		"p.n = q.n",
		"p.x = q.x",
		"p.n = q.x",
		"p.x = q.n AND p.s = q.s",
		"p.s = q.s AND p.n = q.n AND p.x = q.x",
		"p.n = q.n AND p.x <= q.x",
		"p.s = q.s AND p.n = 1",
		"p.s = q.s AND q.n = p.x AND p.s <> 'b'",
		"p.n = q.s",
	} {
		for _, kind := range []string{"JOIN", "LEFT JOIN"} {
			sql := "SELECT p.n, p.s, p.x, q.n, q.s, q.x FROM p " + kind + " q ON "
			for _, db := range []*DB{vdb, rdb} {
				hashed, looped := fmtResult(mustExec(t, db, sql+on)), fmtResult(mustExec(t, db, sql+"("+on+") OR 1 = 0"))
				if hashed != looped {
					t.Errorf("vectorized %v, %s ON %s: hash join\n%snested loop\n%s", !db.env.vecDisabled.Load(), kind, on, hashed, looped)
				}
			}
		}
	}
}
