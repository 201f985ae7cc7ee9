package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"perfbase/internal/value"
)

// mirrored is the operator that compares the other way round: a op b is
// b mirrored[op] a.
var mirrored = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// TestComparisonIsAntisymmetric: x op y selects the rows y op' x does,
// op' the mirrored operator, for every operator and every pair of
// columns of every type, and for every column against literals of every
// class — on the row back end and in the batch, which must agree. The
// rows hold values whose order depends on the class compared in: a
// string "1.10" is less than a version "1.9" as a string and greater as
// a version.
func TestComparisonIsAntisymmetric(t *testing.T) {
	vdb, rdb := vecTestDBs(t, []string{"CREATE TABLE t (i integer, f float, s string, b boolean, ver version)"})
	rows := []Row{
		{value.NewInt(9), value.NewFloat(1.10), value.NewString("1.10"), value.NewBool(true), value.NewVersion("1.9")},
		{value.NewInt(10), value.NewFloat(9.5), value.NewString("10"), value.NewBool(false), value.NewVersion("9")},
		{value.NewInt(-3), value.NewFloat(math.NaN()), value.NewString("abc"), value.Null(value.Boolean), value.NewVersion("1.10")},
		{value.Null(value.Integer), value.Null(value.Float), value.Null(value.String), value.Null(value.Boolean), value.Null(value.Version)},
		{value.NewInt(0), value.NewFloat(0), value.NewString("true"), value.NewBool(true), value.NewVersion("2.6.10")},
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("t", []string{"i", "f", "s", "b", "ver"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	cols := []string{"i", "f", "s", "b", "ver"}
	lits := []string{"9", "2.5", "'1.10'", "'1.9'", "'10'", "'abc'", "TRUE", "NULL"}
	count := func(db *DB, where string) string {
		res, err := db.Exec("SELECT COUNT(*) FROM t WHERE " + where)
		if err != nil {
			t.Fatalf("WHERE %s: %v", where, err)
		}
		return fmtResult(res)
	}
	check := func(a, b, op string) {
		fwd, back := a+" "+op+" "+b, b+" "+mirrored[op]+" "+a
		want := count(rdb, fwd)
		for name, db := range map[string]*DB{"row": rdb, "batch": vdb} {
			for _, w := range []string{fwd, back} {
				if got := count(db, w); got != want {
					t.Errorf("%s back end: WHERE %s counts %q, WHERE %s on the row back end %q", name, w, got, fwd, want)
				}
			}
		}
	}
	for op := range mirrored {
		for _, x := range cols {
			for _, y := range cols {
				check(x, y, op)
			}
			for _, l := range lits {
				check(x, l, op)
			}
		}
	}
	if p := fmtResult(mustExec(t, vdb, "EXPLAIN SELECT COUNT(*) FROM t WHERE s < ver")); !strings.Contains(p, "[vectorized]") {
		t.Errorf("a cross-class column comparison does not run in the batch:\n%s", p)
	}
}

// whereOf returns the WHERE clause of a single-table SELECT, "" when it
// has none.
func whereOf(q string) string {
	_, w, ok := strings.Cut(q, " WHERE ")
	if !ok {
		return ""
	}
	for _, tail := range []string{" GROUP BY ", " ORDER BY ", " LIMIT "} {
		w, _, _ = strings.Cut(w, tail)
	}
	return w
}

// TestZoneNeverPrunesAMatch runs every WHERE clause of
// TestVectorRowAgreement over a checkpointed three-block table whose
// blocks differ in range, NULLs and NaN, with a column cache of zero
// bytes: no block the zone back end prunes may hold a row the row back
// end keeps.
func TestZoneNeverPrunesAMatch(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (i integer, f float, s string, b boolean, ver version)")
	rng := rand.New(rand.NewSource(11))
	rows := make([]Row, 3*vecMorselRows)
	for k := range rows {
		blk := k / vecMorselRows
		if k%17 == 0 {
			rows[k] = Row{value.Null(value.Integer), value.Null(value.Float),
				value.Null(value.String), value.Null(value.Boolean), value.Null(value.Version)}
			continue
		}
		// Block 0's NaNs match = and BETWEEN outside its float range, and
		// its largest i is the lower bound of a BETWEEN.
		f := value.NewFloat(float64(rng.Intn(64))*0.25 + 20*float64(1-blk))
		switch {
		case blk == 2:
			f = value.Null(value.Float)
		case blk == 0 && k%23 == 0:
			f = value.NewFloat(math.NaN())
		}
		rows[k] = Row{
			value.NewInt(int64(rng.Intn([...]int{18, 20, 20}[blk]) + [...]int{-20, -5, 10}[blk])),
			f,
			value.NewString(fmt.Sprintf("s%02d", rng.Intn(6)+6*min(blk, 1))),
			value.NewBool(blk == 2 || blk == 0 && k%3 == 0),
			value.NewVersion(fmt.Sprintf("1.%d.%d", rng.Intn(3), rng.Intn(4))),
		}
	}
	if _, err := db.InsertRows("t", []string{"i", "f", "s", "b", "ver"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.ColumnCacheLimit(0)
	sn := db.state.Load()
	tab, _ := sn.table("t")
	ms, err := tab.morsels()
	if err != nil || len(ms) != 3 || ms[2].bi != 2 {
		t.Fatalf("the table is not cut into its 3 blocks: %d morsels, %v", len(ms), err)
	}
	pruned := 0
	// Beside the agreement queries, tests a NaN row passes because a NaN
	// is the least float: block 0's float range is [20, 36) plus NaNs.
	nanOrder := []string{
		"SELECT COUNT(*) FROM t WHERE f < 20",
		"SELECT COUNT(*) FROM t WHERE f <= 1",
		"SELECT COUNT(*) FROM t WHERE f <> 25",
		"SELECT COUNT(*) FROM t WHERE f NOT BETWEEN 20 AND 40",
		"SELECT COUNT(*) FROM t WHERE f BETWEEN CAST('NaN' AS FLOAT) AND 1",
		"SELECT COUNT(*) FROM t WHERE f IN (CAST('NaN' AS FLOAT), 50)",
		"SELECT COUNT(*) FROM t WHERE f = CAST('NaN' AS FLOAT)",
	}
	for _, q := range append(nanOrder, vecAgreementQueries...) {
		w := whereOf(q)
		if w == "" {
			continue
		}
		st, err := Parse("SELECT COUNT(*) FROM t WHERE " + w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sn.planSelect(st.(*SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		if p.vec == nil {
			t.Errorf("WHERE %s does not run vectorized", w)
			continue
		}
		for mi := range ms {
			if !p.vec.prunes(&ms[mi], true) {
				continue
			}
			pruned++
			rows, err := tab.morselRows(&ms[mi])
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if keep, err := p.keep(&execCtx{row: row}); keep || err != nil {
					t.Errorf("WHERE %s: the zone maps prune block %d, whose row %v the row back end keeps (err %v)", w, mi, row, err)
					break
				}
			}
		}
	}
	if pruned < 10 {
		t.Errorf("the zone maps pruned %d blocks over every WHERE: too few for the test to check anything", pruned)
	}
}

// TestBatchErrorsMatchRow: a WHERE clause that fails on some row fails
// the statement the same way with vectors on and off — on a memory
// table, and on a checkpointed one, where a zone map that could prune
// every block must not answer in place of the failing row.
func TestBatchErrorsMatchRow(t *testing.T) {
	wheres := []string{
		"1/(i-i) > 0",
		"NOT s",
		"i > 0 AND 1/(i-i) > 0",
		"1/(i-i) > 0 AND i > 100000",
	}
	stmts := func(w string) []string {
		return []string{
			"SELECT COUNT(*) FROM t WHERE " + w,
			"SELECT i, s FROM t WHERE " + w,
			"SELECT s, SUM(i) FROM t WHERE " + w + " GROUP BY s",
		}
	}
	vdb, rdb := vecTestDBs(t, []string{"CREATE TABLE t (i integer, s string)"})
	rows := make([]Row, 2*vecMorselRows)
	for k := range rows {
		rows[k] = Row{value.NewInt(int64(k)), value.NewString(fmt.Sprintf("s%d", k%5))}
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("t", []string{"i", "s"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	bdb, err := OpenWithPolicy(t.TempDir(), SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	mustExec(t, bdb, "CREATE TABLE t (i integer, s string)")
	if _, err := bdb.InsertRows("t", []string{"i", "s"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := bdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, w := range wheres {
		for _, q := range stmts(w) {
			_, want := rdb.Exec(q)
			if want == nil {
				t.Fatalf("%s: the row engine does not fail", q)
			}
			if _, err := vdb.Exec(q); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: vectors on fail with %v, off with %v", q, err, want)
			}
			for _, on := range []bool{true, false} {
				bdb.SetVectorized(on)
				if _, err := bdb.Exec(q); err == nil || err.Error() != want.Error() {
					t.Errorf("%s: checkpointed, vectors %v, fails with %v, want %v", q, on, err, want)
				}
			}
		}
	}
}
