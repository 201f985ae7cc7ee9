package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"perfbase/internal/value"
)

// pourCase is one generated pour: the statements that build the tables
// it reads and its destination, and the step itself.
type pourCase struct {
	name  string
	setup []string
	step  PipelineRequest
	fails bool
}

// pourDst is the destination of the generated pours: a constant column
// of every type, then the columns read off the tables.
const pourDst = "ci integer, cf float, cs string, ct timestamp, cb boolean, cv version, n integer, v float, s string"

// pourConsts draws one table's constants, one of every type, each NULL
// now and then. The float is whole in some tables and not in others, so
// the literal the text gives it changes type between tables.
func pourConsts(rng *rand.Rand, i int) Row {
	cf := []float64{float64(i), float64(i) + 0.25, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e300, 123456789}[rng.Intn(8)]
	row := Row{
		value.NewInt([]int64{int64(i), -int64(i), math.MinInt64}[rng.Intn(3)]),
		value.NewFloat(cf),
		value.NewString([]string{"ufs", "it's", ""}[rng.Intn(3)]),
		value.NewTimestamp(time.Date(2005, 9, 1, i%24, 0, 0, rng.Intn(1000), time.UTC)),
		value.NewBool(rng.Intn(2) == 0),
		value.NewVersion(fmt.Sprintf("2.6.%d", rng.Intn(12))),
	}
	for j := range row {
		if rng.Intn(6) == 0 {
			row[j] = value.Null(row[j].Type())
		}
	}
	return row
}

// genPour generates a pour over n tables shaped like run tables — a few
// of them with a column of another type or an extra column, which need
// plans of their own — reading n, a unit-converted v and s.
func genPour(rng *rand.Rand, name string, n int, where bool) pourCase {
	c := pourCase{name: name, setup: []string{"CREATE TEMP TABLE dst (" + pourDst + ")"}}
	c.step = PipelineRequest{SQL: "SELECT n, (v * 0.5) AS v, s", Table: "dst", From: []string{},
		Cols: []string{"ci", "cf", "cs", "ct", "cb", "cv", "n", "v", "s"}}
	if where {
		c.step.SQL += " WHERE n > 1"
	}
	for i := 0; i < n; i++ {
		table, cols := fmt.Sprintf("pr_%d", i), "n integer, v float, s string"
		switch i % 50 {
		case 17:
			cols = "n integer, v integer, s string"
		case 33:
			cols = "n integer, v float, s string, extra integer"
		}
		c.setup = append(c.setup, "CREATE TABLE "+table+" ("+cols+")")
		var rows []string
		for r := rng.Intn(4); r > 0; r-- {
			v := value.NewFloat(float64(rng.Intn(100)) / 4)
			if rng.Intn(5) == 0 {
				v = value.Null(value.Float)
			}
			s := []string{"'a'", "'b''c'", "NULL"}[rng.Intn(3)]
			row := fmt.Sprintf("%d, %s, %s", rng.Intn(4), v.SQL(), s)
			if strings.Contains(cols, "extra") {
				row += ", 7"
			}
			rows = append(rows, "("+row+")")
		}
		if len(rows) > 0 {
			c.setup = append(c.setup, "INSERT INTO "+table+" VALUES "+strings.Join(rows, ", "))
		}
		c.step.From = append(c.step.From, table)
		consts := pourConsts(rng, i)
		if i < 2 {
			// NULL in table 1 against a value in table 2, in every column.
			for j := range consts {
				if i == 0 {
					consts[j] = value.Null(consts[j].Type())
				} else if consts[j].IsNull() {
					consts[j] = pourConsts(rand.New(rand.NewSource(1)), 1)[j]
				}
			}
		}
		c.step.Rows = append(c.step.Rows, consts)
	}
	return c
}

// pourCases are the generated pours, the failing ones among them.
func pourCases() []pourCase {
	rng := rand.New(rand.NewSource(29))
	cases := []pourCase{
		genPour(rng, "no table", 0, false),
		genPour(rng, "one table", 1, false),
		genPour(rng, "two tables, WHERE", 2, true),
		genPour(rng, "210 tables", 210, false),
		genPour(rng, "210 tables, WHERE", 210, true),
	}
	// Timestamps and versions are quoted strings in the text, and a
	// string column takes them as written, nanoseconds included.
	retyped := genPour(rng, "constants into string columns", 3, false)
	retyped.setup[0] = strings.NewReplacer("ct timestamp", "ct string", "cv version", "cv string").Replace(retyped.setup[0])
	cases = append(cases, retyped)
	missing := genPour(rng, "missing table", 3, false)
	missing.step.From[1] = "nosuch"
	arity := genPour(rng, "arity", 3, false)
	arity.step.Cols = arity.step.Cols[1:]
	conversion := genPour(rng, "conversion", 3, false)
	conversion.setup[0] = strings.Replace(conversion.setup[0], "s string", "s integer", 1)
	conversion.setup = append(conversion.setup, "INSERT INTO pr_2 VALUES (0, 1.5, 'seven')")
	compound := genPour(rng, "compound", 3, false)
	compound.setup = append(compound.setup, "DROP TABLE pr_1", "CREATE TABLE pr_1 (n integer, v float, s boolean)")
	constants := genPour(rng, "constants per table", 3, false)
	constants.step.Rows[1] = constants.step.Rows[1][1:]
	for _, c := range []pourCase{missing, arity, conversion, compound, constants} {
		c.fails = true
		cases = append(cases, c)
	}
	return cases
}

// pourSides runs a case's pour on one database and the statement
// RenderPour prints for it on another, each through a pipeline, and
// returns both errors.
func pourSides(t *testing.T, c pourCase, pour, text Pipeliner) (pourErr, textErr error) {
	t.Helper()
	for _, q := range c.setup {
		for _, p := range []Pipeliner{pour, text} {
			if _, err := p.ExecPipeline([]PipelineRequest{{SQL: q}}); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	_, pourErr = pour.ExecPipeline([]PipelineRequest{c.step})
	insert, _, err := RenderPour(c.step)
	if err == nil && insert != "" {
		_, err = text.ExecPipeline([]PipelineRequest{{SQL: insert}})
	} else if err != nil {
		err = fmt.Errorf("sqldb: pipeline request 0: %w", err)
	}
	return pourErr, err
}

// TestPourMatchesCompoundInsert: a pour leaves the table the INSERT ...
// SELECT RenderPour prints for it leaves — cell for cell, in as many
// chunks — and fails where the statement fails, with the same error.
func TestPourMatchesCompoundInsert(t *testing.T) {
	for _, c := range pourCases() {
		t.Run(c.name, func(t *testing.T) {
			a, b := NewMemory(), NewMemory()
			pourErr, textErr := pourSides(t, c, a, b)
			if fmt.Sprint(pourErr) != fmt.Sprint(textErr) ||
				errors.Is(pourErr, ErrInsertArity) != errors.Is(textErr, ErrInsertArity) ||
				errors.Is(pourErr, ErrCompound) != errors.Is(textErr, ErrCompound) {
				t.Fatalf("poured: %v\nas text: %v", pourErr, textErr)
			}
			if c.fails != (pourErr != nil) {
				t.Fatalf("error %v", pourErr)
			}
			if got, want := tableDump(t, a, "dst"), tableDump(t, b, "dst"); got != want {
				t.Errorf("poured:\n%s\nas text:\n%s", got, want)
			}
			ta, _ := a.state.Load().table("dst")
			tb, _ := b.state.Load().table("dst")
			if ca, cb := len(mustChunks(t, ta)), len(mustChunks(t, tb)); ca != cb {
				t.Errorf("poured into %d chunks, the text into %d", ca, cb)
			}
		})
	}
}

// TestPourCostPerTable guards what a pour costs as a source grows: an
// added table is an added branch of a syntax tree carved from shared
// arrays, so it costs a lookup and a scan, not a parse. A pour of plain
// columns into a temp table gathers its vectors into one columnar chunk
// with scratch every branch shares, and costs no more.
func TestPourCostPerTable(t *testing.T) {
	cost := func(sql string, columnar bool, tables, rows int) float64 {
		db := NewMemory()
		sourceLike(t, db, tables, rows)
		step := PipelineRequest{SQL: sql, Table: "vec",
			Cols: []string{"fs", "run", "op", "chunk", "bw"}}
		for i := 0; i < tables; i++ {
			step.From = append(step.From, fmt.Sprintf("run_%d", i))
			step.Rows = append(step.Rows, Row{value.NewString(fmt.Sprintf("fs%d", i%3)), value.NewInt(int64(i))})
		}
		create := PipelineRequest{SQL: "CREATE TEMP TABLE vec (fs string, run integer, op string, chunk integer, bw float)"}
		return testing.AllocsPerRun(10, func() {
			res, err := db.ExecPipeline([]PipelineRequest{create, step})
			if err != nil {
				t.Fatal(err)
			}
			if res[1].Affected != tables*rows {
				t.Fatalf("affected %d, want %d", res[1].Affected, tables*rows)
			}
			if tab, _ := db.state.Load().table("vec"); (tab.list[0].cols != nil) != columnar {
				t.Fatalf("%q: columnar chunk = %v", sql, tab.list[0].cols != nil)
			}
			mustExec(t, db, "DROP TABLE vec")
		})
	}
	for _, pour := range []struct {
		sql      string
		columnar bool
	}{{"SELECT op, chunk, (bw * 0.001) AS bw", false}, {"SELECT op, chunk, bw", true}} {
		sql := pour.sql
		small, wide, tall := cost(sql, pour.columnar, 40, 8), cost(sql, pour.columnar, 80, 8), cost(sql, pour.columnar, 40, 64)
		perTable := (wide - small) / 40
		t.Logf("%q: allocations: %.0f at 40 tables × 8 rows, %.0f at 80 × 8 (%.2f a table), %.0f at 40 × 64", sql, small, wide, perTable, tall)
		if perTable > 4 {
			t.Errorf("%q: an added table costs %.2f allocations, want at most 4", sql, perTable)
		}
		if tall > small+2 {
			t.Errorf("%q: 56 more rows a table cost %.0f allocations more: rows are no longer poured in place", sql, tall-small)
		}
	}
}

// TestPourIntoDurableTableReplays: a pour into a durable table logs the
// statement it stands for, so a database that exits without Close
// replays it into the same table; a pour into a temp table logs
// nothing.
func TestPourIntoDurableTableReplays(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := genPour(rand.New(rand.NewSource(7)), "durable", 30, false)
	for _, q := range c.setup {
		mustExec(t, db, strings.Replace(q, "TEMP ", "", 1))
	}
	lsn := db.Pos().LSN
	if _, err := db.ExecPipeline([]PipelineRequest{c.step}); err != nil {
		t.Fatal(err)
	}
	if got := db.Pos().LSN; got != lsn+1 {
		t.Fatalf("the pour moved the log from %d to %d, want one frame", lsn, got)
	}
	want := tableDump(t, db, "dst")
	mustExec(t, db, "CREATE TEMP TABLE tmp ("+pourDst+")")
	lsn = db.Pos().LSN
	c.step.Table = "tmp"
	if _, err := db.ExecPipeline([]PipelineRequest{c.step}); err != nil {
		t.Fatal(err)
	}
	if got := db.Pos().LSN; got != lsn {
		t.Errorf("a pour into a temp table logged %d frames", got-lsn)
	}
	db.Crash()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := tableDump(t, re, "dst"); got != want || want == "" {
		t.Errorf("replayed:\n%s\npoured:\n%s", got, want)
	}
}

// TestNonFiniteFloatSurvivesReplay: NaN, ±Inf and the most negative
// integer, committed through a typed insert, are logged as literals the
// parser reads back, so a database that exits without Close reopens
// with them.
func TestNonFiniteFloatSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (x float, i integer)")
	rows := []Row{
		{value.NewFloat(math.NaN()), value.NewInt(math.MinInt64)},
		{value.NewFloat(1), value.NewInt(1)},
		{value.NewFloat(math.Inf(1)), value.NewInt(math.MaxInt64)},
		{value.NewFloat(math.Inf(-1)), value.Null(value.Integer)},
	}
	if _, err := db.InsertRows("t", []string{"x", "i"}, rows); err != nil {
		t.Fatal(err)
	}
	// The constants a source puts in front of a run's columns.
	mustExec(t, db, "CREATE TABLE u (x float, i integer, y float)")
	mustExec(t, db, "INSERT INTO u SELECT "+rows[0][0].SQL()+", "+rows[0][1].SQL()+", x FROM t")
	want := map[string]string{"t": tableDump(t, db, "t"), "u": tableDump(t, db, "u")}
	db.Crash()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for table, w := range want {
		if got := tableDump(t, re, table); got != w {
			t.Errorf("%s after replay:\n%s\nwant:\n%s", table, got, w)
		}
	}
}

// pourColsSrc is the shape of the tables the columnar pours read: a
// column of every type the pour gathers as vectors, and a timestamp.
const pourColsSrc = "n integer, f float, s string, v version, b boolean, ts timestamp"

// pourColsDst is their destination: constants of every vectorizable type
// in front, then the columns read off the tables, then a column no pour
// names.
const pourColsDst = "cs string, ci integer, cf float, cb boolean, cv version, n integer, f float, s string, v version, b boolean, rest integer"

// pourColsConsts draws one table's constants in pourColsCols order, each
// NULL now and then; the float is whole in some tables, which the text
// writes as an integer.
func pourColsConsts(rng *rand.Rand, i int) Row {
	row := Row{
		value.NewFloat([]float64{float64(i), float64(i) + 0.5, math.NaN(), math.Inf(-1), -0.0, 3e15}[rng.Intn(6)]),
		value.NewString([]string{"ufs", "it's", ""}[rng.Intn(3)]),
		value.NewInt([]int64{int64(i), -7, math.MinInt64}[rng.Intn(3)]),
		value.NewVersion(fmt.Sprintf("2.6.%d", rng.Intn(12))),
		value.NewBool(rng.Intn(2) == 0),
	}
	for j := range row {
		if rng.Intn(5) == 0 {
			row[j] = value.Null(row[j].Type())
		}
	}
	return row
}

// pourColsCols names the destination columns in an order of their own:
// the constants, then the items.
var pourColsCols = []string{"cf", "cs", "ci", "cv", "cb", "b", "s", "n", "v", "f"}

// pourColsRows inserts rows into table, in statements of the given sizes
// (each its own chunk when sizes shrink), with NULLs in every column.
func pourColsRows(t *testing.T, db *DB, rng *rand.Rand, table string, sizes ...int) {
	t.Helper()
	for _, size := range sizes {
		if size == 0 {
			continue
		}
		rows := make([]string, size)
		for r := range rows {
			cells := []string{
				fmt.Sprint(rng.Intn(9) - 4),
				[]string{"0.25", "-1.5", "'NaN'", "'Infinity'", "1e300"}[rng.Intn(5)],
				[]string{"'a'", "'b''c'", "''"}[rng.Intn(3)],
				fmt.Sprintf("'1.%d.%d'", rng.Intn(3), rng.Intn(12)),
				[]string{"TRUE", "FALSE"}[rng.Intn(2)],
				"'2005-09-01T10:00:00Z'",
			}
			for c := range cells {
				if rng.Intn(7) == 0 {
					cells[c] = "NULL"
				}
			}
			if cells[1] == "'NaN'" || cells[1] == "'Infinity'" {
				cells[1] = "CAST(" + cells[1] + " AS float)"
			}
			rows[r] = "(" + strings.Join(cells, ", ") + ")"
		}
		mustExec(t, db, "INSERT INTO "+table+" VALUES "+strings.Join(rows, ", "))
	}
}

// TestPourColumnsMatchRows: a pour of plain columns and constants into a
// temp table builds one columnar chunk, and the rows that chunk derives
// are, value for value and in as many chunks, the rows the row pour of a
// twin database with the vectorized path off leaves — from resident
// tables of one chunk or several, from checkpointed tables that stay
// cold, with and without a WHERE clause, with every constant NULL now
// and then. A timestamp destination and an expression item take the
// row pour, and a constant that does not convert fails as it does there.
func TestPourColumnsMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Two durable directories, filled alike and reopened, so that the
	// tables the pours read are cold: their chunks are checkpoint blocks.
	dirs := [2]string{t.TempDir(), t.TempDir()}
	const tables = 6
	for _, dir := range dirs {
		db, err := OpenWithPolicy(dir, SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		for i := 0; i < tables; i++ {
			table := fmt.Sprintf("cold_%d", i)
			mustExec(t, db, "CREATE TABLE "+table+" ("+pourColsSrc+")")
			pourColsRows(t, db, r, table, []int{5000, 3, 0, 700}[i%4], 40*i)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open := func(dir string, vectorized bool) *DB {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		db.SetVectorized(vectorized)
		t.Cleanup(func() { db.Close() })
		for i := 0; i < tables; i++ {
			table := fmt.Sprintf("hot_%d", i)
			mustExec(t, db, "CREATE TABLE "+table+" ("+pourColsSrc+")")
			// 600 then 300 then 200 rows stay three chunks; 5000 rows are
			// two morsels of one chunk.
			pourColsRows(t, db, rand.New(rand.NewSource(int64(i))), table, [][]int{{600, 300, 200}, {5000}, {1}, {}}[i%4]...)
		}
		return db
	}
	col, row := open(dirs[0], true), open(dirs[1], false)

	type pourColsCase struct {
		name     string
		dst      string // the destination's columns
		step     PipelineRequest
		columnar bool
	}
	gen := func(name, prefix, where string, n int) pourColsCase {
		c := pourColsCase{name: name, dst: pourColsDst, columnar: true,
			step: PipelineRequest{SQL: "SELECT b, s, n, v, f" + where, Table: "dst", From: []string{}, Cols: pourColsCols}}
		for i := 0; i < n; i++ {
			c.step.From = append(c.step.From, fmt.Sprintf("%s_%d", prefix, i%tables))
			consts := pourColsConsts(rng, i)
			if i == 0 {
				for j := range consts {
					consts[j] = value.Null(consts[j].Type())
				}
			}
			c.step.Rows = append(c.step.Rows, consts)
		}
		return c
	}
	cases := []pourColsCase{
		gen("resident tables", "hot", "", 9),
		gen("resident tables, WHERE", "hot", " WHERE n > 0 AND b", 9),
		gen("checkpointed tables", "cold", "", 9),
		gen("checkpointed tables, WHERE", "cold", " WHERE f < 1 OR s IS NULL", 9),
		gen("one table", "hot", "", 1),
	}
	stamped := gen("timestamp column", "hot", "", 3)
	stamped.dst = strings.Replace(stamped.dst, "rest integer", "rest timestamp", 1)
	stamped.columnar = false
	scaled := gen("expression item", "hot", "", 3)
	scaled.step.SQL = "SELECT b, s, n, v, (f * 0.5) AS f"
	scaled.columnar = false
	cases = append(cases, stamped, scaled)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, db := range []*DB{col, row} {
				mustExec(t, db, "CREATE TEMP TABLE dst ("+c.dst+")")
				if _, err := db.ExecPipeline([]PipelineRequest{c.step}); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				mustExec(t, col, "DROP TABLE dst")
				mustExec(t, row, "DROP TABLE dst")
			}()
			ta, _ := col.state.Load().table("dst")
			tb, _ := row.state.Load().table("dst")
			if columnar := len(ta.list) > 0 && ta.list[0].cols != nil; columnar != c.columnar {
				t.Fatalf("columnar chunk = %v, want %v", columnar, c.columnar)
			}
			if got, want := mustChunks(t, ta), mustChunks(t, tb); !reflect.DeepEqual(got, want) {
				t.Errorf("poured columns derive\n%v\nthe row pour leaves\n%v", got, want)
			}
		})
	}
	// The pours left the checkpointed tables cold; the row pours did not.
	for i := 0; i < tables; i++ {
		if tab, _ := col.state.Load().table(fmt.Sprintf("cold_%d", i)); tab.isCold() == false {
			t.Errorf("cold_%d hydrated", i)
		}
	}

	// CREATE TEMP TABLE ... AS of plain columns takes the same path, and
	// so does a copy of a columnar table, which reads its vectors.
	for _, c := range []struct{ table, sql string }{
		{"copy", "CREATE TEMP TABLE copy AS SELECT s, n, b FROM hot_0 WHERE n < 2 UNION ALL SELECT 'k', 7, NULL FROM cold_1"},
		{"again", "CREATE TEMP TABLE again AS SELECT * FROM copy WHERE b IS NULL OR n > 0"},
	} {
		for _, db := range []*DB{col, row} {
			mustExec(t, db, c.sql)
		}
		ta, _ := col.state.Load().table(c.table)
		tb, _ := row.state.Load().table(c.table)
		if len(ta.list) != 1 || ta.list[0].cols == nil {
			t.Errorf("%s: poured %d chunks, columnar %v", c.sql, len(ta.list), len(ta.list) > 0 && ta.list[0].cols != nil)
		}
		if got, want := mustChunks(t, ta), mustChunks(t, tb); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: columns derive\n%v\nrows\n%v", c.sql, got, want)
		}
	}

	// A constant that does not convert fails the columnar pour as it fails
	// the row pour, and a branch that yields no row does not convert it.
	bad := gen("conversion", "hot", "", 2)
	for _, consts := range bad.step.Rows {
		consts[2] = value.NewString("seven") // into ci integer
	}
	var errs []string
	for _, db := range []*DB{col, row} {
		mustExec(t, db, "CREATE TEMP TABLE dst ("+pourColsDst+")")
		for _, from := range [][]string{{"hot_3", "hot_1"}, {"hot_3", "hot_3"}} { // hot_3 is empty
			bad.step.From = from
			_, err := db.ExecPipeline([]PipelineRequest{bad.step})
			errs = append(errs, fmt.Sprint(err))
		}
	}
	if errs[0] == "<nil>" || errs[0] != errs[2] || errs[1] != "<nil>" || errs[3] != "<nil>" {
		t.Errorf("columnar pour: %s, then %s; row pour: %s, then %s", errs[0], errs[1], errs[2], errs[3])
	}
}
