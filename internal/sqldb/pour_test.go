package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	want  string // what the error says, when set
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
	// The first row fails in an expression before a constant after it
	// fails to convert: the expression's error is the one returned.
	order := genPour(rng, "expression fails before a constant", 3, false)
	order.setup[0] = strings.Replace(order.setup[0], ", s string", ", s integer", 1)
	order.setup = append(order.setup, "INSERT INTO pr_0 VALUES (1, 1.5, 'a')")
	order.step.SQL = "SELECT n, (n / 0) AS v, 'seven' AS s"
	order.want = "integer division by zero"
	for _, c := range []pourCase{missing, arity, conversion, compound, constants, order} {
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
			if c.fails != (pourErr != nil) || c.want != "" && !strings.Contains(fmt.Sprint(pourErr), c.want) {
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
// arrays, so it costs a lookup and a scan, not a parse. A pour into a
// temp table gathers one columnar chunk with scratch every branch
// shares — plain columns as vectors, an expression row by row — and
// costs no more.
func TestPourCostPerTable(t *testing.T) {
	cost := func(sql string, tables, rows int) float64 {
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
			if tab, _ := db.state.Load().table("vec"); len(tab.list) != 1 || tab.list[0].cols == nil {
				t.Fatalf("%q: %d chunks, columnar %v", sql, len(tab.list), tab.list[0].cols != nil)
			}
			mustExec(t, db, "DROP TABLE vec")
		})
	}
	for _, sql := range []string{"SELECT op, chunk, (bw * 0.001) AS bw", "SELECT op, chunk, bw"} {
		small, wide, tall := cost(sql, 40, 8), cost(sql, 80, 8), cost(sql, 40, 64)
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

// TestPourColumnsMatchRows: every pour into a temp table with no index
// builds one columnar chunk, and the rows that chunk derives are, value
// for value and in as many chunks, the rows the row engine's answer to
// the same SELECT leaves when InsertRows appends it — the definition of
// INSERT ... SELECT. A durable or indexed destination gets those rows as
// rows. The tables read are resident, of one chunk or several, or
// checkpointed and cold, which a pour of vectors leaves cold; the WHERE
// clause is absent, one the batch back end takes or one it declines; the
// items are plain columns, a column converted on its way, an expression
// and a timestamp, behind constants that are NULL now and then. A
// compound with a joined branch adds its rows, and a constant that does
// not convert fails.
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
	// row answers the SELECTs, with the row engine, and holds what
	// InsertRows appends of their rows.
	col, row := open(dirs[0], true), open(dirs[1], false)
	// reference appends the row engine's answer to sel to row's table.
	reference := func(t *testing.T, table string, cols []string, sel string) {
		t.Helper()
		if _, err := row.InsertRows(table, cols, mustExec(t, row, sel).Rows); err != nil {
			t.Fatal(err)
		}
	}
	stillCold := func(t *testing.T) {
		t.Helper()
		for i := 0; i < tables; i++ {
			if tab, _ := col.state.Load().table(fmt.Sprintf("cold_%d", i)); !tab.isCold() {
				t.Errorf("cold_%d hydrated", i)
			}
		}
	}

	type pourColsCase struct {
		name     string
		create   []string // the destination's statements
		step     PipelineRequest
		sel      string // a SELECT poured by INSERT in place of the step, when set
		columnar bool
		hydrates bool // reads the checkpointed tables' rows
	}
	gen := func(name, prefix, where string, n int) pourColsCase {
		c := pourColsCase{name: name, create: []string{"CREATE TEMP TABLE dst (" + pourColsDst + ")"}, columnar: true,
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
		gen("WHERE the batch back end declines", "hot", " WHERE n % 2 = 0", 9),
	}
	stamped := gen("timestamp destination", "hot", "", 3)
	stamped.create[0] = strings.Replace(stamped.create[0], "rest integer", "rest timestamp", 1)
	read := gen("timestamp column", "hot", "", 5)
	read.create = stamped.create
	read.step.SQL, read.step.Cols = "SELECT b, s, n, v, f, ts", append(slices.Clip(pourColsCols), "rest")
	scaled := gen("expression item", "hot", "", 3)
	scaled.step.SQL = "SELECT b, s, n, v, (f * 0.5) AS f"
	widened := gen("integer column into a float column", "hot", "", 5)
	widened.step.SQL = "SELECT b, s, n, v, n WHERE n > 0"
	durable := gen("durable destination", "cold", "", 5)
	durable.create[0] = strings.Replace(durable.create[0], "TEMP ", "", 1)
	durable.columnar = false
	indexed := gen("indexed temp destination", "hot", "", 5)
	indexed.create = append(indexed.create, "CREATE INDEX ON dst (n)")
	indexed.columnar = false
	joined := gen("compound with a joined branch", "hot", "", 0)
	joined.sel = "SELECT 1.5, 'x', 2, '1.0', TRUE, b, s, n, v, f FROM hot_0 UNION ALL " +
		"SELECT 2.5, 'y', 3, '1.1', FALSE, a.b, a.s, a.n, a.v, a.f FROM hot_1 a JOIN hot_2 c ON a.n = c.n"
	joined.columnar = false
	// The expression reads the checkpointed tables' rows, so it comes last.
	coldScaled := gen("expression over checkpointed tables", "cold", "", 9)
	coldScaled.step.SQL = "SELECT b, s, n, v, (f * 0.5) AS f"
	coldScaled.hydrates = true
	cases = append(cases, stamped, read, scaled, widened, durable, indexed, joined, coldScaled)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, db := range []*DB{col, row} {
				for _, q := range c.create {
					mustExec(t, db, q)
				}
			}
			defer func() {
				mustExec(t, col, "DROP TABLE dst")
				mustExec(t, row, "DROP TABLE dst")
			}()
			sel := c.sel
			if sel != "" {
				mustExec(t, col, "INSERT INTO dst ("+strings.Join(c.step.Cols, ", ")+") "+sel)
			} else {
				if _, err := col.ExecPipeline([]PipelineRequest{c.step}); err != nil {
					t.Fatal(err)
				}
				var err error
				if _, sel, err = RenderPour(c.step); err != nil {
					t.Fatal(err)
				}
			}
			reference(t, "dst", c.step.Cols, sel)
			ta, _ := col.state.Load().table("dst")
			tb, _ := row.state.Load().table("dst")
			if len(ta.list) != 1 || (ta.list[0].cols != nil) != c.columnar {
				t.Fatalf("%d chunks, columnar %v, want one, columnar %v", len(ta.list), len(ta.list) > 0 && ta.list[0].cols != nil, c.columnar)
			}
			if got, want := mustChunks(t, ta), mustChunks(t, tb); !reflect.DeepEqual(got, want) {
				t.Errorf("the pour leaves\n%v\nInsertRows of the SELECT's rows\n%v", got, want)
			}
			if !c.hydrates {
				stillCold(t)
			}
		})
	}

	// CREATE TEMP TABLE ... AS takes the same path, and so does a copy of
	// a columnar table, which reads its vectors.
	for _, c := range []struct{ table, sql string }{
		{"copy", "CREATE TEMP TABLE copy AS SELECT s, n, b FROM hot_0 WHERE n < 2 UNION ALL SELECT 'k', 7, NULL FROM cold_1"},
		{"again", "CREATE TEMP TABLE again AS SELECT * FROM copy WHERE b IS NULL OR n > 0"},
	} {
		mustExec(t, col, c.sql)
		ta, _ := col.state.Load().table(c.table)
		mustExec(t, row, strings.Replace(RenderCreateTable(c.table, ta.schema), "CREATE ", "CREATE TEMP ", 1))
		reference(t, c.table, nil, c.sql[strings.Index(c.sql, " AS ")+len(" AS "):])
		tb, _ := row.state.Load().table(c.table)
		if len(ta.list) != 1 || ta.list[0].cols == nil {
			t.Errorf("%s: poured %d chunks, columnar %v", c.sql, len(ta.list), len(ta.list) > 0 && ta.list[0].cols != nil)
		}
		if got, want := mustChunks(t, ta), mustChunks(t, tb); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: columns derive\n%v\nrows\n%v", c.sql, got, want)
		}
	}

	// A constant that does not convert fails the pour, and a branch that
	// yields no row does not convert it.
	bad := gen("conversion", "hot", "", 2)
	for _, consts := range bad.step.Rows {
		consts[2] = value.NewString("seven") // into ci integer
	}
	mustExec(t, col, "CREATE TEMP TABLE dst ("+pourColsDst+")")
	var errs []error
	for _, from := range [][]string{{"hot_3", "hot_1"}, {"hot_3", "hot_3"}} { // hot_3 is empty
		bad.step.From = from
		_, err := col.ExecPipeline([]PipelineRequest{bad.step})
		errs = append(errs, err)
	}
	if !strings.Contains(fmt.Sprint(errs[0]), `column "ci"`) || errs[1] != nil {
		t.Errorf("pour: %v, then %v", errs[0], errs[1])
	}
}

// TestPourTimestampColumnGroups: a temp table poured with a timestamp
// column is one columnar chunk whose timestamp vector boxes the values
// poured, and the grouped scans over it — with and without GROUP BY,
// with the timestamp a bare column, a key, an aggregate's argument or
// inside a WHERE clause — answer as they do over the rows they were
// poured from.
func TestPourTimestampColumnGroups(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE u (ts timestamp, n integer, f float)")
	mustExec(t, db, "INSERT INTO u VALUES ('2024-01-02T03:04:05Z', 1, 1.5), (NULL, 2, 2.5), "+
		"('2024-01-03T00:00:00Z', 1, 4.0), ('2024-01-04T00:00:00Z', 3, NULL), ('2024-01-05T00:00:00Z', 2, 0.5)")
	mustExec(t, db, "CREATE TEMP TABLE x AS SELECT ts, n, f FROM u")
	tab, _ := db.state.Load().table("x")
	if len(tab.list) != 1 || tab.list[0].cols == nil {
		t.Fatalf("%d chunks, columnar %v", len(tab.list), len(tab.list) > 0 && tab.list[0].cols != nil)
	}
	src, _ := db.state.Load().table("u")
	v := db.env.cache.colFor(tab.list[0], 0, value.Timestamp)
	for i, row := range src.list[0].rows() {
		if got := v.box(i); got != row[0] {
			t.Errorf("row %d: the timestamp vector boxes %v, the source holds %v", i, got, row[0])
		}
	}
	for _, q := range []string{
		"SELECT MIN(ts), MAX(ts), COUNT(ts) FROM %s",
		"SELECT ts, COUNT(*) FROM %s GROUP BY ts ORDER BY ts",
		"SELECT n FROM %s WHERE ts > CAST('2024-01-02T12:00:00Z' AS timestamp) ORDER BY n",
		"SELECT AVG(f) FROM %s",
		"SELECT COUNT(*), STDDEV(f), MIN(n) FROM %s",
		"SELECT n, AVG(f) FROM %s GROUP BY n ORDER BY n",
		"SELECT ts, n, COUNT(*) FROM %s GROUP BY n ORDER BY n",
		"SELECT n, SUM(f) FROM %s WHERE ts IS NOT NULL GROUP BY n ORDER BY n",
		"SELECT ts, f FROM %s WHERE n > 1 ORDER BY f",
	} {
		got, want := mustExec(t, db, fmt.Sprintf(q, "x")), mustExec(t, db, fmt.Sprintf(q, "u"))
		if g, w := tableDumpOf(got), tableDumpOf(want); g != w {
			t.Errorf("%s\nover the pour:\n%s\nover its source:\n%s", q, g, w)
		}
	}
}

// TestPourThroughIndexProbeIsPointRead: a pour whose WHERE clause an
// index answers reads the matching rows only, as a point read, so the
// transaction it runs in commits past a writer of another key of the
// source table and conflicts with a writer of the key it read.
func TestPourThroughIndexProbeIsPointRead(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE kv (k integer, v integer)")
	mustExec(t, db, "CREATE INDEX ON kv (k)")
	mustExec(t, db, "INSERT INTO kv VALUES (1, 100), (2, 200), (3, 300)")
	mustExec(t, db, "CREATE TABLE out (v integer, w float)")
	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	for _, c := range []struct {
		write    string
		conflict bool
	}{{"UPDATE kv SET v = 333 WHERE k = 3", false}, {"UPDATE kv SET v = 111 WHERE k = 1", true}} {
		if _, err := a.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Exec("INSERT INTO out SELECT v, (v * 0.5) FROM kv WHERE k = 1"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Exec(c.write); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Exec("COMMIT"); errors.Is(err, ErrTxnConflict) != c.conflict || err != nil && !c.conflict {
			t.Fatalf("%s, then COMMIT: %v, want a conflict %v", c.write, err, c.conflict)
		}
	}
	if got := tableDump(t, db, "out"); got != "integer:100 float:50" {
		t.Errorf("out holds %q", got)
	}
}
