package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// arrays, so it costs a lookup and a scan, not a parse.
func TestPourCostPerTable(t *testing.T) {
	cost := func(tables, rows int) float64 {
		db := NewMemory()
		sourceLike(t, db, tables, rows)
		step := PipelineRequest{SQL: "SELECT op, chunk, (bw * 0.001) AS bw", Table: "vec",
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
			mustExec(t, db, "DROP TABLE vec")
		})
	}
	small, wide, tall := cost(40, 8), cost(80, 8), cost(40, 64)
	perTable := (wide - small) / 40
	t.Logf("allocations: %.0f at 40 tables × 8 rows, %.0f at 80 × 8 (%.2f a table), %.0f at 40 × 64", small, wide, perTable, tall)
	if perTable > 4 {
		t.Errorf("an added table costs %.2f allocations, want at most 4", perTable)
	}
	if tall > small+2 {
		t.Errorf("56 more rows a table cost %.0f allocations more: rows are no longer poured in place", tall-small)
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
