package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/value"
)

// columnarRuns creates n run tables of rows rows each, shaped like the
// runs of a message-size sweep: a message size, an iteration and two
// measured floats.
func columnarRuns(t *testing.T, db *DB, n, rows int) {
	t.Helper()
	vals := make([]string, rows)
	for r := range vals {
		vals[r] = fmt.Sprintf("(%d, %d, %d.25, %d.5)", 1<<(r%20), r/20, r%97, r%89)
	}
	for i := 1; i <= n; i++ {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE run_%d (msg integer, it integer, lat float, bw float)", i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO run_%d VALUES %s", i, strings.Join(vals, ", ")))
	}
}

// columnarPour is the pour of a source element over run_1 and run_2 into
// the temp table vec: two constants (the runs' once parameters), then
// the message size and the latency.
func columnarPour(t *testing.T, db *DB, vec string) {
	t.Helper()
	consts := Row{value.NewString("ib"), value.NewInt(2)}
	_, err := db.ExecPipeline([]PipelineRequest{
		{SQL: "CREATE TEMP TABLE " + vec + " (net string, nodes integer, msg integer, lat float)"},
		{SQL: "SELECT msg, lat", Table: vec, From: []string{"run_1", "run_2"}, Cols: []string{"net", "nodes", "msg", "lat"}, Rows: []Row{consts, consts}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// columnarReduce is an operator's statement over the vector vec: one
// aggregate of the latency per parameter set.
func columnarReduce(out, agg, vec string) string {
	return "CREATE TEMP TABLE " + out + " AS SELECT net, nodes, msg, " + agg + "(lat) AS lat FROM " + vec +
		" GROUP BY net, nodes, msg ORDER BY net, nodes, msg"
}

// TestColumnarVectorsStayColumns: a query's vectors stay columns from the
// source's pour to the last operator. Grouped AVG and STDDEV over a
// 40 000-row poured vector derive no row and answer what the row engine
// answers; a pour from a checkpointed run table leaves it cold; and the
// SELECT a vector's Fetch runs derives its rows once, however often it
// runs.
func TestColumnarVectorsStayColumns(t *testing.T) {
	col, row := NewMemory(), NewMemory()
	row.SetVectorized(false)
	for _, db := range []*DB{col, row} {
		columnarRuns(t, db, 2, 20000)
		columnarPour(t, db, "vec")
	}
	derived := func() int64 { return col.env.derived.Load() }
	for _, agg := range []string{"AVG", "STDDEV", "VARIANCE"} {
		for _, db := range []*DB{col, row} {
			mustExec(t, db, columnarReduce("red", agg, "vec"))
		}
		if got, want := tableDump(t, col, "red"), tableDump(t, row, "red"); got != want {
			t.Errorf("%s: over columns\n%s\nover rows\n%s", agg, got, want)
		}
		for _, db := range []*DB{col, row} {
			mustExec(t, db, "DROP TABLE red")
		}
	}
	if n := derived(); n != 0 {
		t.Fatalf("grouped AVG, STDDEV and VARIANCE over the poured vector derived %d rows", n)
	}

	// The SELECT a Fetch runs, twice: the rows are derived the first time.
	const fetch = "SELECT net, nodes, msg, lat FROM vec"
	for pass := 1; pass <= 2; pass++ {
		if got, want := fmtViewResult(mustExec(t, col, fetch)), fmtViewResult(mustExec(t, row, fetch)); got != want {
			t.Fatalf("pass %d: the fetch of the poured vector differs from the row engine's", pass)
		}
		if n := derived(); n != 40000 {
			t.Fatalf("pass %d: %d rows derived, want the vector's 40000, once", pass, n)
		}
	}

	// A pour from a checkpointed run table reads its blocks: the table
	// stays cold.
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	columnarRuns(t, db, 2, 5000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	columnarPour(t, db, "vec")
	mustExec(t, db, columnarReduce("red", "STDDEV", "vec"))
	if n := db.env.hydrated.Load(); n != 0 {
		t.Errorf("a pour and a reduction over checkpointed run tables hydrated %d of them", n)
	}
	for _, name := range []string{"run_1", "run_2"} {
		if tab, _ := db.state.Load().table(name); !tab.isCold() {
			t.Errorf("%s is no longer cold", name)
		}
	}
	if n := db.env.derived.Load(); n != 0 {
		t.Errorf("%d rows derived", n)
	}
}

// TestColumnarChunkConcurrentReads: a level's two operators read one
// source vector at once, and a Fetch derives the vector's rows while a
// batch scan reads its vectors; every answer is the one a lone reader
// gets. Run under the race detector at several GOMAXPROCS.
func TestColumnarChunkConcurrentReads(t *testing.T) {
	db := NewMemory()
	columnarRuns(t, db, 2, 20000)
	columnarPour(t, db, "vec")
	want := map[string]string{}
	for _, agg := range []string{"AVG", "STDDEV"} {
		mustExec(t, db, columnarReduce("lone", agg, "vec"))
		want[agg] = tableDump(t, db, "lone")
		mustExec(t, db, "DROP TABLE lone")
	}
	const fetch = "SELECT net, nodes, msg, lat FROM vec"
	wantFetch := fmtViewResult(mustExec(t, db, fetch))
	for round := 0; round < 3; round++ {
		vec := fmt.Sprint("vec", round)
		columnarPour(t, db, vec) // its rows not derived yet
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for i, agg := range []string{"AVG", "STDDEV"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := fmt.Sprintf("red%d_%d", round, i)
				if _, err := db.Exec(columnarReduce(out, agg, vec)); err != nil {
					errs <- err
					return
				}
				res, err := db.Exec("SELECT * FROM " + out)
				if err == nil && tableDumpOf(res) != want[agg] {
					err = fmt.Errorf("%s read concurrently differs", agg)
				}
				errs <- err
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Exec(strings.Replace(fetch, "vec", vec, 1))
			if err == nil && fmtViewResult(res) != wantFetch {
				err = fmt.Errorf("the fetch during the scans differs")
			}
			errs <- err
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
