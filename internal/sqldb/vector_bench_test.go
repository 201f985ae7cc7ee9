package sqldb

import (
	"fmt"
	"strings"
	"testing"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// benchVectorDB builds a database with nrows of (k integer, g string,
// v integer, f float) — the shape the ISSUE's acceptance benchmarks
// measure: an aggregate + GROUP BY over >=100k rows.
func benchVectorDB(b *testing.B, nrows int) *DB {
	b.Helper()
	db := NewMemory()
	if _, err := db.Exec("CREATE TABLE bench (k integer, g string, v integer, f float)"); err != nil {
		b.Fatal(err)
	}
	groups := make([]string, 64)
	for i := range groups {
		groups[i] = fmt.Sprintf("g%02d", i)
	}
	rows := make([]Row, nrows)
	for i := range rows {
		rows[i] = Row{
			value.NewInt(int64(i)),
			value.NewString(groups[(i*7)%len(groups)]),
			value.NewInt(int64(i%1000 - 500)),
			value.NewFloat(float64(i%997) * 0.5),
		}
	}
	if _, err := db.InsertRows("bench", []string{"k", "g", "v", "f"}, rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkVectorGroupBy compares the row engine against the
// vectorized path on aggregate+GROUP BY over 128k rows, under two keys
// that change every row: a String with 64 values, and (int/) an Integer
// with 1 000, which every morsel's partial table opens in full. The
// acceptance bar is >=2x on the String key at GOMAXPROCS=1.
func BenchmarkVectorGroupBy(b *testing.B) {
	for _, bc := range []struct{ name, sql string }{
		{"", "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(f) FROM bench GROUP BY g"},
		{"int/", "SELECT v, COUNT(*), SUM(k), AVG(f) FROM bench GROUP BY v"},
	} {
		for _, mode := range []string{"row", "vec"} {
			b.Run(bc.name+mode, func(b *testing.B) {
				db := benchVectorDB(b, 128_000)
				db.SetVectorized(mode == "vec")
				if _, err := db.Exec(bc.sql); err != nil { // warm plan + column cache
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Exec(bc.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVectorGroupByKeyRuns is a perfbase operator's reduction of a
// source: one GROUP BY over every parameter, whose keys come in runs — a
// once parameter per run of the experiment (net, nodes: one value per
// 20 000 rows) and a swept one repeated per iteration (msg: runs of
// 1 000). BenchmarkVectorGroupBy, whose key changes every row, is the
// case without runs.
func BenchmarkVectorGroupByKeyRuns(b *testing.B) {
	const sql = "SELECT net, nodes, msg, AVG(lat), STDDEV(lat) FROM reduce GROUP BY net, nodes, msg"
	for _, mode := range []string{"row", "vec"} {
		b.Run(mode, func(b *testing.B) {
			db := NewMemory()
			mustExecB(b, db, "CREATE TABLE reduce (net string, nodes integer, msg integer, lat float)")
			nets := []string{"gige", "myri", "ib", "shm"}
			rows := make([]Row, 160_000)
			for i := range rows {
				run, rep := i/20_000, i/1_000
				rows[i] = Row{
					value.NewString(nets[run%len(nets)]),
					value.NewInt(int64(1 << (run % 5))),
					value.NewInt(int64(1 << (rep % 20))),
					value.NewFloat(float64(i%997) * 0.25),
				}
			}
			if _, err := db.InsertRows("reduce", []string{"net", "nodes", "msg", "lat"}, rows); err != nil {
				b.Fatal(err)
			}
			db.SetVectorized(mode == "vec")
			mustExecB(b, db, sql) // warm plan + column cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustExecB(b, db, sql)
			}
		})
	}
}

// BenchmarkVectorFilterScan compares a selective filtered projection —
// the scan/filter kernels without aggregation.
func BenchmarkVectorFilterScan(b *testing.B) {
	const sql = "SELECT k, v FROM bench WHERE v > 480 AND f < 400"
	for _, mode := range []string{"row", "vec"} {
		b.Run(mode, func(b *testing.B) {
			db := benchVectorDB(b, 128_000)
			db.SetVectorized(mode == "vec")
			if _, err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVecInList is a grouped scan of 5 040 rows, 24 to a run id,
// with no WHERE, with a BETWEEN and with an IN list of all 210 run ids in
// shuffled order: the batch path searches the list, so it costs about
// what the BETWEEN does.
func BenchmarkVecInList(b *testing.B) {
	db := NewMemory()
	mustExecB(b, db, "CREATE TABLE t (run_id integer, op string, bw float)")
	rows := make([]Row, 5040)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(i/24 + 1)), value.NewString([]string{"read", "write"}[i%2]), value.NewFloat(float64(i) / 3)}
	}
	if _, err := db.InsertRows("t", []string{"run_id", "op", "bw"}, rows); err != nil {
		b.Fatal(err)
	}
	ids := make([]string, 210)
	for i := range ids {
		ids[i] = fmt.Sprint((i*97)%210 + 1)
	}
	for _, c := range []struct{ name, where string }{
		{"none", ""},
		{"between", " WHERE run_id BETWEEN 1 AND 210"},
		{"in210", " WHERE run_id IN (" + strings.Join(ids, ", ") + ")"},
	} {
		sql := "SELECT op, COUNT(*), AVG(bw) FROM t" + c.where + " GROUP BY op"
		b.Run(c.name, func(b *testing.B) {
			if n := mustExecB(b, db, sql).Rows[0][1].Int(); n != 2520 {
				b.Fatalf("%s counts %d rows of op read, want 2520", sql, n)
			}
			for b.Loop() {
				mustExecB(b, db, sql)
			}
		})
	}
}

// BenchmarkVectorMorselScan measures worker scaling on the
// morsel-parallel scan. Each morsel is charged a fixed service time
// through the sqldb/vector/morsel failpoint (the same latency-model
// technique the replication benchmarks use), so overlap across workers
// is measurable even on a single-CPU host; the acceptance bar is
// >=1.7x going 1 -> 4 workers.
func BenchmarkVectorMorselScan(b *testing.B) {
	if err := failpoint.Enable("sqldb/vector/morsel", "sleep(500us)"); err != nil {
		b.Fatal(err)
	}
	defer failpoint.DisableAll()
	const sql = "SELECT g, COUNT(*), SUM(v) FROM bench GROUP BY g"
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db := benchVectorDB(b, 128_000)
			db.SetScanWorkers(workers)
			if _, err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVectorTopK measures the bounded-heap ORDER BY ... LIMIT
// fast path against the full stable sort (vectorized scan held
// constant; only the tail differs, so the row engine runs the same
// finish code with the same top-k optimisation — this benchmark
// contrasts small k against an effectively unbounded k).
func BenchmarkVectorTopK(b *testing.B) {
	for _, k := range []int{10, 100_000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			db := benchVectorDB(b, 128_000)
			sql := fmt.Sprintf("SELECT k, v FROM bench ORDER BY v, k LIMIT %d", k)
			if _, err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
