package sqldb

import (
	"fmt"
	"testing"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// benchJoinDBs builds the acceptance-benchmark join pair: a 1M-row
// probe table whose key column spreads over the 100k-row build side's
// key space (every probe row matches exactly one build row).
func benchJoinDB(b *testing.B, probeRows, buildRows int) *DB {
	b.Helper()
	db := NewMemory()
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, g string, v integer)",
		"CREATE TABLE build (k integer, w integer)",
	} {
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	groups := make([]string, 32)
	for i := range groups {
		groups[i] = fmt.Sprintf("g%02d", i)
	}
	rows := make([]Row, probeRows)
	for i := range rows {
		rows[i] = Row{
			value.NewInt(int64((i * 13) % buildRows)),
			value.NewString(groups[(i*7)%len(groups)]),
			value.NewInt(int64(i%1000 - 500)),
		}
	}
	if _, err := db.InsertRows("probe", []string{"k", "g", "v"}, rows); err != nil {
		b.Fatal(err)
	}
	rows = make([]Row, buildRows)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(i)), value.NewInt(int64(i % 4096))}
	}
	if _, err := db.InsertRows("build", []string{"k", "w"}, rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkVectorHashJoin is a 1M-probe/100k-build equi-join with a
// grouped aggregate, row engine vs vectorized hash join; the bar is
// vec >= 2x row at GOMAXPROCS=1, the proc count CI's "Vectorized
// hash-join benchmarks" step pins.
func BenchmarkVectorHashJoin(b *testing.B) {
	const sql = "SELECT probe.g, COUNT(*), SUM(build.w) FROM probe JOIN build ON probe.k = build.k GROUP BY probe.g"
	for _, mode := range []string{"row", "vec"} {
		b.Run(mode, func(b *testing.B) {
			db := benchJoinDB(b, 1_000_000, 100_000)
			db.SetVectorized(mode == "vec")
			if _, err := db.Exec(sql); err != nil { // warm plan + column cache
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

// BenchmarkVectorHashJoinMaterialize measures the non-fused path: the
// join materializes its output rows (late — only surviving pairs copy
// payloads) and the row loops finish the query.
func BenchmarkVectorHashJoinMaterialize(b *testing.B) {
	const sql = "SELECT probe.v, build.w FROM probe JOIN build ON probe.k = build.k WHERE probe.v > 490"
	for _, mode := range []string{"row", "vec"} {
		b.Run(mode, func(b *testing.B) {
			db := benchJoinDB(b, 1_000_000, 100_000)
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

// BenchmarkVectorHashJoinMorsels measures worker scaling on the
// morsel-parallel probe. Each morsel is charged a fixed service time
// through the sqldb/vector/morsel failpoint, so overlap across workers
// is measurable even on a single-CPU host.
func BenchmarkVectorHashJoinMorsels(b *testing.B) {
	if err := failpoint.Enable("sqldb/vector/morsel", "sleep(500us)"); err != nil {
		b.Fatal(err)
	}
	defer failpoint.DisableAll()
	const sql = "SELECT probe.g, COUNT(*), SUM(build.w) FROM probe JOIN build ON probe.k = build.k GROUP BY probe.g"
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db := benchJoinDB(b, 256_000, 32_000)
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

// BenchmarkColdJoinProbe measures the Bloom/min-max pushdown into the
// block scan: a checkpointed, cache-cold probe table with a
// monotonically increasing key joined against a build side covering
// only the low 1/8 of the key range. With zone maps on, 7/8 of the
// probe blocks skip decompression (skipped/op vs scanned/op report
// the exact counts from BlockStats); with them off every block
// decodes.
func BenchmarkColdJoinProbe(b *testing.B) {
	const nblocks = 64
	for _, mode := range []string{"zone", "nozone"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			db, err := OpenWithPolicy(dir, SyncOff)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for _, sql := range []string{
				"CREATE TABLE probe (k integer, v integer)",
				"CREATE TABLE build (k integer, w integer)",
			} {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
			prows := make([]Row, nblocks*vecMorselRows)
			for i := range prows {
				prows[i] = Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100))}
			}
			if _, err := db.InsertRows("probe", []string{"k", "v"}, prows); err != nil {
				b.Fatal(err)
			}
			brows := make([]Row, 8000)
			for i := range brows {
				brows[i] = Row{value.NewInt(int64(i % (nblocks / 8 * vecMorselRows))), value.NewInt(int64(i))}
			}
			if _, err := db.InsertRows("build", []string{"k", "w"}, brows); err != nil {
				b.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			db.ColumnCacheLimit(0) // cold: every scanned block decodes
			db.SetZoneMaps(mode == "zone")
			const sql = "SELECT COUNT(*), SUM(build.w) FROM probe JOIN build ON probe.k = build.k"
			if _, err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
			s0, k0 := db.BlockStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s1, k1 := db.BlockStats()
			b.ReportMetric(float64(s1-s0)/float64(b.N), "scanned/op")
			b.ReportMetric(float64(k1-k0)/float64(b.N), "skipped/op")
		})
	}
}

// BenchmarkRelateJoin measures the relating operator of the paper's
// Fig. 8 query as the query engine states it (internal/query, operator
// percentof): two 24-row vectors, one row per (op, S_chunk), joined on
// both parameters into a temporary table, ordered by them. Each
// iteration also drops the table it made.
func BenchmarkRelateJoin(b *testing.B) {
	const relate = "CREATE TEMP TABLE rel AS SELECT a.op AS op, a.S_chunk AS S_chunk, a.bw / b.bw * 100 AS bw " +
		"FROM agg_new a JOIN agg_old b ON a.op = b.op AND a.S_chunk = b.S_chunk ORDER BY a.op, a.S_chunk"
	for _, mode := range []string{"row", "vec"} {
		b.Run(mode, func(b *testing.B) {
			db := NewMemory()
			defer db.Close()
			for _, t := range []string{"agg_old", "agg_new"} {
				if _, err := db.Exec("CREATE TEMP TABLE " + t + " (op string, S_chunk integer, bw float)"); err != nil {
					b.Fatal(err)
				}
				var rows []Row
				for _, op := range []string{"write", "rewrite", "read", "scatter"} {
					for c := range 6 {
						rows = append(rows, Row{value.NewString(op), value.NewInt(int64(1024 << c)), value.NewFloat(float64(len(rows)) + 0.5)})
					}
				}
				if _, err := db.InsertRows(t, []string{"op", "S_chunk", "bw"}, rows); err != nil {
					b.Fatal(err)
				}
			}
			db.SetVectorized(mode == "vec")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(relate); err != nil {
					b.Fatal(err)
				}
				if _, err := db.Exec("DROP TABLE rel"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
