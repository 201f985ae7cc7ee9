package sqldb

import (
	"fmt"
	"testing"

	"perfbase/internal/value"
)

// benchBlockRows is the cold-scan dataset size: 512k rows = 128 column
// blocks of vecMorselRows each, with k strictly increasing so a k-range
// predicate maps to a contiguous block run.
const benchBlockRows = 128 * vecMorselRows

// benchBlockDB builds a durable database with the bench shape,
// checkpoints it (writing columns.blk and hanging the blocks on the
// table's chunk),
// and caps the column cache far below the data size so every scan
// hydrates vectors from compressed blocks — the cold-cache regime the
// PR's acceptance benchmarks measure.
func benchBlockDB(b *testing.B, nrows int) *DB {
	b.Helper()
	db, err := OpenWithPolicy(b.TempDir(), SyncOff)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE bench (k integer, g string, v integer, f float)"); err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, nrows)
	for i := range rows {
		rows[i] = Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("g%02d", (i*7)%64)),
			value.NewInt(int64(i%1000 - 500)),
			value.NewFloat(float64(i%997) * 0.5),
		}
	}
	if _, err := db.InsertRows("bench", []string{"k", "g", "v", "f"}, rows); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if tab, _ := db.state.Load().table("bench"); tab.builtChunks()[0].blocks.Load() == nil {
		b.Fatal("checkpoint did not hang the table's blocks on its chunk")
	}
	db.ColumnCacheLimit(1 << 16)
	b.Cleanup(db.crashWAL) // skip the closing checkpoint; TempDir removes the files
	return db
}

// BenchmarkColdScanSelective is the acceptance benchmark: a predicate
// matching 1 of 128 blocks (0.78%), data on disk, cache cold. With
// zone maps the scan reads one block per referenced column; without
// them it decompresses the whole table. The bar is >=3x (bench.sh
// records both sides in BENCH_PR6.json).
func BenchmarkColdScanSelective(b *testing.B) {
	lo := int64(62 * vecMorselRows) // block-aligned: exactly block 62
	sql := fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM bench WHERE k BETWEEN %d AND %d",
		lo, lo+vecMorselRows-1)
	for _, mode := range []string{"zone", "nozone"} {
		b.Run(mode, func(b *testing.B) {
			db := benchBlockDB(b, benchBlockRows)
			db.SetZoneMaps(mode == "zone")
			res, err := db.Exec(sql)
			if err != nil {
				b.Fatal(err)
			}
			if n := res.Rows[0][0].Int(); n != vecMorselRows {
				b.Fatalf("predicate matched %d rows, want %d", n, vecMorselRows)
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

// BenchmarkColdScanSkipRatio sweeps the predicate width from 1 block
// to half the table, charting how the zone-map win decays as
// selectivity drops.
func BenchmarkColdScanSkipRatio(b *testing.B) {
	for _, blocks := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			db := benchBlockDB(b, benchBlockRows)
			lo := int64(32 * vecMorselRows)
			sql := fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM bench WHERE k BETWEEN %d AND %d",
				lo, lo+int64(blocks*vecMorselRows)-1)
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

// BenchmarkColdVectorHydration isolates the hydration cost itself on
// an unselective aggregate (no pruning possible): decoding compressed
// blocks from disk vs rebuilding vectors from the row chunks. Both run
// with the same near-zero cache, so every morsel pays the full cost.
func BenchmarkColdVectorHydration(b *testing.B) {
	const sql = "SELECT g, COUNT(*), SUM(v) FROM bench GROUP BY g"
	for _, mode := range []string{"blocks", "rows"} {
		b.Run(mode, func(b *testing.B) {
			db := benchBlockDB(b, benchBlockRows/4) // 32 blocks: keep setup fast
			if mode == "rows" {
				tab, _ := db.state.Load().table("bench")
				for _, ch := range tab.builtChunks() {
					ch.blocks.Store(nil) // force buildColVec from row chunks
				}
			}
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
