package sqldb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfbase/internal/value"
)

// oneColRows wraps a column of values as single-column rows, the shape
// encodeColBlock consumes.
func oneColRows(vals []value.Value) []Row {
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{v}
	}
	return rows
}

// vecEqual compares a decoded vector against the row-built reference
// bit-for-bit: same lane values (NaN payloads included), same null
// bitmap.
func vecEqual(t *testing.T, got, want *colVec, n int) {
	t.Helper()
	if got.typ != want.typ {
		t.Fatalf("type = %v, want %v", got.typ, want.typ)
	}
	if len(got.ints) != len(want.ints) || len(got.floats) != len(want.floats) || len(got.strs) != len(want.strs) {
		t.Fatalf("lane lengths = %d/%d/%d, want %d/%d/%d",
			len(got.ints), len(got.floats), len(got.strs),
			len(want.ints), len(want.floats), len(want.strs))
	}
	for i := 0; i < n; i++ {
		if got.null(i) != want.null(i) {
			t.Fatalf("row %d: null = %v, want %v", i, got.null(i), want.null(i))
		}
	}
	for i := range want.ints {
		if got.ints[i] != want.ints[i] {
			t.Fatalf("int row %d = %d, want %d", i, got.ints[i], want.ints[i])
		}
	}
	for i := range want.floats {
		if math.Float64bits(got.floats[i]) != math.Float64bits(want.floats[i]) {
			t.Fatalf("float row %d = %x, want %x", i, math.Float64bits(got.floats[i]), math.Float64bits(want.floats[i]))
		}
	}
	for i := range want.strs {
		if got.strs[i] != want.strs[i] {
			t.Fatalf("string row %d = %q, want %q", i, got.strs[i], want.strs[i])
		}
	}
}

// TestColBlockRoundtrip encodes characteristic column shapes and
// asserts (a) the encoder picked the expected encoding and (b) the
// decoded vector is identical to one built directly from the rows.
func TestColBlockRoundtrip(t *testing.T) {
	mixNulls := func(vals []value.Value, typ value.Type, every int) []value.Value {
		out := append([]value.Value(nil), vals...)
		for i := every - 1; i < len(out); i += every {
			out[i] = value.Null(typ)
		}
		return out
	}
	ints := func(f func(i int) int64, n int) []value.Value {
		out := make([]value.Value, n)
		for i := range out {
			out[i] = value.NewInt(f(i))
		}
		return out
	}
	cases := []struct {
		name    string
		typ     value.Type
		vals    []value.Value
		wantEnc uint8
	}{
		{"int_sequential", value.Integer, ints(func(i int) int64 { return int64(i) * 3 }, 1000), blkEncDelta},
		{"int_constant", value.Integer, ints(func(i int) int64 { return 42 }, 1000), blkEncRLE},
		// Alternating huge-magnitude values: every delta needs a 10-byte
		// zigzag varint, so the 8-byte raw lane wins.
		{"int_wild_swings", value.Integer, ints(func(i int) int64 {
			v := int64(1)<<62 + int64(i)
			if i%2 == 0 {
				return -v
			}
			return v
		}, 1000), blkEncRaw},
		{"int_negative_deltas", value.Integer, ints(func(i int) int64 { return -int64(i) * 1000 }, 1000), blkEncDelta},
		{"int_with_nulls", value.Integer, mixNulls(ints(func(i int) int64 { return int64(i) }, 1000), value.Integer, 7), blkEncDelta},
		// A timestamp is its Unix nanoseconds: one import a second deltas
		// to a few bytes a row.
		{"timestamp_with_nulls", value.Timestamp, mixNulls(func() []value.Value {
			out := make([]value.Value, 1000)
			for i := range out {
				out[i] = value.NewTimestampNano(1101234630e9 + int64(i)*1e9 + int64(i%3))
			}
			return out
		}(), value.Timestamp, 9), blkEncDelta},
		{"bool_constant", value.Boolean, func() []value.Value {
			out := make([]value.Value, 500)
			for i := range out {
				out[i] = value.NewBool(true)
			}
			return out
		}(), blkEncRLE},
		{"float_constant", value.Float, func() []value.Value {
			out := make([]value.Value, 500)
			for i := range out {
				out[i] = value.NewFloat(2.5)
			}
			return out
		}(), blkEncRLE},
		{"float_varied_nan", value.Float, func() []value.Value {
			out := make([]value.Value, 500)
			for i := range out {
				out[i] = value.NewFloat(float64(i) * 0.5)
			}
			out[100] = value.NewFloat(math.NaN())
			out[200] = value.NewFloat(math.Inf(1))
			return out
		}(), blkEncRaw},
		{"string_low_card", value.String, func() []value.Value {
			out := make([]value.Value, 1000)
			for i := range out {
				out[i] = value.NewString(fmt.Sprintf("g%02d", i%64))
			}
			return out
		}(), blkEncDict},
		{"string_constant", value.String, func() []value.Value {
			out := make([]value.Value, 500)
			for i := range out {
				out[i] = value.NewString("same")
			}
			return out
		}(), blkEncRLE},
		{"string_high_card", value.String, func() []value.Value {
			out := make([]value.Value, 2000)
			for i := range out {
				out[i] = value.NewString(fmt.Sprintf("unique-value-%08d", i))
			}
			return out
		}(), blkEncRaw},
		{"string_with_nulls", value.String, mixNulls(func() []value.Value {
			out := make([]value.Value, 1000)
			for i := range out {
				out[i] = value.NewString(fmt.Sprintf("g%d", i%8))
			}
			return out
		}(), value.String, 5), blkEncDict},
		{"all_null", value.Integer, mixNulls(ints(func(i int) int64 { return 0 }, 100), value.Integer, 1), blkEncRLE},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rows := oneColRows(tc.vals)
			meta, payload := encodeColBlock(rows, 0, tc.typ)
			if meta.Enc != tc.wantEnc {
				t.Errorf("encoding = %s, want %s", encName(meta.Enc), encName(tc.wantEnc))
			}
			if meta.Rows != len(rows) {
				t.Errorf("meta.Rows = %d, want %d", meta.Rows, len(rows))
			}
			nulls := 0
			for _, v := range tc.vals {
				if v.IsNull() {
					nulls++
				}
			}
			if meta.Nulls != nulls {
				t.Errorf("meta.Nulls = %d, want %d", meta.Nulls, nulls)
			}
			got, err := decodeColBlock(meta.Enc, payload, tc.typ, len(rows))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			vecEqual(t, got, buildColVec(rows, 0, tc.typ), len(rows))

			// The boxed values a hydration lays into rows must agree too.
			for i, want := range tc.vals {
				g := got.box(i)
				if g.IsNull() != want.IsNull() {
					t.Fatalf("value %d: null = %v, want %v", i, g.IsNull(), want.IsNull())
				}
				if want.IsNull() {
					continue
				}
				if g.Type() != tc.typ {
					t.Fatalf("value %d is a %s, want %s", i, g.Type(), tc.typ)
				}
				switch tc.typ {
				case value.Integer, value.Timestamp:
					if g.Int() != want.Int() {
						t.Fatalf("value %d = %d, want %d", i, g.Int(), want.Int())
					}
				case value.Boolean:
					if g.Bool() != want.Bool() {
						t.Fatalf("value %d = %v, want %v", i, g.Bool(), want.Bool())
					}
				case value.Float:
					if math.Float64bits(g.Float()) != math.Float64bits(want.Float()) {
						t.Fatalf("value %d = %v, want %v", i, g.Float(), want.Float())
					}
				case value.String:
					if g.Str() != want.Str() {
						t.Fatalf("value %d = %q, want %q", i, g.Str(), want.Str())
					}
				}
			}
		})
	}
}

// TestColBlockZoneMeta pins the zone-map construction rules: min/max
// over non-null values only, NaN excluded from float bounds but
// flagged, no bounds at all when nothing qualifies.
func TestColBlockZoneMeta(t *testing.T) {
	t.Run("int", func(t *testing.T) {
		vals := []value.Value{
			value.NewInt(5), value.Null(value.Integer), value.NewInt(-3), value.NewInt(12),
		}
		meta, _ := encodeColBlock(oneColRows(vals), 0, value.Integer)
		if !meta.HasMM || meta.MinI != -3 || meta.MaxI != 12 || meta.Nulls != 1 {
			t.Errorf("meta = %+v, want min -3 max 12 nulls 1", meta)
		}
	})
	t.Run("timestamp", func(t *testing.T) {
		vals := []value.Value{
			value.NewTimestampNano(7), value.Null(value.Timestamp), value.NewTimestampNano(-5e8), value.NewTimestampNano(2e9),
		}
		meta, _ := encodeColBlock(oneColRows(vals), 0, value.Timestamp)
		if !meta.HasMM || meta.MinI != -5e8 || meta.MaxI != 2e9 || meta.Nulls != 1 {
			t.Errorf("meta = %+v, want min -5e8 max 2e9 nulls 1", meta)
		}
	})
	t.Run("float_nan", func(t *testing.T) {
		vals := []value.Value{
			value.NewFloat(1.5), value.NewFloat(math.NaN()), value.NewFloat(-2.25), value.Null(value.Float),
		}
		meta, _ := encodeColBlock(oneColRows(vals), 0, value.Float)
		if !meta.HasMM || meta.MinF != -2.25 || meta.MaxF != 1.5 || !meta.HasNaN || meta.Nulls != 1 {
			t.Errorf("meta = %+v, want min -2.25 max 1.5 NaN-flag nulls 1", meta)
		}
	})
	t.Run("all_nan", func(t *testing.T) {
		vals := []value.Value{value.NewFloat(math.NaN()), value.NewFloat(math.NaN())}
		meta, _ := encodeColBlock(oneColRows(vals), 0, value.Float)
		if meta.HasMM || !meta.HasNaN {
			t.Errorf("meta = %+v, want no bounds + NaN flag", meta)
		}
	})
	t.Run("string", func(t *testing.T) {
		vals := []value.Value{value.NewString("mango"), value.NewString("apple"), value.NewString("pear")}
		meta, _ := encodeColBlock(oneColRows(vals), 0, value.String)
		if !meta.HasMM || meta.MinS != "apple" || meta.MaxS != "pear" {
			t.Errorf("meta = %+v, want min apple max pear", meta)
		}
	})
	t.Run("all_null", func(t *testing.T) {
		vals := []value.Value{value.Null(value.Integer), value.Null(value.Integer)}
		meta, _ := encodeColBlock(oneColRows(vals), 0, value.Integer)
		if meta.HasMM || meta.Nulls != 2 {
			t.Errorf("meta = %+v, want no bounds, 2 nulls", meta)
		}
	})
}

// mustChunks returns a table version's row chunks, hydrating it if it
// is cold.
func mustChunks(t testing.TB, tab *table) [][]Row {
	t.Helper()
	chunks, err := tab.chunks()
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// blockTestDB builds a durable database holding nrows of the bench
// shape plus NULLs sprinkled into v, checkpoints (writing columns.blk)
// and returns it open.
func blockTestDB(t *testing.T, dir string, nrows int) *DB {
	t.Helper()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE bench (k integer, g string, v integer, f float)")
	rows := make([]Row, nrows)
	for i := range rows {
		v := value.NewInt(int64(i%1000 - 500))
		if i%97 == 0 {
			v = value.Null(value.Integer)
		}
		rows[i] = Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("g%02d", (i*7)%64)),
			v,
			value.NewFloat(float64(i%997) * 0.5),
		}
	}
	if _, err := db.InsertRows("bench", []string{"k", "g", "v", "f"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestBlockStoreReopenColdScan reopens a checkpointed database with
// the column cache capped at zero, so every vectorized scan decodes
// compressed blocks, and cross-checks a spread of queries against a
// RAM-resident twin of the same data.
func TestBlockStoreReopenColdScan(t *testing.T) {
	dir := t.TempDir()
	const nrows = 3*vecMorselRows + 123 // 4 blocks, last one short
	db := blockTestDB(t, dir, nrows)
	queries := []string{
		"SELECT g, COUNT(*), SUM(v), MIN(k), MAX(k) FROM bench GROUP BY g ORDER BY g",
		"SELECT COUNT(*), SUM(v) FROM bench WHERE k BETWEEN 100 AND 150",
		"SELECT COUNT(*) FROM bench WHERE v IS NULL",
		"SELECT k, v FROM bench WHERE v > 495 ORDER BY k LIMIT 20",
		"SELECT COUNT(*), AVG(f) FROM bench WHERE f < 10.0",
		"SELECT g, COUNT(*) FROM bench WHERE g = 'g07' GROUP BY g",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = fmt.Sprint(mustExec(t, db, q).Rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.ColumnCacheLimit(0)
	for pass := 0; pass < 2; pass++ { // zone maps on, then off
		db2.SetZoneMaps(pass == 0)
		for i, q := range queries {
			if got := fmt.Sprint(mustExec(t, db2, q).Rows); got != want[i] {
				t.Errorf("pass %d query %q:\n got %s\nwant %s", pass, q, got, want[i])
			}
		}
	}
	scanned, skipped := db2.BlockStats()
	if scanned == 0 {
		t.Error("no block was ever decoded on the cold path")
	}
	if skipped == 0 {
		t.Error("zone maps never skipped a block despite selective predicates")
	}
}

// TestBlockZoneSkipCounts pins the exact skip arithmetic: with k
// increasing, a one-block range predicate must decode 1 of 3 blocks.
func TestBlockZoneSkipCounts(t *testing.T) {
	dir := t.TempDir()
	db := blockTestDB(t, dir, 3*vecMorselRows)
	defer db.Close()
	db.ColumnCacheLimit(0)

	s0, k0 := db.BlockStats()
	mustExec(t, db, fmt.Sprintf("SELECT COUNT(*) FROM bench WHERE k BETWEEN %d AND %d",
		vecMorselRows+10, vecMorselRows+20))
	s1, k1 := db.BlockStats()
	if s1-s0 != 1 || k1-k0 != 2 {
		t.Errorf("selective scan decoded %d skipped %d blocks, want 1/2", s1-s0, k1-k0)
	}

	db.SetZoneMaps(false)
	mustExec(t, db, fmt.Sprintf("SELECT COUNT(*) FROM bench WHERE k BETWEEN %d AND %d",
		vecMorselRows+10, vecMorselRows+20))
	s2, k2 := db.BlockStats()
	if s2-s1 != 3 || k2 != k1 {
		t.Errorf("zone-disabled scan decoded %d skipped %d blocks, want 3/0", s2-s1, k2-k1)
	}
}

// TestBlockFileChunkStructure asserts the checkpoint round-trips the
// chunk layout: after reopen the table has the same chunk boundaries —
// known before a row is read — and hydration fills chunks that carry
// their blocks.
func TestBlockFileChunkStructure(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	// Three separate bulk inserts produce three sealed-off chunks.
	for c := 0; c < 3; c++ {
		rows := make([]Row, 700+c)
		for i := range rows {
			rows[i] = Row{value.NewInt(int64(c*10000 + i))}
		}
		if _, err := db.InsertRows("t", []string{"a"}, rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	t1, _ := db.state.Load().table("t")
	lens := t1.chunkLens()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	t2, _ := db2.state.Load().table("t")
	if lens2 := t2.chunkLens(); fmt.Sprint(lens2) != fmt.Sprint(lens) || !t2.isCold() {
		t.Fatalf("chunk layout across reopen: %v -> %v (cold: %v)", lens, lens2, t2.isCold())
	}
	mustChunks(t, t2)
	for i, ch := range t2.builtChunks() {
		if len(ch.rows()) != lens[i] {
			t.Errorf("chunk %d hydrated with %d rows, want %d", i, len(ch.rows()), lens[i])
		}
		if sc := ch.blocks.Load(); sc == nil || sc.rows != lens[i] {
			t.Errorf("chunk %d (%d rows) not matched to its blocks", i, len(ch.rows()))
		}
	}
	// And writes still work on top of the hydrated chunks.
	mustExec(t, db2, "INSERT INTO t VALUES (999999)")
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if want := int64(700 + 701 + 702 + 1); res.Rows[0][0].Int() != want {
		t.Errorf("rows = %v, want %d", res.Rows[0][0], want)
	}
}

// TestBlockStoreStaleEpoch: a checkpoint older than the WAL beside it —
// restored from a backup, say — is not what the WAL's frames were
// committed on top of. Open must refuse the pair, not replay onto the
// wrong base; the same goes for a header whose epoch was tampered with.
func TestBlockStoreStaleEpoch(t *testing.T) {
	dir := t.TempDir()
	db := blockTestDB(t, dir, vecMorselRows)
	path := filepath.Join(dir, blockFile)
	older, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO bench VALUES (1000000, 'gx', 1, 1.0)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO bench VALUES (1000001, 'gy', 2, 2.0)")
	db.crashWAL() // leaves a frame in a WAL at the second checkpoint's epoch
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, older, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("checkpoint one epoch behind its WAL: Open = %v, want ErrCorruptCheckpoint", err)
	}
	current[8]-- // the epoch, little-endian at offset 8: header and footer now disagree
	if err := os.WriteFile(path, current, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("tampered header epoch: Open = %v, want ErrCorruptCheckpoint", err)
	}
	current[8]++
	if err := os.WriteFile(path, current, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT COUNT(*) FROM bench")
	if want := int64(vecMorselRows + 2); res.Rows[0][0].Int() != want {
		t.Errorf("rows = %v, want %d", res.Rows[0][0], want)
	}
}

// TestBlockExportImportRoundtrip: replica bootstrap ships the state as
// a checkpoint image; import must reconstruct every value exactly,
// including NULLs, NaN payloads, and timestamps, and keep every table
// cold, with its chunk lengths, until something touches it.
func TestBlockExportImportRoundtrip(t *testing.T) {
	src := NewMemory()
	mustExec(t, src, "CREATE TABLE x (i integer, s string, f float, b boolean, ts timestamp)")
	ts := time.Date(2026, 8, 9, 12, 30, 0, 987654321, time.UTC)
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{
			value.NewInt(int64(i * 17)),
			value.NewString(fmt.Sprintf("s%d", i%10)),
			value.NewFloat(float64(i) / 3),
			value.NewBool(i%2 == 1),
			value.NewTimestamp(ts.Add(time.Duration(i) * time.Second)),
		}
	}
	rows[5] = Row{value.Null(value.Integer), value.Null(value.String), value.Null(value.Float), value.Null(value.Boolean), value.Null(value.Timestamp)}
	rows[6][2] = value.NewFloat(math.NaN())
	if _, err := src.InsertRows("x", []string{"i", "s", "f", "b", "ts"}, rows); err != nil {
		t.Fatal(err)
	}

	bootstrap := func(src *DB) *DB {
		t.Helper()
		image, pos, err := src.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		dst := NewMemory()
		if err := dst.ImportState(image, pos); err != nil {
			t.Fatal(err)
		}
		if dst.Pos() != src.Pos() {
			t.Errorf("replica position %v, want %v", dst.Pos(), src.Pos())
		}
		for tab := range dst.state.Load().cat.all() {
			if !tab.isCold() {
				t.Errorf("table %s hydrated by the import", tab.name)
			}
			want, _ := src.state.Load().table(tab.name)
			if got := tab.chunkLens(); fmt.Sprint(got) != fmt.Sprint(want.chunkLens()) {
				t.Errorf("table %s chunks %v, want the primary's %v", tab.name, got, want.chunkLens())
			}
		}
		return dst
	}
	want := src.DumpString()
	if got := bootstrap(src).DumpString(); got != want {
		t.Fatalf("import is not byte-identical:\nsrc:\n%s\ndst:\n%s", want, got)
	}

	// A primary that has just opened and answered nothing ships what its
	// checkpoint holds, as it is: the bootstrap thaws no table.
	dir := t.TempDir()
	durable, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, durable, "CREATE TABLE x (i integer, s string, f float, b boolean, ts timestamp)")
	mustExec(t, durable, "CREATE TABLE empty (i integer)")
	mustExec(t, durable, "CREATE INDEX ON x (s)")
	for lo := 0; lo < len(rows); lo += 1000 { // three chunks
		if _, err := durable.InsertRows("x", []string{"i", "s", "f", "b", "ts"}, rows[lo:lo+1000]); err != nil {
			t.Fatal(err)
		}
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	if durable, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	replica := bootstrap(durable)
	if n := durable.env.hydrated.Load(); n != 0 {
		t.Errorf("bootstrapping a replica hydrated %d table(s) of the primary", n)
	}
	if res := mustExec(t, replica, "SELECT COUNT(*) FROM x WHERE s = 's3'"); res.Rows[0][0].Int() != 300 {
		t.Errorf("index probe on the replica = %v, want 300", res.Rows[0][0])
	}
	if n := replica.env.hydrated.Load(); n != 1 {
		t.Errorf("the index probe hydrated %d table(s) of the replica, want 1", n)
	}
	if got := replica.DumpString(); got != durable.DumpString() {
		t.Fatalf("replica of a cold primary differs:\n%s\nwant:\n%s", got, durable.DumpString())
	}
}

// TestBlockExportImportRejectsCorruption: an image whose block payload
// does not match its CRC, or whose footer is cut off, must fail the
// import before anything is installed, not silently produce wrong or no
// rows; a damaged block is named by its table.
func TestBlockExportImportRejectsCorruption(t *testing.T) {
	src := NewMemory()
	mustExec(t, src, "CREATE TABLE x (i integer)")
	mustExec(t, src, "INSERT INTO x VALUES (1), (2), (3)")
	for name, tc := range map[string]struct {
		damage func([]byte) []byte
		table  bool // the error names table "x"
	}{
		// x is the image's only table: its first block follows the header.
		"payload bit flip": {func(b []byte) []byte { b[colHeaderSize] ^= 0xff; return b }, true},
		"cut footer":       {func(b []byte) []byte { return b[:len(b)-colTrailerSize/2] }, false},
	} {
		image, pos, err := src.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		dst := NewMemory()
		mustExec(t, dst, "CREATE TABLE keep (i integer)")
		before := dst.Pos()
		err = dst.ImportState(tc.damage(image), pos)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: import error = %v, want ErrCorruptCheckpoint", name, err)
		} else if tc.table && !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("%s: import error = %v, want one naming table \"x\"", name, err)
		}
		if got := dst.Tables(); fmt.Sprint(got) != "[keep]" || dst.Pos() != before {
			t.Errorf("%s: a refused import left tables %v at %v, want [keep] at %v", name, got, dst.Pos(), before)
		}
	}
}

// TestBlockCompressionSizes is the compression acceptance gate: the
// checkpoint file must be at least 2x smaller than the same table's rows
// gob-encoded — the row snapshot this file replaced. It prints both
// sizes in benchmark format so bench.sh records them in BENCH_PR6.json.
func TestBlockCompressionSizes(t *testing.T) {
	dir := t.TempDir()
	db := blockTestDB(t, dir, 128_000)
	defer db.Close()
	blk, err := os.Stat(filepath.Join(dir, blockFile))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.state.Load().table("bench")
	rows, err := tab.flat()
	if err != nil {
		t.Fatal(err)
	}
	var rowGob bytes.Buffer
	if err := gob.NewEncoder(&rowGob).Encode(rows); err != nil {
		t.Fatal(err)
	}
	snap := int64(rowGob.Len())
	t.Logf("columns.blk: %d bytes, gob rows: %d bytes (%.1fx)", blk.Size(), snap, float64(snap)/float64(blk.Size()))
	// Benchmark-format lines for bench.sh's awk parser: iterations=1,
	// "ns/op" abused as a plain byte count.
	fmt.Printf("BenchmarkBlockFileBytes \t       1\t%12d ns/op\n", blk.Size())
	fmt.Printf("BenchmarkGobRowSnapshotBytes \t       1\t%12d ns/op\n", snap)
	if blk.Size()*2 > snap {
		t.Errorf("columns.blk (%d bytes) is not 2x smaller than the gob-encoded rows (%d bytes)", blk.Size(), snap)
	}
}
