package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// Tests of the checkpoint as the one durable table encoding: Open reads
// the directory, a table's rows are decoded when it is first touched,
// a checkpoint carries over what it has no reason to encode again, and
// damage is an error. Each fails at the commit before the checkpoint
// replaced the gob row snapshot.

// runTablesDir builds a closed database directory of n tables shaped
// like perfbase run tables — 24 rows, the same schema — and returns it.
func runTablesDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("run_%d", i)
		mustExec(t, db, "CREATE TABLE "+name+" (op string, S_chunk integer, bw float)")
		rows := make([]Row, 24)
		for r := range rows {
			rows[r] = Row{value.NewString([]string{"read", "write", "rewrite"}[r%3]), value.NewInt(int64(1 << (r % 8))), value.NewFloat(float64(i*100+r) / 4)}
		}
		if _, err := db.InsertRows(name, []string{"op", "S_chunk", "bw"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "CREATE INDEX ON run_1 (op)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenHydratesOnlyTouchedTables: a thousand tables open cold, what
// needs only the catalog leaves them cold, and a query hydrates the
// tables it reads and no other.
func TestOpenHydratesOnlyTouchedTables(t *testing.T) {
	const n = 1000
	dir := runTablesDir(t, n)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hydrated := func() int64 { return db.env.hydrated.Load() }

	if got := len(db.Tables()); got != n {
		t.Fatalf("Tables() = %d names, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if rows, ok := db.RowCount(fmt.Sprintf("run_%d", i)); !ok || rows != 24 {
			t.Fatalf("RowCount(run_%d) = %d, %v", i, rows, ok)
		}
	}
	if _, ok := db.TableSchema("run_5"); !ok {
		t.Fatal("TableSchema(run_5) not found")
	}
	plan := fmt.Sprint(mustExec(t, db, "EXPLAIN SELECT COUNT(*), SUM(bw) FROM run_5 WHERE S_chunk > 4").Rows)
	if !strings.Contains(plan, "[vectorized] [morsels=1]") || !strings.Contains(plan, "column blocks [blocks=1/0] enc S_chunk=") {
		t.Errorf("EXPLAIN of a cold table lost its morsel or block line:\n%s", plan)
	}
	mustExec(t, db, "EXPLAIN SELECT op, bw FROM run_6 UNION ALL SELECT op, bw FROM run_7 WHERE S_chunk = 2")
	if plan := fmt.Sprint(mustExec(t, db, "EXPLAIN SELECT bw FROM run_1 WHERE op = 'read'").Rows); !strings.Contains(plan, "via hash index on op") {
		t.Errorf("EXPLAIN of a cold indexed table does not see the index:\n%s", plan)
	}
	mustExec(t, db, "DROP TABLE run_8")
	if got := hydrated(); got != 0 {
		t.Fatalf("Tables, RowCount, TableSchema, EXPLAIN and DROP TABLE hydrated %d table(s)", got)
	}

	for pass := 0; pass < 2; pass++ {
		if res := mustExec(t, db, "SELECT op, bw FROM run_6 UNION ALL SELECT op, bw FROM run_7 WHERE S_chunk = 2"); len(res.Rows) != 24+3 {
			t.Fatalf("union over two cold tables = %d rows, want 27", len(res.Rows))
		}
		if res := mustExec(t, db, "SELECT bw FROM run_1 WHERE op = 'read'"); len(res.Rows) != 8 {
			t.Fatalf("index probe on a cold table = %d rows, want 8", len(res.Rows))
		}
		if got := hydrated(); got != 3 {
			t.Fatalf("pass %d: a query over three tables left %d hydrated", pass, got)
		}
	}
}

// TestRowsOnlyThroughAccessors: a cold table has no rows in memory, so
// code that reads a chunk's rows field, chunk.resident, directly would
// see an empty chunk where there is a full one. Only schema.go, where
// the hydrating accessors live, may name the field; everything else
// reads chunk.rows(), which refuses a cold chunk.
func TestRowsOnlyThroughAccessors(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	field := regexp.MustCompile(`\.resident\b`)
	for _, f := range files {
		if f == "schema.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if field.MatchString(line) && !strings.HasPrefix(strings.TrimSpace(line), "//") {
				t.Errorf("%s:%d reads chunk.resident directly; use chunks(), flat() or chunk.rows():\n%s", f, i+1, line)
			}
		}
	}
}

// TestOpenCostIndependentOfRowCount is the scaling guard: what Open
// reads and allocates follows the directory, so a table of 200 000 rows
// opens for what a table of 10 does — and a table of 64 chunks for what
// a table of one does, for Open builds no chunk object.
func TestOpenCostIndependentOfRowCount(t *testing.T) {
	big := 200_000
	if testing.Short() {
		big = 20_000
	}
	cost := func(nrows, nchunks int) (read int64, allocs float64) {
		dir := t.TempDir()
		db, err := OpenWithPolicy(dir, SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE t (k integer, g string, f float)")
		for c := 0; c < nchunks; c++ { // each past maxCompactChunk, if more than one: never merged
			rows := make([]Row, nrows/nchunks)
			for i := range rows {
				rows[i] = Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("g%d", i%50)), value.NewFloat(float64(i) / 7)}
			}
			if _, err := db.InsertRows("t", []string{"k", "g", "f"}, rows); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(db.state.Load().cat.get("t").chunkLens()); n != nchunks {
			t.Fatalf("%d chunks, want %d", n, nchunks)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() {
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := db.RowCount("t"); n != nrows {
				t.Fatalf("RowCount = %d, want %d", n, nrows)
			}
			read = db.env.ckptRead.Load()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
		return read, allocs
	}
	smallRead, smallAllocs := cost(10, 1)
	bigRead, bigAllocs := cost(big, 1)
	_, chunkyAllocs := cost(64*600, 64)
	t.Logf("Open of 1 x 10 rows: %d bytes, %.0f allocs; of 1 x %d rows: %d bytes, %.0f allocs; of 64 x 600 rows: %.0f allocs",
		smallRead, smallAllocs, big, bigRead, bigAllocs, chunkyAllocs)
	if bigRead > smallRead+16 { // the directory's varints grow by a few bytes
		t.Errorf("Open read %d bytes of a %d-row table's file, %d of a 10-row one", bigRead, big, smallRead)
	}
	if bigAllocs > smallAllocs+8 {
		t.Errorf("Open allocated %.0f times for a %d-row table, %.0f for a 10-row one", bigAllocs, big, smallAllocs)
	}
	if chunkyAllocs > smallAllocs+8 {
		t.Errorf("Open allocated %.0f times for a table of 64 chunks, %.0f for one of 1", chunkyAllocs, smallAllocs)
	}
}

// TestColdTableHydratesOnce: goroutines racing to touch the same cold
// table, and different ones, decode each once and all see the same rows
// — the same memory. Run under -race.
func TestColdTableHydratesOnce(t *testing.T) {
	const tables, workers = 8, 32
	dir := runTablesDir(t, tables)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := make([]string, tables)
	{
		ref, err := Open(runTablesDir(t, tables))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] = fmt.Sprint(mustExec(t, ref, fmt.Sprintf("SELECT * FROM run_%d", i)).Rows)
		}
		ref.Close()
	}
	first := make([]*Row, workers) // where each worker found its table's first row
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0 // half the workers pile onto run_0
			if w%2 == 1 {
				i = 1 + w%(tables-1)
			}
			<-start
			res, err := db.Exec(fmt.Sprintf("SELECT * FROM run_%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprint(res.Rows); got != want[i] {
				t.Errorf("worker %d: run_%d = %s, want %s", w, i, got, want[i])
			}
			tab, _ := db.state.Load().table(fmt.Sprintf("run_%d", i))
			chunks, err := tab.chunks()
			if err != nil {
				t.Error(err)
				return
			}
			first[w] = &chunks[0][0]
		}(w)
	}
	close(start)
	wg.Wait()
	if got := db.env.hydrated.Load(); got != tables {
		t.Errorf("%d hydrations for %d tables touched", got, tables)
	}
	for w := 2; w < workers; w += 2 {
		if first[w] != first[0] {
			t.Fatalf("workers 0 and %d read run_0 from different memory: it was decoded twice", w)
		}
	}
}

// TestPinnedSnapshotSurvivesCheckpoint: a pinned Snapshot holds cold
// tables whose bytes lie in the checkpoint file it was pinned under. Two
// checkpoints later that file has been renamed over twice; it must still
// be there to read, for the table the newer checkpoints carried along
// and for the one they dropped.
func TestPinnedSnapshotSurvivesCheckpoint(t *testing.T) {
	dir := runTablesDir(t, 4)
	ref, err := Open(runTablesDir(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	want2 := fmt.Sprint(mustExec(t, ref, "SELECT * FROM run_2").Rows)
	want3 := fmt.Sprint(mustExec(t, ref, "SELECT * FROM run_3").Rows)
	ref.Close()

	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pin := db.Snapshot()
	mustExec(t, db, "INSERT INTO run_0 VALUES ('read', 1, 1.5)")
	mustExec(t, db, "DROP TABLE run_3")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO run_0 VALUES ('write', 2, 2.5)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Nothing but the pinned tables refers to the first file now; were
	// its lifetime anything but reachability, this would close it.
	runtime.GC()
	runtime.GC()
	if n := db.env.hydrated.Load(); n != 1 {
		t.Fatalf("two checkpoints hydrated %d tables, want only the one inserted into", n)
	}
	for sql, want := range map[string]string{"SELECT * FROM run_2": want2, "SELECT * FROM run_3": want3} {
		res, err := pin.Exec(sql)
		if err != nil {
			t.Fatalf("through the pin, %s: %v", sql, err)
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("through the pin, %s = %s, want %s", sql, got, want)
		}
	}
	if res, err := pin.Exec("SELECT COUNT(*) FROM run_0"); err != nil || res.Rows[0][0].Int() != 24 {
		t.Errorf("the pin sees later inserts: %v, %v", res, err)
	}
	if _, err := db.Exec("SELECT * FROM run_3"); err == nil {
		t.Error("the dropped table is still in the current state")
	}
}

// extents reads every table's extent — block payloads and meta segment —
// out of a checkpoint file.
func extents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	path := filepath.Join(dir, blockFile)
	info, err := ScanBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Damaged() != 0 {
		t.Fatalf("%s: fsck finds %d damaged parts", path, info.Damaged())
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, d := range info.Dir {
		out[d.Table] = file[d.Offset : d.Offset+d.Size]
	}
	return out
}

// TestCheckpointCarriesColdTablesVerbatim: a session that opens, inserts
// into one table and closes writes a checkpoint in which every other
// table's bytes are the bytes it found — copied, never decoded.
func TestCheckpointCarriesColdTablesVerbatim(t *testing.T) {
	dir := runTablesDir(t, 12)
	before := extents(t, dir)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO run_4 VALUES ('read', 64, 0.25)")
	want := db.DumpString() // hydrates everything, after the fact
	hydratedByInsert := int64(1)
	db.Close()

	// Again, without the dump in between.
	dir = runTablesDir(t, 12)
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO run_4 VALUES ('read', 64, 0.25)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.env.hydrated.Load(); got != hydratedByInsert {
		t.Errorf("insert into one table, then close, hydrated %d tables", got)
	}
	after := extents(t, dir)
	for name, b := range before {
		switch {
		case name == "run_4":
			if bytes.Equal(b, after[name]) {
				t.Error("the table inserted into was not re-encoded")
			}
		case !bytes.Equal(b, after[name]):
			t.Errorf("untouched table %s changed across the checkpoint (%d -> %d bytes)", name, len(b), len(after[name]))
		}
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.DumpString(); got != want {
		t.Errorf("state after the carrying checkpoint:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrunedColdScanStaysCold: on a freshly opened table, the vectorized
// scan asks the zone maps before it asks for anything else, so a
// predicate that prunes every block answers from the meta segment alone
// — grouped, ungrouped-aggregate and projecting alike — and the table
// stays cold.
func TestPrunedColdScanStaysCold(t *testing.T) {
	const nblocks = 32
	dir := t.TempDir()
	db := blockTestDB(t, dir, nblocks*vecMorselRows)
	queries := []string{
		"SELECT g, COUNT(*), SUM(v) FROM bench WHERE k < 0 GROUP BY g",
		"SELECT COUNT(*), SUM(v), MAX(f) FROM bench WHERE k < 0",
		"SELECT k, g FROM bench WHERE k < 0 OR k > 1000000000",
	}
	const partly = "SELECT COUNT(*), SUM(v) FROM bench WHERE k BETWEEN 5000 AND 5010"
	want := map[string]string{}
	for _, q := range append(queries, partly) {
		want[q] = fmt.Sprint(mustExec(t, db, q).Rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err := Open(dir); err != nil {
		t.Fatal(err)
	} else {
		defer db.Close()
		tab, _ := db.state.Load().table("bench")
		read0 := db.env.ckptRead.Load()
		for _, q := range queries {
			s0, k0 := db.BlockStats()
			if got := fmt.Sprint(mustExec(t, db, q).Rows); got != want[q] {
				t.Errorf("%s = %s, want %s", q, got, want[q])
			}
			if s1, k1 := db.BlockStats(); s1-s0 != 0 || k1-k0 != nblocks {
				t.Errorf("%s decoded %d blocks and pruned %d, want 0/%d", q, s1-s0, k1-k0, nblocks)
			}
		}
		if n := db.env.hydrated.Load(); n != 0 || !tab.isCold() {
			t.Errorf("scans whose zone maps prune every block hydrated %d table(s)", n)
		}
		if read, seg := db.env.ckptRead.Load()-read0, tab.disk.Load().seg; read > seg {
			t.Errorf("the pruned scans read %d bytes of the checkpoint, more than its %d-byte meta segment", read, seg)
		}

		// A block that survives its zone check and has a matching row wants
		// that row (here: a group's representative), and today that hydrates
		// the whole table, once — the residency item's to fix.
		if got := fmt.Sprint(mustExec(t, db, partly).Rows); got != want[partly] {
			t.Errorf("%s = %s, want %s", partly, got, want[partly])
		}
		if n := db.env.hydrated.Load(); n != 1 || tab.isCold() {
			t.Errorf("a partly pruned scan hydrated %d table(s), want the one", n)
		}
	}
}

// TestCheckpointReleasesOldFiles: a checkpoint re-points every table and
// every chunk the tables have built — a cold table's, once a scan or an
// EXPLAIN has read its meta segment, included — at the file it just
// wrote, so nothing in the current state keeps an older checkpoint file
// open once it has been renamed over.
func TestCheckpointReleasesOldFiles(t *testing.T) {
	const n = 8
	dir := runTablesDir(t, n)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("SELECT COUNT(*), SUM(bw) FROM run_%d WHERE S_chunk > 4", i)
		if i%2 == 1 {
			q = "EXPLAIN " + q
		}
		mustExec(t, db, q)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.env.hydrated.Load(); got != n/2 {
		t.Fatalf("%d tables hydrated, want %d: the EXPLAINs must only parse", got, n/2)
	}
	for tab := range db.state.Load().cat.all() {
		if f := tab.disk.Load().f; f != db.ckpt {
			t.Errorf("table %s reads from %s, not the current checkpoint", tab.name, sourceName(f))
		}
		chunks := tab.builtChunks()
		if len(chunks) == 0 {
			t.Errorf("table %s has built no chunks", tab.name)
		}
		for k, ch := range chunks {
			if sc := ch.blocks.Load(); sc == nil || sc.f != db.ckpt {
				t.Errorf("table %s chunk %d: blocks %v, not in the current checkpoint", tab.name, k, sc)
			}
		}
	}

	if runtime.GOOS != "linux" {
		t.Skip("open files are counted through /proc/self/fd")
	}
	// The runtime closes a file when its finalizer runs, some time after
	// the collection that finds it unreachable.
	var stale []string
	for try := 0; try < 50; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		stale = stale[:0]
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && strings.HasPrefix(target, dir) && strings.HasSuffix(target, " (deleted)") {
				stale = append(stale, target)
			}
		}
		if len(stale) == 0 {
			return
		}
	}
	t.Errorf("%d unlinked checkpoint files still open: %v", len(stale), stale)
}

// TestColdChunksRacingCheckpoints: the chunk objects of cold tables are
// built, pruned against, filled and exported by readers while
// checkpoints re-point them. Run under -race: every answer is right, and
// once it is over every chunk names the current file.
func TestColdChunksRacingCheckpoints(t *testing.T) {
	const tables, workers, rounds = 6, 4, 30
	db, err := Open(runTablesDir(t, tables))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	queries := map[string]int64{
		"SELECT COUNT(*) FROM %s WHERE S_chunk > 1000":       0, // every block pruned
		"SELECT COUNT(*), SUM(bw) FROM %s WHERE S_chunk > 4": 15,
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for q, want := range queries {
					res, err := db.Exec(fmt.Sprintf(q, fmt.Sprintf("run_%d", (w+r)%tables)))
					if err != nil {
						t.Error(err)
						return
					}
					if res.Rows[0][0].Int() != want {
						t.Errorf("%s = %v, want %d", q, res.Rows[0][0], want)
					}
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.ExportState(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for tab := range db.state.Load().cat.all() {
		for k, ch := range tab.builtChunks() {
			if sc := ch.blocks.Load(); sc == nil || sc.f != db.ckpt {
				t.Errorf("table %s chunk %d: blocks %v, not in the current checkpoint", tab.name, k, sc)
			}
		}
	}
}

// TestCheckpointRacesExplain: EXPLAIN's trailer names the WAL sync
// policy while checkpoints replace the WAL it configures. Run under
// -race: the policy is read from the DB, never from the WAL being
// swapped.
func TestCheckpointRacesExplain(t *testing.T) {
	db, err := OpenWithPolicy(runTablesDir(t, 2), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO run_0 (S_chunk, bw) VALUES (%d, 1.5)", i)); err != nil {
				t.Error(err)
				return
			}
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		res := mustExec(t, db, "EXPLAIN SELECT COUNT(*) FROM run_1 WHERE S_chunk > 4")
		if last := res.Rows[len(res.Rows)-1][0].Str(); !strings.HasSuffix(last, "wal sync=always") {
			t.Fatalf("EXPLAIN trailer = %q, want wal sync=always", last)
		}
	}
}

// TestCorruptCheckpoint: damage to one table's bytes is that table's
// problem — typed, named, and gone when the table is dropped — while
// damage to the file's frame fails Open; nothing is ever answered
// without the damaged part, and the crash window's stale WAL is still
// told apart from a lost checkpoint.
func TestCorruptCheckpoint(t *testing.T) {
	flipIn := func(t *testing.T, dir, table string, segment bool) {
		t.Helper()
		info, err := ScanBlockFile(filepath.Join(dir, blockFile))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range info.Dir {
			if d.Table == table {
				at := d.Offset + 3 // in the first block's payload
				if segment {
					at = d.Offset + d.Size - 9 // in the meta segment, before its CRC
				}
				damage(t, dir, func(buf []byte) []byte { buf[at] ^= 0x10; return buf })
				return
			}
		}
		t.Fatalf("no table %s in the directory", table)
	}
	for _, segment := range []bool{false, true} {
		t.Run(fmt.Sprintf("one_table/segment=%v", segment), func(t *testing.T) {
			dir := runTablesDir(t, 3)
			flipIn(t, dir, "run_1", segment)
			db, err := Open(dir)
			if err != nil {
				t.Fatalf("damage below the directory failed Open: %v", err)
			}
			for _, ok := range []string{"run_0", "run_2"} {
				if res := mustExec(t, db, "SELECT COUNT(*), SUM(bw) FROM "+ok); res.Rows[0][0].Int() != 24 {
					t.Errorf("%s beside the damaged table = %v", ok, res.Rows)
				}
			}
			_, err = db.Exec("SELECT COUNT(*), SUM(bw) FROM run_1")
			if !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), `table "run_1"`) {
				t.Fatalf("scan of the damaged table = %v, want ErrCorruptCheckpoint naming it", err)
			}
			if !segment && !strings.Contains(err.Error(), `column "op" chunk 0 block 0`) {
				t.Errorf("a damaged block is not named: %v", err)
			}
			if _, err := db.Exec("EXPLAIN SELECT COUNT(*), SUM(bw) FROM run_1"); segment != errors.Is(err, ErrCorruptCheckpoint) {
				t.Errorf("EXPLAIN reads the segment and no block: with the damage in the segment = %v, it answered %v", segment, err)
			}
			if dump := db.DumpString(); !strings.Contains(dump, ErrCorruptCheckpoint.Error()) {
				t.Errorf("the dump passes over the damaged table:\n%s", dump)
			}
			// Dropping the table needs none of its bytes, and the next
			// checkpoint leaves them behind.
			mustExec(t, db, "DROP TABLE run_1")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			extents(t, dir) // fsck clean
			if db, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := len(db.Tables()); got != 2 {
				t.Errorf("%d tables after dropping the damaged one, want 2", got)
			}
		})
	}
	frame := map[string]func(buf []byte) []byte{
		"bad_magic":         func(buf []byte) []byte { buf[0] ^= 0x01; return buf },
		"footer_bitflip":    func(buf []byte) []byte { buf[len(buf)-colTrailerSize-2] ^= 0x04; return buf },
		"truncated_trailer": func(buf []byte) []byte { return buf[:len(buf)-1] },
		"cut_mid_extent":    func(buf []byte) []byte { return buf[:colHeaderSize+40] },
		"empty_file":        func(buf []byte) []byte { return nil },
	}
	for name, edit := range frame {
		t.Run(name, func(t *testing.T) {
			dir := runTablesDir(t, 3)
			damage(t, dir, edit)
			if db, err := Open(dir); !errors.Is(err, ErrCorruptCheckpoint) {
				if err == nil {
					db.Close()
				}
				t.Fatalf("Open = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
	t.Run("stale_wal", func(t *testing.T) {
		// The one mismatch of epochs a crash does produce: the checkpoint
		// renamed into place, the WAL not yet rotated. Not corruption.
		dir := runTablesDir(t, 2)
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "INSERT INTO run_0 VALUES ('read', 1, 1.5)")
		if err := failpoint.Enable("sqldb/wal/rotate", "error(crash window)"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.DisableAll()
		if err := db.Checkpoint(); err == nil {
			t.Fatal("checkpoint passed the rotate failpoint")
		}
		failpoint.DisableAll()
		db.crashWAL()
		if db, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if n, _ := db.RowCount("run_0"); !db.Recovery().StaleWAL || n != 25 {
			t.Errorf("recovery %+v with %d rows, want the stale WAL discarded and 25 rows", db.Recovery(), n)
		}
	})
}

// TestOpenRefusesOldFormat: a directory from before columns.blk was the
// checkpoint keeps its rows where this version does not look. Opening it
// as the empty database it appears to be would let the next Close
// checkpoint over the user's data.
func TestOpenRefusesOldFormat(t *testing.T) {
	v1 := append(append([]byte{}, colMagicV1[:]...), make([]byte, 64)...)
	v2 := append(append([]byte{}, colMagicV2[:]...), make([]byte, 64)...)
	cases := map[string]struct {
		files map[string][]byte
		named string
	}{
		"gob_snapshot":           {map[string][]byte{oldSnapshotFile: []byte("gob rows")}, oldSnapshotFile},
		"v1_blocks":              {map[string][]byte{blockFile: v1}, blockFile},
		"v2_blocks":              {map[string][]byte{blockFile: v2}, blockFile},
		"gob_snapshot_v1_blocks": {map[string][]byte{oldSnapshotFile: []byte("gob rows"), blockFile: v1}, blockFile},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for f, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirState(t, dir)
			db, err := Open(dir)
			if err == nil {
				db.Close()
			}
			if !errors.Is(err, ErrOldFormat) || !strings.Contains(err.Error(), filepath.Join(dir, tc.named)) {
				t.Fatalf("Open = %v, want ErrOldFormat naming %s", err, tc.named)
			}
			assertUntouched(t, before, dirState(t, dir))
		})
	}
	t.Run("leftover_beside_a_checkpoint", func(t *testing.T) {
		dir := runTablesDir(t, 2)
		if err := os.WriteFile(filepath.Join(dir, oldSnapshotFile), []byte("gob rows"), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			t.Fatalf("a stray %s beside a checkpoint failed Open: %v", oldSnapshotFile, err)
		}
		db.Close()
	})
}

// TestCheckpointFailureKeepsTheOldOne: the checkpoint is the only copy
// of what it folds, so a write that fails must fail it — error returned,
// previous file in place, WAL not rotated, no tmp file left behind — and
// cost nothing: the frames are still in the WAL for the reopen.
func TestCheckpointFailureKeepsTheOldOne(t *testing.T) {
	cases := map[string]string{
		"save":   "sqldb/persist/save",
		"write":  "sqldb/colblk/write",
		"footer": "sqldb/colblk/footer",
		"rename": "sqldb/persist/rename",
	}
	for name, site := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenWithPolicy(dir, SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "CREATE TABLE t (a integer, ts timestamp)")
			mustExec(t, db, "INSERT INTO t VALUES (1, NULL)")
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "INSERT INTO t VALUES (2, NULL)")
			if err := failpoint.Enable(site, "error(disk full)"); err != nil {
				t.Fatal(err)
			}
			defer failpoint.DisableAll()
			before := dirState(t, dir)
			pos := db.Pos()

			for _, fold := range []func() error{db.Checkpoint, db.Close} {
				if err := fold(); err == nil {
					t.Fatal("the failing checkpoint reported success")
				}
				after := dirState(t, dir)
				if _, ok := after[blockFile+".tmp"]; ok {
					t.Errorf("%s.tmp left behind", blockFile)
				}
				assertUntouched(t, before, after)
				if db.Pos() != pos {
					t.Errorf("position moved %v -> %v: the WAL was rotated", pos, db.Pos())
				}
			}
			failpoint.DisableAll()
			db.crashWAL()
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.crashWAL()
			if rec := re.Recovery(); rec.Frames != int(pos.LSN) || rec.StaleWAL {
				t.Errorf("recovery after the failed checkpoints = %+v, want %d frames replayed", rec, pos.LSN)
			}
			if n, _ := re.RowCount("t"); n != int(pos.LSN)+1 {
				t.Errorf("%d rows after reopen, want %d", n, pos.LSN+1)
			}
		})
	}
}

// ------------------------------------------------------------ fuzz

// fuzzSource deals out a fuzz input's bytes, zeros once it runs dry.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	b := s.b[0]
	s.b = s.b[1:]
	return b
}

func (s *fuzzSource) intn(n int) int { return int(s.byte()) % n }

// value draws a value of the type: NULLs, NaNs with payloads, both
// zeros, empty strings and zoned timestamps among them.
func (s *fuzzSource) value(typ value.Type) value.Value {
	sel := s.byte()
	if sel%7 == 0 {
		return value.Null(typ)
	}
	switch typ {
	case value.Integer:
		return value.NewInt(int64(int8(s.byte())) << (sel % 57))
	case value.Float:
		switch sel % 5 {
		case 1:
			return value.NewFloat(math.Float64frombits(0x7ff8000000000000 | uint64(s.byte()))) // NaN, payload
		case 2:
			return value.NewFloat(math.Copysign(0, -1))
		}
		return value.NewFloat(float64(int8(s.byte())) / 8)
	case value.String:
		return value.NewString(strings.Repeat(string(rune('a'+sel%5)), int(s.byte())%4))
	case value.Version:
		return value.NewVersion(fmt.Sprintf("%d.%d", sel%3, s.byte()%4))
	case value.Boolean:
		return value.NewBool(sel%2 == 0)
	}
	zone := time.UTC
	if m := int(int8(s.byte())); m != 0 && m != -1 { // -1 minute does not marshal
		zone = time.FixedZone("", m*60)
	}
	return value.NewTimestamp(time.Date(2000+int(sel%40), 1, 1, 0, 0, int(s.byte()), int(s.byte())*1000, zone))
}

// sameValue is equality to the bit: NaN payloads, the sign of zero and a
// timestamp's zone offset count.
func sameValue(a, b value.Value) bool {
	if a.Type() != b.Type() || a.IsNull() != b.IsNull() {
		return false
	}
	if a.IsNull() {
		return true
	}
	switch a.Type() {
	case value.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.Timestamp:
		_, ao := a.Time().Zone()
		_, bo := b.Time().Zone()
		return a.Time().Equal(b.Time()) && ao == bo
	case value.String, value.Version:
		return a.Str() == b.Str()
	}
	return a.Int() == b.Int()
}

// FuzzCheckpointRoundTrip builds a random database — schemas over all
// six types, NULLs and the awkward values of each, empty tables, tables
// of several chunks, indexes — closes it, reopens it, and holds the
// reopened one to the original: the dump, every value to the bit, the
// chunk boundaries, and index lookups.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 4, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add(bytes.Repeat([]byte{5, 250, 3, 77, 1, 0, 2, 200}, 40))
	f.Add(bytes.Repeat([]byte{255, 6, 5, 4, 3, 2, 1}, 64))
	types := []value.Type{value.Integer, value.Float, value.String, value.Timestamp, value.Boolean, value.Version}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{b: data}
		dir := t.TempDir()
		db, err := OpenWithPolicy(dir, SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		type fuzzTable struct {
			name    string
			cols    []string
			indexed int // column ordinal, -1 for none
			rows    []Row
			lens    []int
		}
		tables := make([]fuzzTable, src.intn(5))
		for ti := range tables {
			ft := &tables[ti]
			ft.name, ft.indexed = fmt.Sprintf("T%d", ti), -1
			var defs []string
			for ci, ncols := 0, 1+src.intn(5); ci < ncols; ci++ {
				typ := types[src.intn(len(types))]
				ft.cols = append(ft.cols, fmt.Sprintf("c%d", ci))
				defs = append(defs, fmt.Sprintf("c%d %s", ci, typ))
			}
			schema := func() Schema { s, _ := db.TableSchema(ft.name); return s }
			mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (%s)", ft.name, strings.Join(defs, ", ")))
			if src.byte()%2 == 0 {
				ft.indexed = src.intn(len(ft.cols))
				mustExec(t, db, fmt.Sprintf("CREATE INDEX ON %s (%s)", ft.name, ft.cols[ft.indexed]))
			}
			for batch, nbatches := 0, src.intn(4); batch < nbatches; batch++ {
				n := 1 + src.intn(40)
				if src.byte()%8 == 0 {
					n += 600 // too big to be merged into its neighbours
				}
				rows := make([]Row, n)
				for i := range rows {
					rows[i] = make(Row, len(ft.cols))
					for ci, c := range schema() {
						rows[i][ci] = src.value(c.Type)
					}
				}
				if _, err := db.InsertRows(ft.name, ft.cols, rows); err != nil {
					t.Fatal(err)
				}
				ft.rows = append(ft.rows, rows...)
			}
			tab, _ := db.state.Load().table(ft.name)
			ft.lens = tab.chunkLens()
		}
		want := db.DumpString()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if info, err := ScanBlockFile(filepath.Join(dir, blockFile)); err != nil || info.Damaged() != 0 {
			t.Fatalf("fsck of a fresh checkpoint: %v, %d damaged", err, info.Damaged())
		}
		for _, ft := range tables {
			tab, ok := re.state.Load().table(ft.name)
			if !ok || !tab.isCold() {
				t.Fatalf("%s: present %v, cold %v after reopen", ft.name, ok, ok && tab.isCold())
			}
			if got := tab.chunkLens(); fmt.Sprint(got) != fmt.Sprint(ft.lens) {
				t.Fatalf("%s: chunk lengths %v, want %v", ft.name, got, ft.lens)
			}
			if ft.indexed >= 0 && len(ft.rows) > 0 {
				// Before anything else touches the table: the index is what
				// hydrates it.
				key := ft.rows[0][ft.indexed]
				n := 0
				for _, r := range ft.rows {
					if value.Compare(r[ft.indexed], key) == 0 {
						n++
					}
				}
				idx, err := tab.index(ft.cols[ft.indexed])
				if err != nil || idx == nil {
					t.Fatalf("%s: index on %s: %v, %v", ft.name, ft.cols[ft.indexed], idx, err)
				}
				if got := len(idx.lookup(key)); got != n {
					t.Fatalf("%s: index lookup of %v finds %d rows, want %d", ft.name, key, got, n)
				}
			}
			at := 0
			for k, ch := range mustChunks(t, tab) {
				if len(ch) != ft.lens[k] {
					t.Fatalf("%s: chunk %d has %d rows, want %d", ft.name, k, len(ch), ft.lens[k])
				}
				for _, row := range ch {
					for ci := range row {
						if !sameValue(row[ci], ft.rows[at][ci]) {
							t.Fatalf("%s row %d column %d: %v, want %v", ft.name, at, ci, row[ci], ft.rows[at][ci])
						}
					}
					at++
				}
			}
			if at != len(ft.rows) {
				t.Fatalf("%s: %d rows after reopen, want %d", ft.name, at, len(ft.rows))
			}
		}
		if got := re.DumpString(); got != want {
			t.Fatalf("dump after reopen:\n%s\nwant:\n%s", got, want)
		}
	})
}
