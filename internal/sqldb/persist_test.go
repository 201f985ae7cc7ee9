package sqldb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE runs (id integer, fs string, bw float)")
	mustExec(t, db, "INSERT INTO runs VALUES (1, 'ufs', 100.5), (2, 'nfs', 50.25)")
	mustExec(t, db, "CREATE INDEX ON runs (fs)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT id, fs, bw FROM runs ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("reloaded rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Str() != "ufs" || res.Rows[1][2].Float() != 50.25 {
		t.Errorf("reloaded data = %v", res.Rows)
	}
}

func TestWALReplayWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, db, "UPDATE t SET a = 20 WHERE a = 2")
	mustExec(t, db, "DELETE FROM t WHERE a = 1")
	// Simulate a crash: do NOT Close/Checkpoint; just reopen.
	db.crashWAL()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Errorf("WAL replay state = %v", res.Rows)
	}
}

func TestWALTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	db.crashWAL()

	// Append garbage (a partial record) to the WAL.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 'S', 'E'}); err != nil { // claims 200-byte record, truncated
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("truncated WAL tail should be tolerated: %v", err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("rows after truncated tail = %v", res.Rows[0][0])
	}
}

func TestTransactionDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a integer)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	mustExec(t, s, "ROLLBACK")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (2)")
	mustExec(t, s, "COMMIT")
	// Crash-style reopen.
	db.crashWAL()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("only committed data should replay: %v", res.Rows)
	}
}

func TestTempTablesNotPersisted(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE base (a integer)")
	mustExec(t, db, "INSERT INTO base VALUES (1)")
	mustExec(t, db, "CREATE TEMP TABLE scratch AS SELECT * FROM base")
	mustExec(t, db, "INSERT INTO scratch VALUES (2)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Exec("SELECT * FROM scratch"); err == nil {
		t.Error("temp table was persisted")
	}
	mustExec(t, db2, "SELECT * FROM base")
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a integer)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// A rotated WAL holds only its epoch header.
	if fi.Size() != walHeaderSize {
		t.Errorf("WAL size after checkpoint = %d, want %d (header only)", fi.Size(), walHeaderSize)
	}
	// State intact after checkpoint + reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 20 {
		t.Errorf("rows after checkpoint+reopen = %v", res.Rows[0][0])
	}
}

func TestMemoryCheckpointNoop(t *testing.T) {
	db := NewMemory()
	if err := db.Checkpoint(); err != nil {
		t.Errorf("memory checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("memory close: %v", err)
	}
}

// Property: any sequence of inserted integers survives a WAL-replay
// reopen with identical sum and count.
func TestQuickWALDurability(t *testing.T) {
	f := func(xs []int16) bool {
		dir, err := os.MkdirTemp("", "sqldbq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		db, err := Open(dir)
		if err != nil {
			return false
		}
		if _, err := db.Exec("CREATE TABLE t (a integer)"); err != nil {
			return false
		}
		var sum int64
		for _, x := range xs {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", x)); err != nil {
				return false
			}
			sum += int64(x)
		}
		// Crash-style: close WAL handle without checkpoint.
		db.crashWAL()
		db2, err := Open(dir)
		if err != nil {
			return false
		}
		defer db2.Close()
		res, err := db2.Exec("SELECT COUNT(*), SUM(a) FROM t")
		if err != nil {
			return false
		}
		if res.Rows[0][0].Int() != int64(len(xs)) {
			return false
		}
		if len(xs) == 0 {
			return res.Rows[0][1].IsNull()
		}
		return res.Rows[0][1].Int() == sum
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func osWriteBytes(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

type fileState struct {
	data []byte
	info os.FileInfo
}

// dirState captures every file of a database directory: contents plus
// the identity (inode) and modification time a rewrite would change.
func dirState(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]fileState{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fileState{data, info}
	}
	return out
}

// assertUntouched fails unless the directory holds exactly the files it
// held before, each the same inode with the same bytes and mtime.
func assertUntouched(t *testing.T, before, after map[string]fileState) {
	t.Helper()
	for name, a := range after {
		b, ok := before[name]
		switch {
		case !ok:
			t.Errorf("%s appeared", name)
		case !os.SameFile(b.info, a.info):
			t.Errorf("%s was re-created", name)
		case !b.info.ModTime().Equal(a.info.ModTime()):
			t.Errorf("%s was written (mtime %v -> %v)", name, b.info.ModTime(), a.info.ModTime())
		case !bytes.Equal(b.data, a.data):
			t.Errorf("%s changed contents", name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			t.Errorf("%s vanished", name)
		}
	}
}

// TestCloseStillFoldsTheWAL: Close skips the checkpoint only when there
// is nothing to fold. A session that merely reads after a crash left
// frames in the WAL — an intact log, or one with a torn tail — must
// still fold them, and a directory that has no checkpoint yet gets its
// first one, once.
func TestCloseStillFoldsTheWAL(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "CREATE TABLE t (a integer)")
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
			mustExec(t, db, "INSERT INTO t VALUES (3)")
			db.crashWAL()
			if torn {
				f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte{200, 1, 'S', 'E'}) //nolint:errcheck
				f.Close()
			}

			// Reader: replays two frames, changes nothing, closes.
			db, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec := db.Recovery(); rec.Frames != 2 || rec.TornTail != torn {
				t.Fatalf("recovery = %+v, want 2 frames, torn=%v", rec, torn)
			}
			if n := mustExec(t, db, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 3 {
				t.Fatalf("rows after replay = %d, want 3", n)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// The frames are in the checkpoint now; from here on a reader
			// leaves the directory alone.
			folded := dirState(t, dir)
			if n := len(folded[walFile].data); n != walHeaderSize {
				t.Fatalf("WAL after the folding close = %d bytes, want the %d-byte header", n, walHeaderSize)
			}
			db, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec := db.Recovery(); rec != (RecoveryInfo{}) {
				t.Fatalf("reopen after fold: recovery = %+v, want clean", rec)
			}
			if n := mustExec(t, db, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 3 {
				t.Fatalf("rows after fold = %d, want 3", n)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			assertUntouched(t, folded, dirState(t, dir))

			// A directory with no checkpoint — new, or crashed before its
			// first one — gets one from the first close, whatever the
			// session did, and the close after that writes nothing.
			fresh := t.TempDir()
			for pass, wantCheckpoint := range []bool{true, false} {
				before := dirState(t, fresh)
				db, err = Open(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				after := dirState(t, fresh)
				if _, ok := after[blockFile]; !ok {
					t.Fatalf("pass %d: no checkpoint after close", pass)
				}
				if _, had := before[blockFile]; had == wantCheckpoint {
					t.Fatalf("pass %d: checkpoint present before = %v, want %v", pass, had, !wantCheckpoint)
				}
				if !wantCheckpoint {
					assertUntouched(t, before, after)
				}
			}
		})
	}
}

// TestNoOpStatementsLogNothing: a statement that changed nothing is not
// a commit. It appends no WAL frame, moves no replication position,
// fires no commit hook, publishes no snapshot, leaves cached plans and
// column vectors of the table alone — in autocommit and inside a
// transaction, where it also leaves no footprint to conflict on.
func TestNoOpStatementsLogNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a integer, b float)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
	mustExec(t, db, "CREATE TABLE empty (a integer, b float)")
	const q = "SELECT COUNT(*), SUM(b) FROM t WHERE a > 0"
	mustExec(t, db, q)
	hooks := 0
	defer db.AddCommitHook(func(ReplPos, []string) { hooks++ })()

	noops := []string{
		"CREATE TABLE IF NOT EXISTS t (a integer, b float)",
		"CREATE TABLE IF NOT EXISTS t (something string)",
		"DROP TABLE IF EXISTS missing",
		"UPDATE t SET a = a + 1 WHERE a > 100",
		"DELETE FROM t WHERE a > 100",
		"DELETE FROM empty",
		"INSERT INTO t SELECT a, b FROM empty",
	}
	type mark struct {
		pos     ReplPos
		snap    int64
		wal     int64
		syncs   uint64
		plan    *compiledSelect
		vectors int
	}
	measure := func() mark {
		st, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		vecs, _ := db.env.cache.stats()
		return mark{db.Pos(), db.state.Load().id, st.Size(), db.WALSyncs(), db.plans.get(q).sel, vecs}
	}
	base := measure()
	if base.plan == nil || base.vectors == 0 {
		t.Fatalf("setup: plan %v, %d vectors — the query did not compile onto the vector path", base.plan, base.vectors)
	}

	for _, sql := range noops {
		mustExec(t, db, sql)
		if got := measure(); got != base {
			t.Errorf("autocommit %q: %+v, want %+v", sql, got, base)
		}
	}

	// Inside a transaction, with a rival committing into t meanwhile:
	// the no-ops took no footprint, so the commit goes through, and it
	// is itself a no-op — no frame.
	s := db.NewSession()
	defer s.Close()
	mustSess(t, s, "BEGIN")
	for _, sql := range noops[:5] {
		mustSess(t, s, sql)
	}
	mustExec(t, db, "INSERT INTO t VALUES (3, 3.5)")
	base = measure()
	mustSess(t, s, "COMMIT")
	if got := measure(); got != base {
		t.Errorf("transaction of no-ops: %+v, want %+v", got, base)
	}
	if hooks != 1 {
		t.Errorf("commit hook fired %d times, want 1 (the rival's INSERT)", hooks)
	}

	// And nothing was lost on the way: reopen replays exactly the frames
	// that changed something.
	want := db.DumpString()
	db.crashWAL()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Frames != 4 {
		t.Errorf("replayed %d frames, want 4 (two CREATEs, two INSERTs)", rec.Frames)
	}
	if got := re.DumpString(); got != want {
		t.Errorf("state after replay differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestIdleFlusherSyncsNothing: under SyncInterval the flusher's timer
// fsyncs what was written since the last fsync — so one commit costs one
// sync, and an idle database, however long it stays open, costs none.
func TestIdleFlusherSyncsNothing(t *testing.T) {
	db, err := OpenWithPolicy(t.TempDir(), SyncInterval)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a integer)")
	// The commit is synced within an interval or two ...
	deadline := time.Now().Add(5 * time.Second)
	for db.WALSyncs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the interval flusher never synced the commit")
		}
		time.Sleep(syncInterval / 5)
	}
	time.Sleep(2 * syncInterval) // let a tick that was already under way finish
	settled := db.WALSyncs()
	// ... and then the file does not change, so neither does the count.
	time.Sleep(6 * syncInterval)
	if got := db.WALSyncs(); got != settled {
		t.Errorf("idle for six intervals: %d fsyncs, want the %d the commit needed", got, settled)
	}
	mustExec(t, db, "SELECT COUNT(*) FROM t")
	time.Sleep(2 * syncInterval)
	if got := db.WALSyncs(); got != settled {
		t.Errorf("a read later: %d fsyncs, want %d", got, settled)
	}
}
