package repl

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// node is one in-process pbserver: a database, its wire server, and
// (for replicas) the receiver.
type node struct {
	db      *sqldb.DB
	srv     *wire.Server
	hub     *Hub     // primaries only
	replica *Replica // replicas only
}

func (n *node) addr() string { return n.srv.Addr() }

func (n *node) close() {
	if n.replica != nil {
		n.replica.Close()
	}
	if n.hub != nil {
		n.hub.Close()
	}
	n.srv.Close()
}

// startPrimary serves a fresh memory database as a replication
// primary.
func startPrimary(t testing.TB) *node {
	t.Helper()
	db := sqldb.NewMemory()
	return servePrimary(t, db)
}

func servePrimary(t testing.TB, db *sqldb.DB) *node {
	t.Helper()
	hub := NewHub(db)
	srv := wire.NewServer(db)
	srv.SetReplSource(hub)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.SetAdvertise(srv.Addr())
	return &node{db: db, srv: srv, hub: hub}
}

// startReplica attaches a read-only replica to the primary.
func startReplica(t testing.TB, primaryAddr string) *node {
	t.Helper()
	db := sqldb.NewMemory()
	rep := NewReplica(db, primaryAddr)
	srv := wire.NewServer(db)
	srv.SetReplState(rep)
	srv.SetReadOnly(true)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.SetAdvertise(srv.Addr())
	return &node{db: db, srv: srv, replica: rep}
}

// waitConverged blocks until the replica has applied the primary's
// current position.
func waitConverged(t testing.TB, primary, replica *node) {
	t.Helper()
	pos := primary.db.Pos()
	if err := replica.replica.WaitCaughtUp(pos, 10*time.Second); err != nil {
		t.Fatalf("replica never reached %v: %v (last err: %v)", pos, err, replica.replica.LastError())
	}
}

// mustDump compares primary and replica state byte-for-byte.
func assertIdentical(t testing.TB, primary, replica *node) {
	t.Helper()
	pd, rd := primary.db.DumpString(), replica.db.DumpString()
	if pd != rd {
		t.Fatalf("state diverged:\n-- primary --\n%s\n-- replica --\n%s", pd, rd)
	}
}

func mustExec(t testing.TB, q sqldb.Querier, sql string) *sqldb.Result {
	t.Helper()
	res, err := q.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestReplicaStreamsAndConverges(t *testing.T) {
	p := startPrimary(t)
	defer p.close()

	mustExec(t, p.db, "CREATE TABLE runs (id integer, host string, dur float)")
	mustExec(t, p.db, "INSERT INTO runs VALUES (1, 'n01', 1.5)")

	r := startReplica(t, p.addr())
	defer r.close()

	// Mix of pre-subscription (bootstrap) and live-streamed writes.
	mustExec(t, p.db, "INSERT INTO runs VALUES (2, 'n02', 2.5)")
	mustExec(t, p.db, "UPDATE runs SET dur = dur * 2 WHERE id = 1")
	s := p.db.NewSession()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO runs VALUES (3, 'n03', 3.5)")
	mustExec(t, s, "INSERT INTO runs VALUES (4, 'n04', 4.5)")
	mustExec(t, s, "COMMIT")

	waitConverged(t, p, r)
	assertIdentical(t, p, r)

	res := mustExec(t, r.db, "SELECT count(*) FROM runs")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("replica row count = %v, want 4", res.Rows[0][0])
	}
}

func TestReplicaRejectsWrites(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (x integer)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	c, err := wire.Dial(r.addr())
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec("INSERT INTO t VALUES (1)"); !errors.Is(err, sqldb.ErrReadOnly) {
		t.Fatalf("replica INSERT error = %v, want ErrReadOnly", err)
	}
	if _, err := c.InsertRows("t", []string{"x"}, []sqldb.Row{intVal(1)}); !errors.Is(err, sqldb.ErrReadOnly) {
		t.Fatalf("replica bulk insert error = %v, want ErrReadOnly", err)
	}
	if _, err := c.Exec("SELECT count(*) FROM t"); err != nil {
		t.Fatalf("replica SELECT: %v", err)
	}
}

func intVal(i int64) (v sqldb.Row) {
	res, err := sqldb.NewMemory().Exec(fmt.Sprintf("SELECT %d", i))
	if err != nil {
		panic(err)
	}
	return res.Rows[0]
}

func TestReadYourWritesThroughRouter(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (x integer)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	router, err := DialRouter(p.addr(), r.addr())
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	defer router.Close()

	// Every write must be observed by the immediately following read,
	// even though reads go to the replica.
	for i := 1; i <= 50; i++ {
		mustExec(t, router, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		res := mustExec(t, router, "SELECT count(*) FROM t")
		if got := res.Rows[0][0].Int(); got != int64(i) {
			t.Fatalf("after insert %d: read-your-writes count = %d", i, got)
		}
	}
}

func TestRouterRoutesReadsToReplica(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (x integer)")
	mustExec(t, p.db, "INSERT INTO t VALUES (7)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	router, err := DialRouter(p.addr(), r.addr())
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	defer router.Close()

	// EXPLAIN's trailer names the serving node's role: reads must land
	// on the replica, so the trailer must say replica.
	res := mustExec(t, router, "EXPLAIN SELECT x FROM t")
	var roleLine string
	for _, row := range res.Rows {
		if s := row[0].Str(); len(s) >= 5 && s[:5] == "role=" {
			roleLine = s
		}
	}
	if roleLine == "" || roleLine[:12] != "role=replica" {
		t.Fatalf("EXPLAIN through router: role line = %q, want role=replica...", roleLine)
	}
}

func TestReplicaBootstrapsWhenBehindHistory(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (x integer)")
	// Push more frames than the hub retains so a fresh subscriber at
	// position 0 is behind the window and must snapshot-bootstrap.
	for i := 0; i < defaultHistory+16; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)
	assertIdentical(t, p, r)
}

// TestReplicaBootstrapKeepsChunkLayout: a bootstrapped replica holds its
// primary's tables in the primary's chunks, so a float SUM — one partial
// per chunk's morsels, merged — adds up in the same order and comes out
// bit for bit as the primary's: from a memory primary pushed past the
// hub's history, and from a durable one that has just opened, its
// tables still cold.
func TestReplicaBootstrapKeepsChunkLayout(t *testing.T) {
	// Two 600-row INSERTs, two chunks. 1e16 absorbs a lone 1.0, so the
	// order the ones are added in shows in the sum.
	fill := func(t *testing.T, db *sqldb.DB) {
		mustExec(t, db, "CREATE TABLE t (g integer, x float)")
		for batch := 0; batch < 2; batch++ {
			var b strings.Builder
			b.WriteString("INSERT INTO t VALUES ")
			for i := 0; i < 600; i++ {
				x := "1.0"
				if batch == 0 && i < 2 {
					x = "1e16"
				}
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %s)", i%2, x)
			}
			mustExec(t, db, b.String())
		}
	}
	const q = "SELECT g, SUM(x), AVG(x) FROM t GROUP BY g ORDER BY g"
	bits := func(res *sqldb.Result) string {
		var b strings.Builder
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%d %x %x\n", row[0].Int(), math.Float64bits(row[1].Float()), math.Float64bits(row[2].Float()))
		}
		return b.String()
	}
	for name, primary := range map[string]func(t *testing.T) *node{
		"memory": func(t *testing.T) *node {
			p := startPrimary(t)
			fill(t, p.db)
			mustExec(t, p.db, "CREATE TABLE pad (i integer)")
			for i := 0; i < defaultHistory+16; i++ {
				mustExec(t, p.db, fmt.Sprintf("INSERT INTO pad VALUES (%d)", i))
			}
			return p
		},
		"durable-just-opened": func(t *testing.T) *node {
			dir := t.TempDir()
			db, err := sqldb.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = sqldb.Open(dir); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return servePrimary(t, db)
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := primary(t)
			defer p.close()
			r := startReplica(t, p.addr())
			defer r.close()
			waitConverged(t, p, r)
			if got, want := bits(mustExec(t, r.db, q)), bits(mustExec(t, p.db, q)); got != want {
				t.Errorf("replica's %s (bits):\n%swant the primary's:\n%s", q, got, want)
			}
			pl, rl := chunkLens(t, p.db)["t"], chunkLens(t, r.db)["t"]
			if fmt.Sprint(pl) != "[600 600]" || fmt.Sprint(rl) != fmt.Sprint(pl) {
				t.Errorf("chunks of t: replica %v, primary %v, want [600 600] on both", rl, pl)
			}
		})
	}
}

// chunkLens returns every table's chunk lengths as a checkpoint image of
// db's state records them.
func chunkLens(t *testing.T, db *sqldb.DB) map[string][]int {
	t.Helper()
	image, _, err := db.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "columns.blk")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := sqldb.ScanBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lens := map[string][]int{}
	for _, ti := range info.Dir {
		lens[ti.Table] = ti.ChunkLens
	}
	return lens
}

func TestStatusReportsRoleAndLag(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (x integer)")
	mustExec(t, p.db, "INSERT INTO t VALUES (1)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	pc, err := wire.Dial(p.addr())
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	st, err := pc.Status()
	if err != nil {
		t.Fatalf("primary status: %v", err)
	}
	if st.Role != "primary" || st.LSN != 2 {
		t.Fatalf("primary status = %+v, want role=primary lsn=2", st)
	}

	rc, err := wire.Dial(r.addr())
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	rst, err := rc.Status()
	if err != nil {
		t.Fatalf("replica status: %v", err)
	}
	if rst.Role != "replica" || !rst.Connected || rst.Epoch != st.Epoch || rst.LSN != st.LSN {
		t.Fatalf("replica status = %+v, want connected replica at %d/%d", rst, st.Epoch, st.LSN)
	}
	if rst.LagFrames != 0 {
		t.Fatalf("replica lag = %d, want 0", rst.LagFrames)
	}
}

// TestStatusLagNeverNegative parks the applier after a frame applied and
// before its position is published, and reads the replica's status the
// whole time: the primary's position moves with the applied one, so the
// lag is never negative, parked or after release.
func TestStatusLagNeverNegative(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (x integer)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	site := failpoint.Site("repl/receiver/advance")
	if err := failpoint.Enable(site.Name(), "sleep(200ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	for i := 1; i <= 3; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.replica.Applied().Before(p.db.Pos()) {
		if st := r.replica.Status(); st.LagFrames < 0 {
			t.Fatalf("lag %d while the applier is parked: %+v", st.LagFrames, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: applied %v, primary %v, %d parks", r.replica.Applied(), p.db.Pos(), site.Hits())
		}
	}
	if site.Hits() < 3 {
		t.Fatalf("the applier parked %d times, want once per frame", site.Hits())
	}
	if st := r.replica.Status(); st.LagFrames != 0 {
		t.Fatalf("lag %d after release, want 0: %+v", st.LagFrames, st)
	}
}

// TestReplTortureFrameVisibility: a replica applies each streamed
// multi-statement frame as one transaction of its own, so a reader of
// its database through DB.Exec sees a frame only once it has committed.
// Commit validation is armed with a sleep: while the applier sleeps
// there with the whole frame staged, the reader must see exactly the
// frames Applied() has reached, none of the one in flight.
func TestReplTortureFrameVisibility(t *testing.T) {
	p := startPrimary(t)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE t (k integer, half string)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	site := failpoint.Site("sqldb/txn/validate")
	if err := failpoint.Enable(site.Name(), "sleep(100ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	s := p.db.NewSession()
	defer s.Close()
	for k := 1; k <= 4; k++ {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'a')", k))
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'b')", k))
		// The primary's COMMIT is one hit; the replica's commit of the
		// frame is the next.
		hit := site.Hits() + 2
		mustExec(t, s, "COMMIT")
		deadline := time.Now().Add(10 * time.Second)
		for site.Hits() < hit {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d: the replica never reached its commit (last err: %v)", k, r.replica.LastError())
			}
			runtime.Gosched()
		}
		// The applier now sleeps in validation for 100ms.
		res := mustExec(t, r.db, "SELECT COUNT(*) FROM t")
		applied := r.replica.Applied()
		if n := res.Rows[0][0].Int(); n != int64(2*(k-1)) {
			t.Fatalf("frame %d: a replica reader saw %d rows while the frame was still committing, want %d (applied %v)",
				k, n, 2*(k-1), applied)
		}
		if !applied.Before(p.db.Pos()) {
			t.Fatalf("frame %d: applied %v while its commit was still validating", k, applied)
		}
		waitConverged(t, p, r)
		if n := mustExec(t, r.db, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != int64(2*k) {
			t.Fatalf("frame %d applied: %d rows, want %d", k, n, 2*k)
		}
	}
}

// TestNoOpStatementsOverTheWire: what a connecting perfbase session
// sends before its first real statement — CREATE TABLE IF NOT EXISTS
// for tables that are there — and every other statement that changes
// nothing (a DROP TABLE IF EXISTS of a missing table, an UPDATE or DELETE
// matching no row) costs a durable primary no WAL frame, no replication
// position and no broadcast, and the replica stays converged on the
// same position.
func TestNoOpStatementsOverTheWire(t *testing.T) {
	db, err := sqldb.OpenWithPolicy(t.TempDir(), sqldb.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := servePrimary(t, db)
	defer p.close()
	mustExec(t, p.db, "CREATE TABLE pb_runs (exp string, run_id integer)")
	mustExec(t, p.db, "INSERT INTO pb_runs VALUES ('e', 1)")
	r := startReplica(t, p.addr())
	defer r.close()
	waitConverged(t, p, r)

	frames := 0
	defer p.db.AddCommitHook(func(sqldb.ReplPos, []string) { frames++ })()
	pos, syncs := p.db.Pos(), p.db.WALSyncs()

	c, err := wire.Dial(p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		"CREATE TABLE IF NOT EXISTS pb_runs (exp string, run_id integer)",
		"DROP TABLE IF EXISTS e_run_2",
		"UPDATE pb_runs SET run_id = 0 WHERE exp = 'nobody'",
		"DELETE FROM pb_runs WHERE run_id > 100",
		"BEGIN",
		"CREATE TABLE IF NOT EXISTS pb_runs (exp string, run_id integer)",
		"DELETE FROM pb_runs WHERE run_id > 100",
		"COMMIT",
	} {
		mustExec(t, c, sql)
	}
	if got := p.db.Pos(); got != pos || frames != 0 || p.db.WALSyncs() != syncs {
		t.Fatalf("no-op statements moved the primary: pos %v -> %v, %d frames broadcast, %d fsyncs",
			pos, got, frames, p.db.WALSyncs()-syncs)
	}
	mustExec(t, c, "INSERT INTO pb_runs VALUES ('e', 2)")
	if got := p.db.Pos(); got.LSN != pos.LSN+1 || frames != 1 {
		t.Fatalf("the one real statement: pos %v -> %v, %d frames, want one of each", pos, got, frames)
	}
	waitConverged(t, p, r)
	assertIdentical(t, p, r)
	if rp := r.db.Pos(); rp != p.db.Pos() {
		t.Fatalf("replica at %v, primary at %v", rp, p.db.Pos())
	}
}
