package shard

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
)

// Shard-failure torture harness.
//
// The parent re-executes this test binary as a child that runs a
// committed cross-shard workload against a durable 4-shard cluster
// with one coordinator failpoint armed to crash the whole process.
// After the child dies, the parent reopens the cluster (which runs
// cross-shard recovery from the decision log) and asserts:
//
//   - every logical commit is present with BOTH its halves or not at
//     all — a torn two-phase commit is either completed by recovery
//     (it was decided) or fully aborted (it was not);
//   - the present commits are exactly the prefix 1..K;
//   - no commit the child acknowledged (after COMMIT returned, under
//     SyncAlways shards) is lost;
//   - recovery is idempotent: closing and reopening again yields
//     byte-identical per-shard dumps.
//
// Each logical commit seq writes row (2*seq, seq, 'a') and row
// (2*seq+1, seq, 'b') in one transaction: the partition keys 2*seq
// and 2*seq+1 hash independently, so a large fraction of the commits
// straddle two shards and drive the PREPARE / decision-log / COMMIT
// PREPARED path.

const (
	shardTortureChildEnv = "PERFBASE_SHARD_TORTURE_CHILD"
	shardTortureDirEnv   = "PERFBASE_SHARD_TORTURE_DIR"
	shardTortureOps      = 120
	shardTortureShards   = 4
	shardAckFile         = "acked.log"
)

// tortureSites lists the coordinator failpoints the matrix arms; the
// parent asserts each is registered so a rename cannot hollow the
// matrix out.
func tortureSites() []string {
	return []string{
		"shard/route",
		"shard/scatter",
		"shard/2pc-prepare",
		"shard/2pc-commit",
	}
}

// TestShardTortureChild is the workload child; it only runs when
// re-executed with the torture environment set.
func TestShardTortureChild(t *testing.T) {
	if os.Getenv(shardTortureChildEnv) != "1" {
		t.Skip("torture child entry point; driven by TestShardTortureMatrix")
	}
	dir := os.Getenv(shardTortureDirEnv)
	if err := failpoint.SetFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(9)
	}
	c, err := OpenLocal(dir, shardTortureShards, sqldb.SyncAlways)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(9)
	}
	if _, err := c.Exec("CREATE TABLE IF NOT EXISTS torture (k integer, seq integer, half string)"); err != nil {
		fmt.Fprintln(os.Stderr, "child create:", err)
		os.Exit(9)
	}
	ack, err := os.OpenFile(filepath.Join(dir, shardAckFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child ack:", err)
		os.Exit(9)
	}
	for seq := 1; seq <= shardTortureOps; seq++ {
		s := c.NewSession()
		fail := func(stage string, err error) {
			fmt.Fprintf(os.Stderr, "child seq %d %s: %v\n", seq, stage, err)
			os.Exit(9)
		}
		if _, err := s.Exec("BEGIN"); err != nil {
			fail("BEGIN", err)
		}
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO torture (k, seq, half) VALUES (%d, %d, 'a')", 2*seq, seq)); err != nil {
			fail("INSERT a", err)
		}
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO torture (k, seq, half) VALUES (%d, %d, 'b')", 2*seq+1, seq)); err != nil {
			fail("INSERT b", err)
		}
		if _, err := s.Exec("COMMIT"); err != nil {
			fail("COMMIT", err)
		}
		s.Close()
		// Acked only after COMMIT returned: the shards run SyncAlways
		// and the cross-shard decision is fsynced, so a missing acked
		// seq after recovery is a durability violation.
		fmt.Fprintf(ack, "%d\n", seq)
		ack.Sync() //nolint:errcheck
		if seq%10 == 0 {
			// Exercise scatter-gather (and its failpoint) mid-workload.
			if _, err := c.Exec("SELECT COUNT(*) FROM torture"); err != nil {
				fail("scatter", err)
			}
		}
	}
	os.Exit(0)
}

func spawnShardTortureChild(t *testing.T, dir, failpoints string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardTortureChild$")
	cmd.Env = append(os.Environ(),
		shardTortureChildEnv+"=1",
		shardTortureDirEnv+"="+dir,
		failpoint.EnvVar+"="+failpoints,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child failed to run: %v\n%s", err, out)
	}
	code := ee.ExitCode()
	if code != failpoint.CrashExitCode && code != 0 {
		t.Fatalf("child exit code %d (want %d or 0)\n%s", code, failpoint.CrashExitCode, out)
	}
	return code
}

func readShardAcked(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, shardAckFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	last := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil {
			break // torn final line
		}
		if n != last+1 {
			t.Fatalf("ack log has a gap: %d after %d", n, last)
		}
		last = n
	}
	return last
}

// clusterDump renders every shard's full state (the sqldb dump
// includes the cross-shard marker table) for byte comparison.
func clusterDump(c *Cluster) string {
	var sb strings.Builder
	for i := 0; i < c.NumShards(); i++ {
		fmt.Fprintf(&sb, "==== shard %d ====\n", i)
		sb.WriteString(c.Shard(i).(localShard).db.DumpString())
	}
	return sb.String()
}

// verifyShardRecovery reopens the cluster, asserts the atomicity and
// durability invariants, and returns the recovered prefix K.
func verifyShardRecovery(t *testing.T, dir string) int {
	t.Helper()
	c, err := OpenLocal(dir, shardTortureShards, sqldb.SyncAlways)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}

	k := 0
	if _, ok := c.schema("torture", nil); !ok {
		// The crash landed before the CREATE TABLE broadcast was
		// acked; zero state is the legal empty prefix — but only if
		// nothing was acked.
		if acked := readShardAcked(t, dir); acked > 0 {
			t.Fatalf("table lost but %d commits were acked", acked)
		}
	} else {
		// Scatter-gather over the recovered cluster: every seq has
		// both halves, and the seqs are the prefix 1..K.
		res, err := c.Exec("SELECT seq, COUNT(*) FROM torture GROUP BY seq ORDER BY seq")
		if err != nil {
			t.Fatalf("recovery query: %v", err)
		}
		for i, row := range res.Rows {
			seq := int(row[0].Int())
			if seq != i+1 {
				t.Fatalf("commit sequence has a gap: row %d holds seq %d", i, seq)
			}
			if row[1].Int() != 2 {
				t.Fatalf("cross-shard commit %d is half-applied: %d of 2 rows", seq, row[1].Int())
			}
			k = seq
		}
		if acked := readShardAcked(t, dir); acked > k {
			t.Fatalf("acked commits lost: acked through %d, recovered through %d", acked, k)
		}
		// The cluster keeps working after recovery.
		if _, err := c.Exec("INSERT INTO torture (k, seq, half) VALUES (900001, 900001, 'a'), (900002, 900001, 'b')"); err != nil {
			t.Fatalf("post-recovery write: %v", err)
		}
		if _, err := c.Exec("DELETE FROM torture WHERE seq = 900001"); err != nil {
			t.Fatal(err)
		}
	}

	dump1 := clusterDump(c)
	if err := c.Close(); err != nil {
		t.Fatalf("post-recovery close: %v", err)
	}

	// Recovery idempotence: reopening again (recovery re-runs against
	// the already-repaired shards) must be a byte-identical no-op.
	c2, err := OpenLocal(dir, shardTortureShards, sqldb.SyncAlways)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer c2.Close()
	if dump2 := clusterDump(c2); dump2 != dump1 {
		t.Fatalf("recovery is not idempotent:\nfirst reopen:\n%s\nsecond reopen:\n%s", dump1, dump2)
	}
	return k
}

// TestShardTortureMatrix crashes the coordinator at every routing and
// two-phase-commit stage, at early and late hit counts, and verifies
// recovery after each.
func TestShardTortureMatrix(t *testing.T) {
	registered := map[string]bool{}
	for _, n := range failpoint.List() {
		registered[n] = true
	}
	type scenario struct {
		site string
		spec string
	}
	var scenarios []scenario
	for _, site := range tortureSites() {
		if !registered[site] {
			t.Fatalf("torture site %q is not registered — did a failpoint get renamed?", site)
		}
		scenarios = append(scenarios, scenario{site, "crash@3"})
		if !testing.Short() {
			scenarios = append(scenarios, scenario{site, "crash@23"})
		}
	}
	for _, sc := range scenarios {
		sc := sc
		name := strings.ReplaceAll(sc.site, "/", "_") + "_" + sc.spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			code := spawnShardTortureChild(t, dir, sc.site+"="+sc.spec)
			if code != failpoint.CrashExitCode {
				t.Fatalf("armed site %s never crashed the child", sc.site)
			}
			verifyShardRecovery(t, dir)
		})
	}
}

// TestShardTortureCompletes sanity-checks the harness itself: with no
// failpoint armed the child finishes the whole workload and recovery
// reports the full prefix.
func TestShardTortureCompletes(t *testing.T) {
	dir := t.TempDir()
	if code := spawnShardTortureChild(t, dir, ""); code != 0 {
		t.Fatalf("unfaulted child exited %d", code)
	}
	if k := verifyShardRecovery(t, dir); k != shardTortureOps {
		t.Fatalf("recovered %d/%d commits from an unfaulted run", k, shardTortureOps)
	}
}

// TestRouteFaultLeavesShardsUntouched: an error injected at the
// routing stage must surface to the caller with no shard having seen
// the statement.
func TestRouteFaultLeavesShardsUntouched(t *testing.T) {
	c := NewLocal(3)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	if err := failpoint.Enable("shard/route", "error(router down)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	if _, err := c.Exec("INSERT INTO m (k, v) VALUES (1, 1)"); err == nil {
		t.Fatal("routed write succeeded despite injected route failure")
	}
	failpoint.DisableAll()
	res := mustExec(t, c, "SELECT COUNT(*) FROM m")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("route failure leaked a write: %v", res.Rows[0][0])
	}
}

// TestScatterFaultFailsQueryCleanly: an unreachable shard fails the
// distributed query with a shard-identifying error, and the cluster
// keeps serving once the fault clears.
func TestScatterFaultFailsQueryCleanly(t *testing.T) {
	c := NewLocal(3)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	mustExec(t, c, "INSERT INTO m (k, v) VALUES (1, 10), (2, 20), (3, 30)")
	if err := failpoint.Enable("shard/scatter", "error(shard unreachable)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	if _, err := c.Exec("SELECT SUM(v) FROM m"); err == nil || !strings.Contains(err.Error(), "shard unreachable") {
		t.Fatalf("scatter error = %v, want injected shard failure", err)
	}
	failpoint.DisableAll()
	res := mustExec(t, c, "SELECT SUM(v) FROM m")
	if res.Rows[0][0].Int() != 60 {
		t.Fatalf("SUM after fault cleared = %v, want 60", res.Rows[0][0])
	}
}

// TestPrepareFaultAbortsEverywhere: an error during the prepare phase
// aborts the transaction on every participant — no marker rows, no
// partial writes, and the shards accept new writes immediately (all
// intents released).
func TestPrepareFaultAbortsEverywhere(t *testing.T) {
	c := NewLocal(4)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")
	// The DDL above committed through 2PC and left its own marker
	// rows; only NEW markers would indicate a leak from the abort.
	markersBefore := make([]int64, c.NumShards())
	for i := 0; i < c.NumShards(); i++ {
		markersBefore[i] = mustExec(t, c.Shard(i), "SELECT COUNT(*) FROM "+markerTable).Rows[0][0].Int()
	}

	if err := failpoint.Enable("shard/2pc-prepare", "error(prepare torn)@2"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	s := c.NewSession()
	defer s.Close()
	mustExecS(t, s, "BEGIN")
	for k := 0; k < 8; k++ {
		mustExecS(t, s, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, %d)", k, k))
	}
	if _, err := s.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "prepare torn") {
		t.Fatalf("COMMIT err = %v, want injected prepare failure", err)
	}
	failpoint.DisableAll()

	if res := mustExec(t, c, "SELECT COUNT(*) FROM m"); res.Rows[0][0].Int() != 0 {
		t.Fatalf("aborted 2PC leaked %v rows", res.Rows[0][0])
	}
	for i := 0; i < c.NumShards(); i++ {
		res := mustExec(t, c.Shard(i), "SELECT COUNT(*) FROM "+markerTable)
		if res.Rows[0][0].Int() != markersBefore[i] {
			t.Fatalf("shard %d kept a marker row from the aborted transaction", i)
		}
	}
	// All intents released: fresh writes commit.
	mustExec(t, c, "INSERT INTO m (k, v) VALUES (100, 1)")
}

// TestCommitFaultIsTornButRecoverable: a fault after the decision was
// logged surfaces ErrTornCommit, and Recover completes the commit on
// the shards that missed it.
func TestCommitFaultIsTornButRecoverable(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenLocal(dir, 4, sqldb.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "CREATE TABLE m (k integer, v integer)")

	if err := failpoint.Enable("shard/2pc-commit", "error(shard died)@2"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	s := c.NewSession()
	mustExecS(t, s, "BEGIN")
	for k := 0; k < 8; k++ {
		mustExecS(t, s, fmt.Sprintf("INSERT INTO m (k, v) VALUES (%d, 1)", k))
	}
	_, err = s.Exec("COMMIT")
	failpoint.DisableAll()
	if !errors.Is(err, ErrTornCommit) {
		t.Fatalf("COMMIT err = %v, want ErrTornCommit", err)
	}
	s.Close()
	c.Close()

	// Reopen: recovery completes the decided commit everywhere.
	c2, err := OpenLocal(dir, 4, sqldb.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res := mustExec(t, c2, "SELECT COUNT(*), SUM(v) FROM m")
	if res.Rows[0][0].Int() != 8 || res.Rows[0][1].Int() != 8 {
		t.Fatalf("recovered commit = %v, want 8 rows", res.Rows[0])
	}
}
