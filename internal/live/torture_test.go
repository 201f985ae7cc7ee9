package live

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/failpoint"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// Crash-torture matrix for the live pipeline, mirroring the sqldb
// harness: a child process runs a continuous-benchmarking workload
// (ingest stream + alert watcher + materialized views) against a
// durable database with one live failpoint armed to crash. The parent
// reopens the directory and asserts:
//
//   - the database opens, whatever the crash point;
//   - a fresh view registry rebuilds every view from the recovered
//     snapshot byte-identical to on-demand execution of its SQL —
//     a crash mid-view-apply must leave no divergence;
//   - ingest atomicity (every file is one transaction): the run catalog,
//     the experiment's once table and its data tables agree exactly —
//     one once row and one data table per cataloged run, holding as many
//     rows as the run's nsets says, and no data table without a run.

const (
	liveChildEnv = "PERFBASE_LIVE_TORTURE_CHILD"
	liveDirEnv   = "PERFBASE_LIVE_TORTURE_DIR"
	liveOps      = 60
)

// liveTortureViews are the views the child registers and the parent
// rebuilds; the standard per-experiment views join them after the
// first ingest.
var liveTortureViews = map[string]string{
	"catalog": "SELECT exp, COUNT(*), MAX(run_id) FROM pb_runs GROUP BY exp",
}

func TestLiveTortureChild(t *testing.T) {
	if os.Getenv(liveChildEnv) != "1" {
		t.Skip("torture child entry point; driven by TestLiveTortureCrashMatrix")
	}
	dir := os.Getenv(liveDirEnv)
	if err := failpoint.SetFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(9)
	}
	db, err := sqldb.OpenWithPolicy(dir, sqldb.SyncAlways)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(9)
	}
	s := core.NewStore(db)
	if err := s.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "child init:", err)
		os.Exit(9)
	}
	if _, err := s.OpenExperiment("bench"); err != nil {
		def, perr := pbxml.ParseExperiment(strings.NewReader(expDoc))
		if perr != nil {
			fmt.Fprintln(os.Stderr, "child def:", perr)
			os.Exit(9)
		}
		if _, cerr := s.CreateExperiment(def); cerr != nil {
			fmt.Fprintln(os.Stderr, "child create:", cerr)
			os.Exit(9)
		}
	}

	svc := New(db, Config{Workers: 2})
	for name, sql := range liveTortureViews {
		if err := svc.RegisterView(name, sql); err != nil {
			fmt.Fprintln(os.Stderr, "child view:", err)
			os.Exit(9)
		}
	}
	// A draining in-process watcher keeps the notify path hot so the
	// live/notify site is actually reached.
	sub, err := svc.WatchAlerts(wire.WatchSpec{Experiment: "bench", Variable: "bw"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child watch:", err)
		os.Exit(9)
	}
	var alerts atomic.Int64
	go func() {
		for range sub.Alerts() {
			alerts.Add(1)
		}
	}()

	for i := 1; i <= liveOps; i++ {
		// Alternating bandwidth: every run past the second regresses
		// against its history, so alerts flow continuously.
		bw := 100.0
		if i%2 == 0 {
			bw = 300
		}
		if _, err := svc.IngestFile(ingestReq(fmt.Sprintf("t%d", i), bw, 2*bw, 10)); err != nil {
			fmt.Fprintf(os.Stderr, "child ingest %d: %v\n", i, err)
			os.Exit(9)
		}
	}
	// Let the asynchronous alert/view pipelines drain into any armed
	// crash site before a clean exit.
	time.Sleep(1500 * time.Millisecond)
	os.Exit(0)
}

func spawnLiveChild(t *testing.T, dir, failpoints string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestLiveTortureChild$")
	cmd.Env = append(os.Environ(),
		liveChildEnv+"=1",
		liveDirEnv+"="+dir,
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

// verifyLiveRecovery reopens the directory, rebuilds every view from
// the recovered snapshot and asserts it is byte-identical to on-demand
// SQL; plus the atomic-ingest invariant.
func verifyLiveRecovery(t *testing.T, dir string) {
	t.Helper()
	db, err := sqldb.OpenWithPolicy(dir, sqldb.SyncAlways)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer db.Close()

	views := map[string]string{}
	for n, sql := range liveTortureViews {
		views[n] = sql
	}
	for n, sql := range standardViewSQL {
		views[n] = sql
	}
	r := sqldb.NewViewRegistry(db)
	defer r.Close()
	for name, sql := range views {
		if err := r.Register(name, sql); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	if err := r.WaitPos(db.Pos(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for name, sql := range views {
		got, _, gerr := r.Get(name)
		want, werr := db.Exec(sql)
		// The crash may predate the meta tables; view and on-demand
		// must then fail alike.
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("view %q: materialized err=%v, on-demand err=%v", name, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if g, w := fmtRes(got), fmtRes(want); g != w {
			t.Fatalf("view %q diverged after recovery\n--- materialized ---\n%s--- on-demand ---\n%s", name, g, w)
		}
	}

	// Atomic ingest: catalog, once table and data tables always agree.
	runs, err := db.Exec("SELECT run_id, nsets FROM pb_runs WHERE exp = 'bench'")
	if err != nil {
		return // crash before the meta tables existed
	}
	once, err := db.Exec("SELECT COUNT(*) FROM bench_once")
	if err != nil {
		t.Fatalf("catalog exists but once table lost: %v", err)
	}
	if r, o := len(runs.Rows), once.Rows[0][0].Int(); int64(r) != o {
		t.Fatalf("half-ingested run survived: %d catalog rows vs %d once rows", r, o)
	}
	for _, r := range runs.Rows {
		table := fmt.Sprintf("bench_run_%d", r[0].Int())
		if n, ok := db.RowCount(table); !ok || int64(n) != r[1].Int() {
			t.Fatalf("run %d: data table %s has %d rows (exists %v), nsets says %d", r[0].Int(), table, n, ok, r[1].Int())
		}
	}
	data := 0
	for _, name := range db.Tables() {
		if strings.HasPrefix(name, "bench_run_") {
			data++
		}
	}
	if data != len(runs.Rows) {
		t.Fatalf("%d data tables for %d cataloged runs", data, len(runs.Rows))
	}
}

// TestLiveTortureCrashMatrix arms each live failpoint to crash the
// child at several depths and asserts recovery every time.
func TestLiveTortureCrashMatrix(t *testing.T) {
	registered := map[string]bool{}
	for _, n := range failpoint.List() {
		registered[n] = true
	}
	sites := []string{"live/ingest", "live/view-apply", "live/notify"}
	specs := []string{"crash@3", "crash@20"}
	for _, site := range sites {
		if !registered[site] {
			t.Fatalf("torture site %q is not registered — did a failpoint get renamed?", site)
		}
	}
	for _, site := range sites {
		for _, spec := range specs {
			if testing.Short() && spec != "crash@3" {
				continue
			}
			site, spec := site, spec
			t.Run(strings.ReplaceAll(site, "/", "_")+"_"+spec, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				spawnLiveChild(t, dir, site+"="+spec)
				verifyLiveRecovery(t, dir)
			})
		}
	}
}
