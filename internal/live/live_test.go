package live

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/repl"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

// The test experiment: one environment parameter, a (nproc, op)
// result table, and a scalar score — enough to exercise grouping,
// standard views and regression detection.
const expDoc = `
<experiment>
  <name>bench</name>
  <parameter occurence="once"><name>host</name><datatype>string</datatype></parameter>
  <parameter><name>nproc</name><datatype>integer</datatype></parameter>
  <parameter><name>op</name><datatype>string</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
  <result occurence="once"><name>score</name><datatype>float</datatype></result>
</experiment>`

const descDoc = `
<input experiment="bench">
  <named variable="host" match="host:"/>
  <named variable="score" match="score:"/>
  <tabular start="nproc op bw">
    <column variable="nproc" pos="1"/>
    <column variable="op" pos="2"/>
    <column variable="bw" pos="3"/>
  </tabular>
</input>`

// sampleFile renders one benchmark output file. The tag makes the
// fingerprint unique; bw values land in the (nproc=1, read) and
// (nproc=2, read) groups.
func sampleFile(tag string, bw1, bw2, score float64) []byte {
	return []byte(fmt.Sprintf(`run %s
host: testhost
score: %g
nproc op bw
1 read %g
2 read %g
`, tag, score, bw1, bw2))
}

// newBench creates the experiment on db.
func newBench(t testing.TB, db *sqldb.DB) {
	t.Helper()
	s := core.NewStore(db)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	def, err := pbxml.ParseExperiment(strings.NewReader(expDoc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateExperiment(def); err != nil {
		t.Fatal(err)
	}
}

// startLive wires db + a live service + a wire server on a loopback
// port, returning the service and the address to dial.
func startLive(t *testing.T, db *sqldb.DB, cfg Config) (*Service, string) {
	t.Helper()
	svc := New(db, cfg)
	srv := wire.NewServer(db)
	srv.SetLive(svc)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv.Addr()
}

func ingestReq(tag string, bw1, bw2, score float64) wire.IngestRequest {
	return wire.IngestRequest{
		Experiment: "bench",
		Desc:       []byte(descDoc),
		Name:       "out_" + tag + ".txt",
		Data:       sampleFile(tag, bw1, bw2, score),
	}
}

func fmtRes(res *sqldb.Result) string {
	var b strings.Builder
	for i, c := range res.Columns {
		if i > 0 {
			b.WriteByte('\t')
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Type)
	}
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.SQL())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// standardViewSQL mirrors ensureStandardViews' definitions; the tests
// recompute them on demand for the byte-identical comparison.
var standardViewSQL = map[string]string{
	"bench/runs":  "SELECT COUNT(*), MAX(run_id) FROM pb_runs WHERE exp = 'bench' AND active",
	"bench/score": "SELECT COUNT(score), AVG(score), MIN(score), MAX(score) FROM bench_once",
}

// checkStandardViews asserts every standard view is byte-identical to
// on-demand execution of its SQL.
func checkStandardViews(t *testing.T, db *sqldb.DB, svc *Service) {
	t.Helper()
	if err := svc.Views().WaitPos(db.Pos(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for name, sql := range standardViewSQL {
		got, _, err := svc.ViewResult(name)
		if err != nil {
			t.Fatalf("view %q: %v", name, err)
		}
		want, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmtRes(got), fmtRes(want); g != w {
			t.Fatalf("view %q diverged\n--- materialized ---\n%s--- on-demand ---\n%s", name, g, w)
		}
	}
}

func TestIngestAndStandardViews(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	newBench(t, db)
	svc, addr := startLive(t, db, Config{})

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		res, err := c.Ingest(ingestReq(fmt.Sprintf("f%d", i), 100, 200, 10))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if res.RunID != i+1 {
			t.Fatalf("ingest %d: run id %d, want %d", i, res.RunID, i+1)
		}
		if res.Rows != 2 {
			t.Fatalf("ingest %d: %d data sets, want 2", i, res.Rows)
		}
		if res.Epoch == 0 && res.LSN == 0 {
			t.Fatalf("ingest %d: missing commit position", i)
		}
	}

	// Duplicate content is refused (fingerprint dedup).
	if _, err := c.Ingest(ingestReq("f0", 100, 200, 10)); err == nil ||
		!strings.Contains(err.Error(), "already imported") {
		t.Fatalf("duplicate ingest: err=%v, want already-imported", err)
	}
	// Unknown experiments are refused.
	bad := ingestReq("fx", 1, 2, 3)
	bad.Experiment = "nope"
	if _, err := c.Ingest(bad); err == nil {
		t.Fatal("ingest into unknown experiment should fail")
	}

	// The standard views exist, are listed over the wire, and match
	// their defining SELECT byte for byte.
	names, err := c.ViewNames()
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for n := range standardViewSQL {
		if !have[n] {
			t.Fatalf("standard view %q not registered (have %v)", n, names)
		}
	}
	checkStandardViews(t, db, svc)

	// And the wire VIEW verb serves the same bytes as the registry.
	res, pos, err := c.FetchView("bench/runs")
	if err != nil {
		t.Fatal(err)
	}
	local, lpos, err := svc.ViewResult("bench/runs")
	if err != nil {
		t.Fatal(err)
	}
	if fmtRes(res) != fmtRes(local) || pos != lpos {
		t.Fatalf("wire view differs from registry: %v@%v vs %v@%v", res, pos, local, lpos)
	}
	if _, _, err := c.FetchView("no/such/view"); err == nil {
		t.Fatal("FetchView of unknown view should fail")
	}
}

// TestIngestAtomicParallel loads files concurrently, each file one
// transaction: workers colliding on a run id retry, and every run lands
// complete, under ids with no gap.
func TestIngestAtomicParallel(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	newBench(t, db)
	svc := New(db, Config{Workers: 4})
	defer svc.Close()

	const files = 12
	var wg sync.WaitGroup
	errs := make(chan error, files)
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := svc.IngestFile(ingestReq(fmt.Sprintf("p%d", i), 100, 200, 10))
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	res, err := db.Exec("SELECT COUNT(*), MAX(run_id) FROM pb_runs WHERE exp = 'bench'")
	if err != nil {
		t.Fatal(err)
	}
	if n, top := res.Rows[0][0].Int(), res.Rows[0][1].Int(); n != files || top != files {
		t.Fatalf("catalog holds %d runs up to id %d, want %d up to %d", n, top, files, files)
	}
	// Atomicity: every catalog entry has exactly its once row.
	res, err = db.Exec("SELECT COUNT(*) FROM bench_once")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != files {
		t.Fatalf("once table holds %d rows, want %d", n, files)
	}
	checkStandardViews(t, db, svc)
}

// TestIngestDescriptionCache: a worker keeps, per experiment, the last
// input description it ingested with: 50 ingests with 50 descriptions
// leave one entry, and each description takes effect on the ingest that
// brings it.
func TestIngestDescriptionCache(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	newBench(t, db)
	svc := New(db, Config{Workers: 2})
	defer svc.Close()

	for i := 0; i < 50; i++ {
		req := ingestReq(fmt.Sprintf("c%d", i), 100, 200, 10)
		req.Desc = []byte(strings.Replace(descDoc, `<named variable="host" match="host:"/>`,
			fmt.Sprintf(`<value variable="host" content="h%d"/>`, i), 1))
		res, err := svc.IngestFile(req)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		got, err := db.Exec(fmt.Sprintf("SELECT host FROM bench_once WHERE run_id = %d", res.RunID))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("h%d", i); len(got.Rows) != 1 || got.Rows[0][0].Str() != want {
			t.Fatalf("ingest %d: host %v, want %s", i, got.Rows, want)
		}
	}
	svc.Close()
	for wi, w := range svc.workers {
		if len(w.exps) > 1 {
			t.Errorf("worker %d keeps %d entries for one experiment", wi, len(w.exps))
		}
	}
}

// TestRegressionAlertPush is the end-to-end Fig. 8 story: a WATCH
// subscriber receives a push alert as soon as a regressed run commits
// — and a subscriber with a loose threshold does not.
func TestRegressionAlertPush(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	newBench(t, db)
	_, addr := startLive(t, db, Config{})

	watcher, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	if err := watcher.Watch(wire.WatchSpec{Experiment: "bench", Variable: "bw"}); err != nil {
		t.Fatal(err)
	}
	loose, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loose.Close()
	if err := loose.Watch(wire.WatchSpec{Experiment: "bench", ThresholdPct: 500}); err != nil {
		t.Fatal(err)
	}

	ing, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	// Stable history: five runs with dyadic jitter far below threshold.
	var badID int
	for i := 0; i < 5; i++ {
		j := float64(i) / 8
		if _, err := ing.Ingest(ingestReq(fmt.Sprintf("base%d", i), 100+j, 200+j, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// The bad run: bandwidth halves across both groups.
	res, err := ing.Ingest(ingestReq("bad", 50, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	badID = res.RunID

	type alertOrErr struct {
		a   *wire.Alert
		err error
	}
	got := make(chan alertOrErr, 1)
	go func() {
		a, err := watcher.NextAlert()
		got <- alertOrErr{a, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		a := r.a
		if a.Experiment != "bench" || a.Variable != "bw" {
			t.Fatalf("alert for %s/%s, want bench/bw", a.Experiment, a.Variable)
		}
		if a.RunID != badID {
			t.Fatalf("alert for run %d, want the regressed run %d", a.RunID, badID)
		}
		if a.ChangePct > -45 || a.ChangePct < -55 {
			t.Fatalf("change %.1f%%, want ≈ -50%%", a.ChangePct)
		}
		if a.HistoryRuns != 5 {
			t.Fatalf("history of %d runs, want 5", a.HistoryRuns)
		}
		if a.Epoch == 0 && a.LSN == 0 {
			t.Fatal("alert missing commit position")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no alert within 10s of the regressed run landing")
	}

	// The loose subscriber sees only heartbeats.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		n, err := loose.NextNotice()
		if err != nil {
			t.Fatal(err)
		}
		if n.Alert != nil {
			t.Fatalf("500%%-threshold watcher got alert %+v", n.Alert)
		}
	}
}

// TestAlertAfterLateData pins data arriving after its run: an import
// brings a run in one commit, but a run stored without data sets can get
// its rows later, by hand. The scanner evaluates on the catalog insert
// (no data visible yet, nothing to alert) and must re-evaluate when the
// run's data-set count changes, or the regression is lost.
func TestAlertAfterLateData(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	newBench(t, db)
	svc, addr := startLive(t, db, Config{})

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		j := float64(i) / 8
		if _, err := cl.Ingest(ingestReq(fmt.Sprintf("late%d", i), 100+j, 200+j, 10)); err != nil {
			t.Fatal(err)
		}
	}
	w, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Watch(wire.WatchSpec{Experiment: "bench", Variable: "bw"}); err != nil {
		t.Fatal(err)
	}

	// Replay the arrival by hand: first the catalog commits...
	store := core.NewStore(db)
	exp, err := store.OpenExperiment("bench")
	if err != nil {
		t.Fatal(err)
	}
	id, err := exp.CreateRun(core.DataSet{
		"host":  value.NewString("testhost"),
		"score": value.NewFloat(10),
	}, nil, "late.txt", "late-sum")
	if err != nil {
		t.Fatal(err)
	}
	// ...and the scanner provably consumes that commit before any data
	// exists (this is the moment the old run-id filter lost the alert).
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.amu.Lock()
		seen := svc.lastSeen["bench"].maxRun >= id
		svc.amu.Unlock()
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scanner never saw the catalog row for run %d", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The data lands in a later commit, regressed ~50% vs history.
	if _, err := db.ExecPipeline([]sqldb.PipelineRequest{
		{SQL: "BEGIN"},
		{SQL: fmt.Sprintf("INSERT INTO %s (nproc, op, bw) VALUES (1, 'read', 50), (2, 'read', 100)", exp.DataTable(id))},
		{SQL: fmt.Sprintf("UPDATE pb_runs SET nsets = 2 WHERE exp = 'bench' AND run_id = %d", id)},
		{SQL: "COMMIT"},
	}); err != nil {
		t.Fatal(err)
	}

	type alertOrErr struct {
		a   *wire.Alert
		err error
	}
	got := make(chan alertOrErr, 1)
	go func() {
		a, err := w.NextAlert()
		got <- alertOrErr{a, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.a.RunID != int(id) || r.a.Variable != "bw" {
			t.Fatalf("alert %+v, want run %d bw", r.a, id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late-data regression never alerted")
	}
}

// TestWatcherOverrunDetaches: a subscriber that stops draining is cut
// off (closed channel) instead of stalling the alert engine.
func TestWatcherOverrunDetaches(t *testing.T) {
	db := sqldb.NewMemory()
	defer db.Close()
	svc := New(db, Config{})
	defer svc.Close()
	sub, err := svc.WatchAlerts(wire.WatchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	w := sub.(*watcher)
	for i := 0; i < watcherBuffer+10; i++ {
		w.deliver(wire.Alert{RunID: i})
	}
	// The channel drains its buffer, then reports closure.
	n := 0
	for range sub.Alerts() {
		n++
	}
	if n != watcherBuffer {
		t.Fatalf("drained %d alerts, want the full buffer %d", n, watcherBuffer)
	}
	svc.wamu.Lock()
	_, still := svc.watchers[w]
	svc.wamu.Unlock()
	if still {
		t.Fatal("overrun watcher still registered")
	}
}

// TestLiveStress races N ingest streams, M watchers and continuous
// view readers, then checks every view against its defining SELECT.
// Run with -race; that is the point.
func TestLiveStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := sqldb.NewMemory()
	defer db.Close()
	newBench(t, db)
	svc, addr := startLive(t, db, Config{Workers: 4})

	const (
		streams = 3
		files   = 15
		watch   = 3
		readers = 2
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// M watchers draining notices until shutdown.
	for i := 0; i < watch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			spec := wire.WatchSpec{Experiment: "bench"}
			if i%2 == 1 {
				spec.ThresholdPct = 5 // tight: more alerts, more traffic
			}
			if err := c.Watch(spec); err != nil {
				t.Error(err)
				return
			}
			done := make(chan struct{})
			go func() { <-stop; c.Close(); close(done) }()
			for {
				if _, err := c.NextNotice(); err != nil {
					<-done
					return
				}
			}
		}(i)
	}

	// Concurrent view readers: lock-free reads while ingest writes.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				names, err := c.ViewNames()
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range names {
					if _, _, err := c.FetchView(n); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	// N ingest streams; values jitter so the tight watchers see alerts.
	var iwg sync.WaitGroup
	for s := 0; s < streams; s++ {
		iwg.Add(1)
		go func(s int) {
			defer iwg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < files; i++ {
				bw := 100 + float64((s*files+i)%16)/2
				if _, err := c.Ingest(ingestReq(fmt.Sprintf("s%d_%d", s, i), bw, 2*bw, 10)); err != nil {
					t.Errorf("stream %d file %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	iwg.Wait()
	close(stop)
	wg.Wait()

	res, err := db.Exec("SELECT COUNT(*) FROM pb_runs WHERE exp = 'bench'")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != streams*files {
		t.Fatalf("%d runs stored, want %d", n, streams*files)
	}
	checkStandardViews(t, db, svc)
}

// TestViewsServedFromReplica: a read replica running -live maintains
// the same materialized views from its replicated commit stream and
// pushes alerts, while ingest stays refused as read-only — dashboards
// read warm aggregates without touching the primary.
func TestViewsServedFromReplica(t *testing.T) {
	pdb := sqldb.NewMemory()
	defer pdb.Close()
	// The hub attaches before any SQL runs (as pbserver does at
	// startup) so the full history is streamable.
	hub := repl.NewHub(pdb)
	defer hub.Close()
	newBench(t, pdb)
	psrv := wire.NewServer(pdb)
	psrv.SetReplSource(hub)
	psvc := New(pdb, Config{})
	defer psvc.Close()
	psrv.SetLive(psvc)
	if err := psrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	psrv.SetAdvertise(psrv.Addr())

	ing, err := wire.Dial(psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for i := 0; i < 5; i++ {
		j := float64(i) / 8
		if _, err := ing.Ingest(ingestReq(fmt.Sprintf("r%d", i), 100+j, 200+j, 10)); err != nil {
			t.Fatal(err)
		}
	}

	// The replica: read-only wire server plus its own live service
	// over the replicated database.
	rdb := sqldb.NewMemory()
	defer rdb.Close()
	rep := repl.NewReplica(rdb, psrv.Addr())
	defer rep.Close()
	rsvc := New(rdb, Config{})
	defer rsvc.Close()
	rsrv := wire.NewServer(rdb)
	rsrv.SetReplState(rep)
	rsrv.SetReadOnly(true)
	rsrv.SetLive(rsvc)
	if err := rsrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	if err := rep.WaitCaughtUp(pdb.Pos(), 10*time.Second); err != nil {
		t.Fatalf("replica never caught up: %v (last err: %v)", err, rep.LastError())
	}

	rc, err := wire.Dial(rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Ingest against the replica is refused as read-only.
	if _, err := rc.Ingest(ingestReq("nope", 1, 2, 3)); err == nil {
		t.Fatal("replica accepted INGEST")
	}

	// The standard views appear on the replica (registered from the
	// replicated arrival scan, not from local ingest) and serve the
	// same bytes as on-demand SQL against the replica.
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, _, err := rc.FetchView("bench/runs")
		if err == nil {
			want, werr := rdb.Exec(standardViewSQL["bench/runs"])
			if werr != nil {
				t.Fatal(werr)
			}
			if fmtRes(res) != fmtRes(want) {
				// The view may still be applying the tail; retry until
				// the deadline.
				if time.Now().After(deadline) {
					t.Fatalf("replica view diverged\n%s\nvs\n%s", fmtRes(res), fmtRes(want))
				}
				time.Sleep(5 * time.Millisecond)
				continue
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never served bench/runs: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A WATCH against the replica pushes the regression when the bad
	// run replicates over.
	if err := rc.Watch(wire.WatchSpec{Experiment: "bench", Variable: "bw"}); err != nil {
		t.Fatal(err)
	}
	res, err := ing.Ingest(ingestReq("bad", 50, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	type alertOrErr struct {
		a   *wire.Alert
		err error
	}
	got := make(chan alertOrErr, 1)
	go func() {
		a, err := rc.NextAlert()
		got <- alertOrErr{a, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.a.RunID != res.RunID || r.a.Variable != "bw" {
			t.Fatalf("replica alert %+v, want run %d bw", r.a, res.RunID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no alert from the replica watcher")
	}
}
