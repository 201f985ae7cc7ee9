package core

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

func mustOpen(t *testing.T, s *Store) *Experiment {
	t.Helper()
	e, err := s.OpenExperiment("iotest")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// kept reports whether s holds an experiment built for name.
func kept(s *Store, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exps[name] != nil
}

// TestReuseUnchangedRows: while an experiment's meta rows stay as they
// are, every open hands out a copy of one built experiment — imports
// do not touch the meta rows — and an Update of one copy leaves the
// others as they were.
func TestReuseUnchangedRows(t *testing.T) {
	forEachBackend(t, func(t *testing.T, q Handle, s *Store) {
		if _, err := s.CreateExperiment(testDef(t)); err != nil {
			t.Fatal(err)
		}
		e1 := mustOpen(t, s)
		if _, err := e1.CreateRun(DataSet{"fs": value.NewString("nfs")}, testSets(2), "a.txt", "c1"); err != nil {
			t.Fatal(err)
		}
		e2 := mustOpen(t, s)
		if e1 == e2 {
			t.Fatal("two opens returned one *Experiment: the built one is handed out, not a copy")
		}
		if e1.Def() != e2.Def() || &e1.Vars()[0] != &e2.Vars()[0] {
			t.Error("unchanged meta rows: the experiment was built again")
		}

		def := testDef(t)
		def.Info.Synopsis = "IO test v2"
		if err := e2.Update(def); err != nil {
			t.Fatal(err)
		}
		if e2.Def().Info.Synopsis != "IO test v2" {
			t.Errorf("the updated copy says %q", e2.Def().Info.Synopsis)
		}
		if e1.Def().Info.Synopsis != "IO test" {
			t.Errorf("another copy's definition changed with the update: %q", e1.Def().Info.Synopsis)
		}
		if kept(s, "iotest") {
			t.Error("Update left the store's experiment in place")
		}
		if e3 := mustOpen(t, s); e3.Def().Info.Synopsis != "IO test v2" {
			t.Errorf("reopened after Update: %q", e3.Def().Info.Synopsis)
		}
	})
}

// TestReuseForeignWrites: a second store over the same database changes
// the meta rows — Update, Grant, Revoke, Destroy and a Setup with other
// variables — and the first store's next open builds the experiment
// again from what it reads.
func TestReuseForeignWrites(t *testing.T) {
	forEachBackend(t, func(t *testing.T, q Handle, s *Store) {
		if _, err := s.CreateExperiment(testDef(t)); err != nil {
			t.Fatal(err)
		}
		other := NewStore(q)
		last := mustOpen(t, s)
		fresh := func(step string) *Experiment {
			t.Helper()
			e := mustOpen(t, s)
			if e.Def() == last.Def() {
				t.Fatalf("after %s: the first store handed out its old experiment", step)
			}
			last = e
			return e
		}

		def := testDef(t)
		def.Info.Synopsis = "IO test v2"
		if err := mustOpen(t, other).Update(def); err != nil {
			t.Fatal(err)
		}
		if e := fresh("Update"); e.Def().Info.Synopsis != "IO test v2" {
			t.Errorf("after Update: synopsis %q", e.Def().Info.Synopsis)
		}

		if err := mustOpen(t, other).Grant("alice", AccessInput); err != nil {
			t.Fatal(err)
		}
		if e := fresh("Grant"); len(e.Def().Access.Input) != 1 || e.Def().Access.Input[0] != "alice" {
			t.Errorf("after Grant: input users %v", e.Def().Access.Input)
		}

		if err := mustOpen(t, other).Revoke("alice"); err != nil {
			t.Fatal(err)
		}
		if e := fresh("Revoke"); len(e.Def().Access.Input) != 0 {
			t.Errorf("after Revoke: input users %v", e.Def().Access.Input)
		}

		if err := other.DestroyExperiment("iotest"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.OpenExperiment("iotest"); err == nil {
			t.Fatal("a destroyed experiment opened")
		}
		redef, err := pbxml.ParseExperiment(strings.NewReader(`
<experiment>
  <name>iotest</name>
  <info><synopsis>IO test</synopsis></info>
  <parameter occurence="once"><name>host</name><datatype>string</datatype></parameter>
  <result><name>lat</name><datatype>float</datatype></result>
</experiment>`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.CreateExperiment(redef); err != nil {
			t.Fatal(err)
		}
		e := fresh("Destroy and Setup")
		if _, ok := e.Var("lat"); !ok {
			t.Error("after Destroy and Setup: the new variable is missing")
		}
		if _, ok := e.Var("bw"); ok {
			t.Error("after Destroy and Setup: the old variable is still there")
		}

		// The store's own writers drop what it kept.
		if err := e.Grant("bob", AccessQuery); err != nil {
			t.Fatal(err)
		}
		if kept(s, "iotest") {
			t.Error("Grant left the store's experiment in place")
		}
		mustOpen(t, s)
		if err := e.Revoke("bob"); err != nil {
			t.Fatal(err)
		}
		if kept(s, "iotest") {
			t.Error("Revoke left the store's experiment in place")
		}
		mustOpen(t, s)
		if err := s.DestroyExperiment("iotest"); err != nil {
			t.Fatal(err)
		}
		if kept(s, "iotest") {
			t.Error("DestroyExperiment left the store's experiment in place")
		}
	})
}

// TestReuseUpdateIsOneCommit: an Update that changes a variable's
// synopsis and adds a variable, a CreateExperiment and a
// DestroyExperiment each commit as one frame, so an open between two of
// their statements cannot see half of one — embedded, and over a wire
// server.
func TestReuseUpdateIsOneCommit(t *testing.T) {
	for _, backend := range []string{"local", "wire"} {
		t.Run(backend, func(t *testing.T) {
			db := sqldb.NewMemory()
			var q Handle = db
			if backend == "wire" {
				srv := wire.NewServer(db)
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				client, err := wire.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { client.Close() })
				q = client
			}
			s := NewStore(q)
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			var frames atomic.Int64
			defer db.AddCommitHook(func(_ sqldb.ReplPos, stmts []string) {
				if stmts != nil {
					frames.Add(1)
				}
			})()
			commits := func(step string) {
				t.Helper()
				if n := frames.Swap(0); n != 1 {
					t.Errorf("%s committed %d frames, want 1", step, n)
				}
			}

			if _, err := s.CreateExperiment(testDef(t)); err != nil {
				t.Fatal(err)
			}
			commits("CreateExperiment")
			for _, src := range []string{"a.txt", "b.txt"} {
				if _, err := mustOpen(t, s).CreateRun(DataSet{}, testSets(2), src, src); err != nil {
					t.Fatal(err)
				}
			}
			frames.Store(0)

			def := testDef(t)
			def.Parameters[0].Synopsis = "file system"
			def.Results = append(def.Results, pbxml.Variable{Name: "lat", DataType: "float"})
			if err := mustOpen(t, s).Update(def); err != nil {
				t.Fatal(err)
			}
			commits("Update")
			e := mustOpen(t, s)
			if v, ok := e.Var("fs"); !ok || v.Synopsis != "file system" {
				t.Errorf("after Update: fs = %+v", v)
			}
			if _, ok := e.Var("lat"); !ok {
				t.Error("after Update: the added variable is missing")
			}
			if res, err := q.Exec("SELECT lat FROM " + e.DataTable(2)); err != nil || len(res.Rows) != 2 {
				t.Errorf("after Update: the run's data table reads %v, %v", res, err)
			}

			if err := s.DestroyExperiment("iotest"); err != nil {
				t.Fatal(err)
			}
			commits("DestroyExperiment")
			if tables := db.Tables(); len(tables) != 4 {
				t.Errorf("after DestroyExperiment the database holds tables %v, want the 4 meta tables", tables)
			}
		})
	}
}

// countingHandle records every SQL statement sent through it; a
// pipeline's bulk steps carry rows to write, no statement.
type countingHandle struct {
	Handle
	stmts []string
}

func (h *countingHandle) Exec(sql string) (*sqldb.Result, error) {
	h.stmts = append(h.stmts, sql)
	return h.Handle.Exec(sql)
}

func (h *countingHandle) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	for _, r := range reqs {
		if !r.Bulk {
			h.stmts = append(h.stmts, r.SQL)
		}
	}
	return h.Handle.ExecPipeline(reqs)
}

// runsReads returns the recorded statements that read pb_runs, and
// forgets every recorded statement.
func (h *countingHandle) runsReads() []string {
	var reads []string
	for _, st := range h.stmts {
		if strings.Contains(st, RunsTable) {
			reads = append(reads, st)
		}
	}
	h.stmts = nil
	return reads
}

// TestReuseImportReadsRunsOnce: an import — the experiment's open and
// CreateRuns — reads pb_runs for its duplicate check alone, and a forced
// import not at all; the next run id comes from the once table.
func TestReuseImportReadsRunsOnce(t *testing.T) {
	forEachBackend(t, func(t *testing.T, q Handle, _ *Store) {
		h := &countingHandle{Handle: q}
		s := NewStore(h)
		if _, err := s.CreateExperiment(testDef(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := mustOpen(t, s).CreateRun(DataSet{}, testSets(1), "a.txt", "a.txt"); err != nil {
			t.Fatal(err)
		}
		h.runsReads()

		e := mustOpen(t, s)
		ids, err := e.CreateRuns("b.txt", []NewRun{{Rows: setRows(t, e, testSets(2)), Source: "b.txt", Checksum: "b.txt"}})
		if err != nil || len(ids) != 1 || ids[0] != 2 {
			t.Fatalf("import = %v, %v, want run 2", ids, err)
		}
		reads := h.runsReads()
		if len(reads) != 1 || !strings.Contains(reads[0], "checksum") {
			t.Errorf("an import read pb_runs with %q, want the duplicate check alone", reads)
		}

		e = mustOpen(t, s)
		if ids, err := e.CreateRuns("", []NewRun{{Rows: setRows(t, e, testSets(1)), Source: "b.txt"}}); err != nil || ids[0] != 3 {
			t.Fatalf("forced import = %v, %v, want run 3", ids, err)
		}
		if reads := h.runsReads(); len(reads) != 0 {
			t.Errorf("a forced import read pb_runs with %q", reads)
		}
	})
}

// runIDs reads the run ids a statement selects.
func runIDs(t *testing.T, q sqldb.Querier, sql string) []int64 {
	t.Helper()
	res, err := q.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].Int()
	}
	return ids
}

func sameRunIDs(t *testing.T, q sqldb.Querier, step string, want ...int64) {
	t.Helper()
	once := runIDs(t, q, "SELECT run_id FROM iotest_once ORDER BY run_id")
	catalog := runIDs(t, q, "SELECT run_id FROM pb_runs WHERE exp = 'iotest' ORDER BY run_id")
	if !slices.Equal(once, catalog) || !slices.Equal(once, want) {
		t.Errorf("after %s: once table holds runs %v, pb_runs %v, want %v in both", step, once, catalog, want)
	}
}

// TestOnceRunIDsMatchCatalog: the once table and pb_runs hold the same
// run ids of an experiment after every writer of either — CreateRuns,
// an import rolled back by a claim over an orphan data table, DeleteRun
// and DestroyExperiment — which is what lets the next run id come from
// the once table's MAX.
func TestOnceRunIDsMatchCatalog(t *testing.T) {
	forEachBackend(t, func(t *testing.T, q Handle, s *Store) {
		if _, err := s.CreateExperiment(testDef(t)); err != nil {
			t.Fatal(err)
		}
		e := mustOpen(t, s)
		runs := make([]NewRun, 3)
		for i := range runs {
			runs[i] = NewRun{Rows: setRows(t, e, testSets(i+1))}
		}
		if _, err := e.CreateRuns("", runs); err != nil {
			t.Fatal(err)
		}
		sameRunIDs(t, q, "CreateRuns", 1, 2, 3)

		// An orphan data table holds id 4: the first claim is rolled
		// back, the second steps over it.
		if _, err := q.Exec("CREATE TABLE " + e.DataTable(4) + " (chunk integer, bw float)"); err != nil {
			t.Fatal(err)
		}
		if id, err := e.CreateRun(DataSet{}, testSets(1), "o.txt", "o.txt"); err != nil || id != 5 {
			t.Fatalf("import over an orphan table = %d, %v, want run 5", id, err)
		}
		sameRunIDs(t, q, "a claim over an orphan table", 1, 2, 3, 5)

		if err := e.DeleteRun(2); err != nil {
			t.Fatal(err)
		}
		if err := e.DeleteRun(5); err != nil {
			t.Fatal(err)
		}
		sameRunIDs(t, q, "DeleteRun", 1, 3)
		if id, err := e.CreateRun(DataSet{}, testSets(1), "", ""); err != nil || id != 5 {
			t.Fatalf("import after deletes = %d, %v, want run 5 (4 is the orphan's)", id, err)
		}
		sameRunIDs(t, q, "an import after deletes", 1, 3, 5)

		if err := s.DestroyExperiment("iotest"); err != nil {
			t.Fatal(err)
		}
		if n := count(t, q, "SELECT COUNT(*) FROM pb_runs WHERE exp = 'iotest'"); n != 0 {
			t.Errorf("DestroyExperiment left %d pb_runs rows", n)
		}
		if _, err := q.Exec("SELECT run_id FROM iotest_once"); err == nil {
			t.Error("DestroyExperiment left the once table")
		}
		if _, err := s.CreateExperiment(testDef(t)); err != nil {
			t.Fatal(err)
		}
		if id, err := mustOpen(t, s).CreateRun(DataSet{}, testSets(1), "", ""); err != nil || id != 1 {
			t.Fatalf("first import after Destroy and Setup = %d, %v, want run 1", id, err)
		}
		sameRunIDs(t, q, "Destroy and Setup", 1)
	})
}

// TestOnceRunIDsAfterFailedImport fails an import at its once row and at
// its pb_runs row: the rolled-back transaction leaves both tables with
// the same run ids, and the next import takes the next id.
func TestOnceRunIDsAfterFailedImport(t *testing.T) {
	// BEGIN, CREATE TABLE, data rows, once row, pb_runs row, COMMIT.
	for _, step := range []int{3, 4, 5} {
		db := sqldb.NewMemory()
		s := NewStore(db)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateExperiment(testDef(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := mustOpen(t, s).CreateRun(DataSet{}, testSets(1), "", ""); err != nil {
			t.Fatal(err)
		}
		failing, err := NewStore(faultyDB{db, step}).OpenExperiment("iotest")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := failing.CreateRun(DataSet{}, testSets(2), "", ""); err == nil {
			t.Fatalf("step %d: the failing import succeeded", step)
		}
		sameRunIDs(t, db, "a failed import", 1)
		if id, err := mustOpen(t, s).CreateRun(DataSet{}, testSets(1), "", ""); err != nil || id != 2 {
			t.Fatalf("step %d: the next import = %d, %v, want run 2", step, id, err)
		}
		sameRunIDs(t, db, "the import after a failed one", 1, 2)
	}
}
