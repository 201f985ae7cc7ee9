package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

var errInjected = errors.New("injected step failure")

// faultyDB fails the write pipelines (those that BEGIN) it runs at step
// failAt, before the step reaches the database; reads pass through.
type faultyDB struct {
	*sqldb.DB
	failAt int
}

func (h faultyDB) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	if reqs[0].SQL != "BEGIN" {
		return h.DB.ExecPipeline(reqs)
	}
	s := h.DB.NewSession()
	defer s.Close()
	return sqldb.RunPipeline(&stepFault{Session: s, left: h.failAt}, reqs)
}

// stepFault is a session whose step number left, counted from 0, fails.
type stepFault struct {
	*sqldb.Session
	left int
}

func (s *stepFault) step() error {
	s.left--
	if s.left == -1 {
		return errInjected
	}
	return nil
}

func (s *stepFault) Exec(sql string) (*sqldb.Result, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.Session.Exec(sql)
}

func (s *stepFault) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	if err := s.step(); err != nil {
		return 0, err
	}
	return s.Session.InsertRows(table, cols, rows)
}

func testSets(n int) []DataSet {
	sets := make([]DataSet, n)
	for i := range sets {
		sets[i] = DataSet{"chunk": value.NewInt(int64(32 << i)), "bw": value.NewFloat(float64(i) + 0.5)}
	}
	return sets
}

func count(t *testing.T, q sqldb.Querier, sql string) int64 {
	t.Helper()
	res, err := q.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// TestImportIsAtomic fails an import at every step of its write
// pipeline and at every stage of its commit, and reopens the database:
// nothing of the failed file is left — no data table, no once row, no
// pb_runs row — and the next import gets the next id. A run whose
// content fails validation writes nothing at all.
func TestImportIsAtomic(t *testing.T) {
	type fault struct {
		name       string
		failAt     int // write-pipeline step, or -1
		site, spec string
	}
	// BEGIN, CREATE TABLE, data rows, once row, pb_runs row, COMMIT.
	var faults []fault
	for i := 0; i < 6; i++ {
		faults = append(faults, fault{name: fmt.Sprintf("step_%d", i), failAt: i})
	}
	faults = append(faults,
		fault{"validate", -1, "sqldb/txn/validate", "error"},
		fault{"publish", -1, "sqldb/txn/publish", "panic"},
		fault{"wal", -1, "sqldb/txn/wal", "panic"})
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := sqldb.OpenWithPolicy(dir, sqldb.SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			s := NewStore(db)
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			e, err := s.CreateExperiment(testDef(t))
			if err != nil {
				t.Fatal(err)
			}
			if id, err := e.CreateRun(DataSet{"fs": value.NewString("nfs")}, testSets(2), "first.txt", "c1"); err != nil || id != 1 {
				t.Fatalf("first import = %d, %v", id, err)
			}

			failing := e
			if f.failAt >= 0 {
				if failing, err = NewStore(faultyDB{db, f.failAt}).OpenExperiment("iotest"); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := failpoint.Enable(f.site, f.spec); err != nil {
					t.Fatal(err)
				}
				defer failpoint.DisableAll()
			}
			err = func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, err = failing.CreateRun(DataSet{"fs": value.NewString("ufs")}, testSets(3), "second.txt", "c2")
				return err
			}()
			failpoint.DisableAll()
			if err == nil {
				t.Fatal("the failing import succeeded")
			}

			db.Crash()
			db, err = sqldb.OpenWithPolicy(dir, sqldb.SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, ok := db.TableSchema("iotest_run_2"); ok {
				t.Error("the failed import's data table survived")
			}
			if n := count(t, db, "SELECT COUNT(*) FROM iotest_once"); n != 1 {
				t.Errorf("%d once rows, want the first import's one", n)
			}
			if n := count(t, db, "SELECT COUNT(*) FROM pb_runs WHERE checksum = 'c2'"); n != 0 {
				t.Errorf("the failed import left %d pb_runs rows", n)
			}
			e, err = NewStore(db).OpenExperiment("iotest")
			if err != nil {
				t.Fatal(err)
			}
			if id, err := e.CreateRun(DataSet{}, testSets(1), "third.txt", "c3"); err != nil || id != 2 {
				t.Errorf("the next import = %d, %v, want run 2", id, err)
			}
		})
	}

	t.Run("invalid_data_set", func(t *testing.T) {
		db := sqldb.NewMemory()
		s := NewStore(db)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		e, err := s.CreateExperiment(testDef(t))
		if err != nil {
			t.Fatal(err)
		}
		pos, tables := db.Pos(), len(db.Tables())
		sets := append(testSets(2), DataSet{"chunk": value.NewString("big")})
		if _, err := e.CreateRun(DataSet{}, sets, "bad.txt", "c4"); err == nil {
			t.Fatal("an uncoercible data set was accepted")
		}
		if db.Pos() != pos || len(db.Tables()) != tables {
			t.Errorf("the refused run wrote: position %v -> %v, %d -> %d tables", pos, db.Pos(), tables, len(db.Tables()))
		}
	})
}

// TestDeleteRunIsOneTransaction fails DeleteRun at every step: the run
// is then whole, and once the delete goes through, gone.
func TestDeleteRunIsOneTransaction(t *testing.T) {
	db := sqldb.NewMemory()
	s := NewStore(db)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.CreateRun(DataSet{"fs": value.NewString("ufs")}, testSets(2), "a.txt", "c1")
	if err != nil {
		t.Fatal(err)
	}
	whole := func(e *Experiment) bool {
		_, errRun := e.Run(id)
		_, errOnce := e.RunOnce(id)
		n, ok := db.RowCount(e.DataTable(id))
		return errRun == nil && errOnce == nil && ok && n == 2
	}
	// BEGIN, DROP TABLE, once row, pb_runs row, COMMIT.
	for step := 0; step < 5; step++ {
		faulty, err := NewStore(faultyDB{db, step}).OpenExperiment("iotest")
		if err != nil {
			t.Fatal(err)
		}
		if err := faulty.DeleteRun(id); !errors.Is(err, errInjected) {
			t.Fatalf("step %d: DeleteRun = %v, want the injected failure", step, err)
		}
		if !whole(e) {
			t.Fatalf("step %d: a failed DeleteRun left the run partly deleted", step)
		}
	}
	if err := e.DeleteRun(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(id); err == nil {
		t.Error("deleted run still cataloged")
	}
	if _, ok := db.TableSchema(e.DataTable(id)); ok {
		t.Error("deleted run's data table survived")
	}
	if n := count(t, db, "SELECT COUNT(*) FROM iotest_once"); n != 0 {
		t.Errorf("deleted run left %d once rows", n)
	}
}

// TestConcurrentImportsDense: 8 input users import 25 files each into one
// experiment at once, against an embedded database, a wire server and a
// 2-shard cluster. The runs get the ids 1..200 with no gap, no data
// table or once row is left without its run, and every run's nsets is
// its data table's row count.
func TestConcurrentImportsDense(t *testing.T) {
	const workers, files = 8, 25
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			b := b.open(t)
			s := NewStore(b.handle())
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			e, err := s.CreateExperiment(testDef(t))
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]Handle, workers)
			for w := range handles {
				handles[w] = b.handle()
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					e, err := NewStore(handles[w]).OpenExperiment("iotest")
					if err != nil {
						t.Error(err)
						return
					}
					for f := 0; f < files; f++ {
						src := fmt.Sprintf("w%d_f%d.txt", w, f)
						if _, err := e.CreateRuns(src, []NewRun{{Rows: setRows(t, e, testSets(1+(w+f)%3)), Source: src, Checksum: src}}); err != nil {
							t.Errorf("%s: %v", src, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			runs, err := e.Runs()
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != workers*files {
				t.Fatalf("%d runs, want %d", len(runs), workers*files)
			}
			q := s.Querier()
			for i, r := range runs {
				if r.ID != int64(i+1) {
					t.Fatalf("run %d has id %d: the ids are not 1..%d", i+1, r.ID, len(runs))
				}
				var w, f int
				if _, err := fmt.Sscanf(r.Source, "w%d_f%d.txt", &w, &f); err != nil {
					t.Fatal(err)
				}
				if want := 1 + (w+f)%3; r.DataSets != want {
					t.Errorf("run %d (%s): nsets %d, want %d", r.ID, r.Source, r.DataSets, want)
				}
				if n := count(t, q, "SELECT COUNT(*) FROM "+e.DataTable(r.ID)); n != int64(r.DataSets) {
					t.Errorf("run %d: data table holds %d rows, nsets says %d", r.ID, n, r.DataSets)
				}
			}
			if n := count(t, q, "SELECT COUNT(*) FROM iotest_once"); n != int64(len(runs)) {
				t.Errorf("%d once rows for %d runs", n, len(runs))
			}
			for i, tables := range b.catalogs() {
				data := 0
				for _, name := range tables {
					if strings.HasPrefix(name, "iotest_run_") {
						data++
					}
				}
				if data != len(runs) {
					t.Errorf("database %d: %d data tables for %d runs", i, data, len(runs))
				}
			}
		})
	}
}

// setRows lays data sets out as the rows of a NewRun of e.
func setRows(tb testing.TB, e *Experiment, sets []DataSet) []sqldb.Row {
	tb.Helper()
	rows, err := e.Rows(sets)
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// gatedHandle holds its first write pipeline (one that BEGINs) until
// every importer sharing ready has reached its own: importers through
// gated handles all read the catalog before any of them writes.
type gatedHandle struct {
	Handle
	ready *sync.WaitGroup
	once  sync.Once
}

func (h *gatedHandle) pass() { h.ready.Done(); h.ready.Wait() }

func (h *gatedHandle) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	if reqs[0].SQL == "BEGIN" {
		h.once.Do(h.pass)
	}
	return h.Handle.ExecPipeline(reqs)
}

// TestImportDuplicateConcurrent: two input users import one file at
// once, each reading the run ids and the duplicate count before either
// writes, against an embedded database, a wire server and a 2-shard
// cluster. Both claim run 1; the loser reads again, finds the winner's
// run, and is refused: one active run carries the file's checksum.
func TestImportDuplicateConcurrent(t *testing.T) {
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			b := b.open(t)
			s := NewStore(b.handle())
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			e, err := s.CreateExperiment(testDef(t))
			if err != nil {
				t.Fatal(err)
			}
			var ready, done sync.WaitGroup
			errs := make([]error, 2)
			ready.Add(len(errs))
			for i := range errs {
				h := &gatedHandle{Handle: b.handle(), ready: &ready}
				ie, err := NewStore(h).OpenExperiment("iotest")
				if err != nil {
					t.Fatal(err)
				}
				run := NewRun{Rows: setRows(t, ie, testSets(2)), Source: "same.txt", Checksum: "same.txt"}
				done.Add(1)
				go func() {
					defer done.Done()
					defer h.once.Do(h.pass) // an import that failed before its write frees the other
					_, errs[i] = ie.CreateRuns("same.txt", []NewRun{run})
				}()
			}
			done.Wait()
			stored, refused := 0, 0
			for _, err := range errs {
				switch {
				case err == nil:
					stored++
				case errors.Is(err, ErrDuplicateImport):
					refused++
				default:
					t.Errorf("import: %v", err)
				}
			}
			if stored != 1 || refused != 1 {
				t.Errorf("%d imports stored the file and %d were refused, want 1 and 1", stored, refused)
			}
			if n := count(t, s.Querier(), "SELECT COUNT(*) FROM pb_runs WHERE checksum = 'same.txt' AND active"); n != 1 {
				t.Errorf("%d active runs carry the file's checksum, want 1", n)
			}
			if runs, err := e.Runs(); err != nil || len(runs) != 1 {
				t.Errorf("runs = %v, %v; want one", runs, err)
			}
		})
	}
}
