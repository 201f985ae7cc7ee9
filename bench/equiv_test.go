package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"perfbase"
	"perfbase/internal/beffio"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

// stamps matches the wall-clock values core writes into pb_runs.created
// and pb_experiments.created — the only bytes of a dump that differ
// between two imports of one corpus.
var stamps = regexp.MustCompile(`\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d[0-9.]*Z?`)

// TestTracedStackEquivalence holds the traced stack to the output of
// perfbase.Session: the same documents for every parameterisation and
// the same database, embedded and over the wire. Without it the trace
// could describe code the end-to-end run never executes.
func TestTracedStackEquivalence(t *testing.T) {
	tmp := t.TempDir()
	corpus, err := genBeffio(filepath.Join(tmp, "files"), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := fig8Params(5)

	type built struct {
		docs [][]perfbase.Document
		dump string
	}
	build := func(st stack, dir string) built {
		t.Helper()
		s, err := st.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Setup(beffio.ExperimentXML); err != nil {
			t.Fatal(err)
		}
		for _, f := range corpus.files {
			if err := s.Import(beffExp, beffio.InputXML, f); err != nil {
				t.Fatal(err)
			}
		}
		set, err := verifyFig8(s, corpus, params, filepath.Join(dir, "out"))
		if err != nil {
			t.Fatal(err)
		}
		docs := set.golden
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		dump, err := dumpDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return built{docs, stamps.ReplaceAllString(dump, "<ts>")}
	}
	tr := newTracer()
	plain := build(plainStack{}, filepath.Join(tmp, "plain"))
	traced := build(&tracedStack{t: tr}, filepath.Join(tmp, "traced"))
	for i := range params {
		if !sameDocs(plain.docs[i], traced.docs[i]) {
			t.Errorf("%+v: traced documents differ from perfbase.Session's", params[i])
		}
	}
	if plain.dump != traced.dump {
		t.Error("traced import left a different database")
	}
	if len(tr.spans) == 0 {
		t.Error("the traced stack recorded no span")
	}

	// Over the wire: one server, one client of each kind.
	db, err := sqldb.Open(filepath.Join(tmp, "plain"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := wire.NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, st := range map[string]stack{"plain": plainStack{}, "traced": &tracedStack{t: tr}} {
		s, err := st.Connect(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		docs, err := s.Query(params[0].spec(), filepath.Join(tmp, "out-"+name))
		if err != nil {
			t.Fatal(err)
		}
		if !sameDocs(docs, plain.docs[0]) {
			t.Errorf("%s client: documents over the wire differ from the embedded ones", name)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceQuerierForwards pins the optional interfaces of the tracing
// Querier to those of what it wraps: query/vector.go asks for
// BulkInserter and Pipeliner, query/source.go for HasTable, and each
// answer selects a different code path.
func TestTraceQuerierForwards(t *testing.T) {
	db := sqldb.NewMemory()
	srv := wire.NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type hasTabler interface{ HasTable(string) bool }
	c := &tracedStack{t: newTracer()}
	for name, inner := range map[string]backend{"sqldb.DB": db, "wire.Client": cl} {
		var in sqldb.Querier = inner
		var q sqldb.Querier = &traceQuerier{c, inner, "sqldb.exec"}
		_, inBulk := in.(sqldb.BulkInserter)
		_, qBulk := q.(sqldb.BulkInserter)
		_, inPipe := in.(sqldb.Pipeliner)
		_, qPipe := q.(sqldb.Pipeliner)
		_, inHas := in.(hasTabler)
		_, qHas := q.(hasTabler)
		if inBulk != qBulk || inPipe != qPipe || inHas != qHas {
			t.Errorf("%s: BulkInserter %v/%v Pipeliner %v/%v HasTable %v/%v (backend/tracing)",
				name, inBulk, qBulk, inPipe, qPipe, inHas, qHas)
		}
	}

	// The forwarded calls reach the backend and leave a span each.
	q := &traceQuerier{c, db, "sqldb.exec"}
	if _, err := q.ExecPipeline([]sqldb.PipelineRequest{{SQL: "CREATE TABLE t (a integer)"}}); err != nil {
		t.Fatal(err)
	}
	if n, err := q.InsertRows("t", []string{"a"}, []sqldb.Row{{value.NewInt(3)}}); err != nil || n != 1 {
		t.Errorf("InsertRows: n=%d err=%v", n, err)
	}
	if _, err := q.Exec("INSERT INTO t (a) VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RowCount("t"); n != 3 {
		t.Errorf("table has %d rows, want 3", n)
	}
	var classes []string
	for _, s := range c.t.spans {
		classes = append(classes, s.Class)
	}
	if want := []string{"pipeline", "bulk", "insert_values"}; !slices.Equal(classes, want) {
		t.Errorf("span classes %v, want %v", classes, want)
	}
}

// TestWatchCountsWALBytes: the bytes the tracer adds up from the commit
// stream are the bytes the WAL file holds once it is flushed.
func TestWatchCountsWALBytes(t *testing.T) {
	tmp := t.TempDir()
	corpus, err := genBeffio(filepath.Join(tmp, "files"), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	dir := filepath.Join(tmp, "db")
	s, err := (&tracedStack{t: tr}).OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(beffio.ExperimentXML); err != nil {
		t.Fatal(err)
	}
	for _, f := range corpus.files[:3] {
		if err := s.Import(beffExp, beffio.InputXML, f); err != nil {
			t.Fatal(err)
		}
	}
	s.(*tracedSession).db.Crash() // flushes the WAL and leaves the file as it is
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	const walHeader = 16 // magic and epoch
	if got, want := tr.counters().walBytes, fi.Size()-walHeader; got != want || got == 0 {
		t.Errorf("counted %d WAL bytes, wal.log holds %d frame bytes", got, want)
	}
}
