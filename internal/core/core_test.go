package core

import (
	"errors"
	"strings"
	"testing"

	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

// testDef builds a small experiment definition for tests.
func testDef(t testing.TB) *pbxml.Experiment {
	t.Helper()
	doc := `
<experiment>
  <name>iotest</name>
  <info><synopsis>IO test</synopsis></info>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype>
    <valid>ufs</valid><valid>nfs</valid><valid>unknown</valid><default>unknown</default></parameter>
  <parameter occurence="once"><name>nodes</name><datatype>integer</datatype></parameter>
  <parameter><name>chunk</name><datatype>integer</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
</experiment>`
	def, err := pbxml.ParseExperiment(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(sqldb.NewMemory())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateAndOpenExperiment(t *testing.T) {
	s := newStore(t)
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "iotest" {
		t.Errorf("name = %q", e.Name())
	}
	if len(e.OnceVars()) != 2 || len(e.MultiVars()) != 2 {
		t.Errorf("var partition: %d once, %d multi", len(e.OnceVars()), len(e.MultiVars()))
	}

	names, err := s.ListExperiments()
	if err != nil || len(names) != 1 || names[0] != "iotest" {
		t.Errorf("ListExperiments = %v, %v", names, err)
	}

	// Re-open and verify reconstruction.
	e2, err := s.OpenExperiment("iotest")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := e2.Var("FS")
	if !ok || v.Type != value.String || !v.Once || v.Result {
		t.Errorf("reopened fs var = %+v", v)
	}
	if v.Default.Str() != "unknown" || len(v.Valid) != 3 {
		t.Errorf("fs default/valid = %v %v", v.Default, v.Valid)
	}
	bw, ok := e2.Var("bw")
	if !ok || !bw.Result || bw.Once {
		t.Errorf("bw var = %+v", bw)
	}
	if e2.Def().Info.Synopsis != "IO test" {
		t.Errorf("synopsis = %q", e2.Def().Info.Synopsis)
	}

	// Duplicate creation refused.
	if _, err := s.CreateExperiment(testDef(t)); err == nil {
		t.Error("duplicate experiment accepted")
	}
	// Unknown experiment.
	if _, err := s.OpenExperiment("ghost"); err == nil {
		t.Error("open of missing experiment succeeded")
	}
}

func TestInitIdempotent(t *testing.T) {
	s := newStore(t)
	if err := s.Init(); err != nil {
		t.Fatalf("second Init: %v", err)
	}
}

func TestReservedVariableName(t *testing.T) {
	s := newStore(t)
	doc := `<experiment><name>x</name>
		<parameter><name>run_id</name><datatype>integer</datatype></parameter></experiment>`
	def, err := pbxml.ParseExperiment(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateExperiment(def); err == nil {
		t.Error("reserved variable name accepted")
	}
}

func TestRunLifecycle(t *testing.T) {
	s := newStore(t)
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.CreateRun(DataSet{
		"fs":    value.NewString("ufs"),
		"nodes": value.NewInt(4),
	}, []DataSet{
		{"chunk": value.NewInt(32), "bw": value.NewFloat(76.68)},
		{"chunk": value.NewInt(1024), "bw": value.NewFloat(227.18)},
	}, "out1.txt", "sum1")
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first run id = %d", id)
	}

	id2, err := e.CreateRun(DataSet{"fs": value.NewString("nfs")}, nil, "out2.txt", "sum2")
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 2 {
		t.Errorf("second run id = %d", id2)
	}

	runs, err := e.Runs()
	if err != nil || len(runs) != 2 {
		t.Fatalf("Runs = %v, %v", runs, err)
	}
	if runs[0].ID != 1 || runs[0].Source != "out1.txt" || runs[0].DataSets != 2 {
		t.Errorf("run[0] = %+v", runs[0])
	}
	if runs[1].DataSets != 0 {
		t.Errorf("run[1] datasets = %d", runs[1].DataSets)
	}

	once, err := e.RunOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if once["fs"].Str() != "ufs" || once["nodes"].Int() != 4 {
		t.Errorf("once values = %v", once)
	}
	// Run 2 had no nodes value: NULL; fs default path not taken (explicit).
	once2, err := e.RunOnce(2)
	if err != nil {
		t.Fatal(err)
	}
	if !once2["nodes"].IsNull() {
		t.Errorf("missing once value should be NULL: %v", once2["nodes"])
	}

	data, err := e.RunData(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 2 {
		t.Errorf("run data rows = %d", len(data.Rows))
	}

	info, err := e.Run(1)
	if err != nil || info.Checksum != "sum1" {
		t.Errorf("Run(1) = %+v, %v", info, err)
	}

	// Duplicate import detection: a file with a stored fingerprint is
	// refused and writes nothing; an empty fingerprint checks nothing.
	if _, err := e.CreateRuns("sum1", []NewRun{{Checksum: "sum1"}}); !errors.Is(err, ErrDuplicateImport) {
		t.Errorf("re-import of sum1: err = %v, want ErrDuplicateImport", err)
	}
	if runs, _ := e.Runs(); len(runs) != 2 {
		t.Errorf("refused import left %d runs, want 2", len(runs))
	}

	// Deletion.
	if err := e.DeleteRun(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunData(1); err == nil {
		t.Error("deleted run still has data")
	}
	runs, _ = e.Runs()
	if len(runs) != 1 || runs[0].ID != 2 {
		t.Errorf("runs after delete = %v", runs)
	}
	if err := e.DeleteRun(99); err == nil {
		t.Error("delete of missing run succeeded")
	}
	// Run ids are not reused.
	id3, err := e.CreateRun(DataSet{}, nil, "out3.txt", "")
	if err != nil || id3 != 3 {
		t.Errorf("next run id = %d, %v", id3, err)
	}
	// The runs of one file: consecutive ids, in one transaction.
	ids, err := e.CreateRuns("sum4", []NewRun{
		{Rows: setRows(t, e, []DataSet{{"chunk": value.NewInt(1)}}), Checksum: "sum4#0"},
		{Rows: setRows(t, e, []DataSet{{"chunk": value.NewInt(2)}, {"chunk": value.NewInt(3)}}), Checksum: "sum4#1"},
	})
	if err != nil || len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("CreateRuns = %v, %v, want [4 5]", ids, err)
	}
	if info, err := e.Run(5); err != nil || info.DataSets != 2 || info.Checksum != "sum4#1" {
		t.Errorf("Run(5) = %+v, %v", info, err)
	}
}

func TestRunValidation(t *testing.T) {
	s := newStore(t)
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	// fs not in valid list.
	if _, err := e.CreateRun(DataSet{"fs": value.NewString("zfs")}, nil, "", ""); err == nil {
		t.Error("invalid fs content accepted")
	}
	// Unknown variable.
	if _, err := e.CreateRun(DataSet{"ghost": value.NewInt(1)}, nil, "", ""); err == nil {
		t.Error("unknown once variable accepted")
	}
	// Multi variable passed as once.
	if _, err := e.CreateRun(DataSet{"bw": value.NewFloat(1)}, nil, "", ""); err == nil {
		t.Error("multi variable accepted as once value")
	}
	// Default applied when fs missing.
	id, err := e.CreateRun(DataSet{}, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(id)
	if once["fs"].Str() != "unknown" {
		t.Errorf("fs default = %v", once["fs"])
	}
	// Uncoercible content.
	if _, err := e.CreateRun(DataSet{"nodes": value.NewString("many")}, nil, "", ""); err == nil {
		t.Error("uncoercible once content accepted")
	}
	if _, err := e.CreateRun(DataSet{}, []DataSet{{"chunk": value.NewString("big")}}, "", ""); err == nil {
		t.Error("uncoercible data set content accepted")
	}
	// None of the refused runs took an id.
	if id2, err := e.CreateRun(DataSet{}, nil, "", ""); err != nil || id2 != id+1 {
		t.Errorf("run after the refusals = %d, %v, want %d", id2, err, id+1)
	}
}

func TestAccessControl(t *testing.T) {
	s := newStore(t)
	def := testDef(t)
	def.Access.Admin = []string{"alice"}
	def.Access.Input = []string{"bob"}
	def.Access.Query = []string{"carol"}
	e, err := s.CreateExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		user  string
		class AccessClass
		want  bool
	}{
		{"alice", AccessAdmin, true},
		{"alice", AccessQuery, true}, // admin implies query
		{"bob", AccessInput, true},
		{"bob", AccessAdmin, false},
		{"bob", AccessQuery, true}, // input implies query
		{"carol", AccessQuery, true},
		{"carol", AccessInput, false},
		{"mallory", AccessQuery, false},
	}
	for _, c := range cases {
		got, err := e.Can(c.user, c.class)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Can(%s, %s) = %v, want %v", c.user, c.class, got, c.want)
		}
	}

	// Grant and revoke.
	if err := e.Grant("mallory", AccessInput); err != nil {
		t.Fatal(err)
	}
	if ok, _ := e.Can("mallory", AccessInput); !ok {
		t.Error("grant did not take effect")
	}
	if err := e.Grant("mallory", AccessQuery); err != nil { // downgrade replaces
		t.Fatal(err)
	}
	if ok, _ := e.Can("mallory", AccessInput); ok {
		t.Error("downgrade did not revoke input access")
	}
	if err := e.Revoke("mallory"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := e.Can("mallory", AccessQuery); ok {
		t.Error("revoke did not take effect")
	}
}

func TestOpenAccessWhenNoUsers(t *testing.T) {
	s := newStore(t)
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := e.Can("anybody", AccessAdmin); !ok {
		t.Error("experiment without users should be open")
	}
}

func TestAccessClassParsing(t *testing.T) {
	for _, s := range []string{"query", "input", "admin"} {
		c, err := ParseAccessClass(s)
		if err != nil || c.String() != s {
			t.Errorf("ParseAccessClass(%q) = %v, %v", s, c, err)
		}
	}
	if _, err := ParseAccessClass("root"); err == nil {
		t.Error("unknown class accepted")
	}
	if AccessClass(0).String() != "none" {
		t.Error("zero class name")
	}
}

// TestSchemaEvolution evolves an experiment with a run on every backend:
// on a cluster the retype of "chunk", the first column of the run's data
// table, drops and re-adds the table's partition key.
func TestSchemaEvolution(t *testing.T) {
	forEachBackend(t, testSchemaEvolution)
}

func testSchemaEvolution(t *testing.T, _ Handle, s *Store) {
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.CreateRun(DataSet{"fs": value.NewString("ufs")}, []DataSet{
		{"chunk": value.NewInt(32), "bw": value.NewFloat(10)},
	}, "", "")
	if err != nil {
		t.Fatal(err)
	}

	// New definition: adds once param "mpi" and multi result "iops",
	// drops "nodes", retypes "chunk" to float.
	doc := `
<experiment>
  <name>iotest</name>
  <info><synopsis>IO test v2</synopsis></info>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype>
    <valid>ufs</valid><valid>nfs</valid><valid>unknown</valid><default>unknown</default></parameter>
  <parameter occurence="once"><name>mpi</name><datatype>string</datatype></parameter>
  <parameter><name>chunk</name><datatype>float</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
  <result><name>iops</name><datatype>float</datatype></result>
</experiment>`
	def2, err := pbxml.ParseExperiment(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(def2); err != nil {
		t.Fatal(err)
	}

	if _, ok := e.Var("nodes"); ok {
		t.Error("dropped variable still present")
	}
	v, ok := e.Var("mpi")
	if !ok || !v.Once {
		t.Error("added once variable missing")
	}
	v, ok = e.Var("chunk")
	if !ok || v.Type != value.Float {
		t.Errorf("retyped chunk = %+v", v)
	}

	// Existing run keeps its row; new columns appear as NULL.
	once, err := e.RunOnce(id)
	if err != nil {
		t.Fatal(err)
	}
	if !once["mpi"].IsNull() {
		t.Errorf("added once variable should be NULL for old runs: %v", once["mpi"])
	}
	if _, exists := once["nodes"]; exists {
		t.Error("dropped once variable still in run data")
	}
	data, err := e.RunData(id)
	if err != nil {
		t.Fatal(err)
	}
	if data.Columns.Index("iops") < 0 {
		t.Error("added multi variable missing from run table")
	}
	// Retype dropped old content.
	ci := data.Columns.Index("chunk")
	if !data.Rows[0][ci].IsNull() {
		t.Errorf("retyped column should be cleared: %v", data.Rows[0][ci])
	}

	// A new run accepts the new schema.
	if _, err := e.CreateRun(DataSet{"mpi": value.NewString("nec-mpi")}, []DataSet{
		{"chunk": value.NewFloat(1.5), "bw": value.NewFloat(5), "iops": value.NewFloat(100)},
	}, "", ""); err != nil {
		t.Fatal(err)
	}

	// Reopening sees the evolved schema.
	e2, err := s.OpenExperiment("iotest")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.Var("iops"); !ok {
		t.Error("evolved schema lost on reopen")
	}
	if e2.Def().Info.Synopsis != "IO test v2" {
		t.Errorf("meta not updated: %q", e2.Def().Info.Synopsis)
	}

	// Forbidden changes.
	doc3 := strings.Replace(doc, `<parameter occurence="once"><name>mpi</name>`,
		`<parameter><name>mpi</name>`, 1)
	def3, err := pbxml.ParseExperiment(strings.NewReader(doc3))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Update(def3); err == nil {
		t.Error("occurrence change accepted")
	}
	wrongName := testDef(t)
	wrongName.Name = "other"
	if err := e2.Update(wrongName); err == nil {
		t.Error("update with mismatched name accepted")
	}
}

func TestDestroyExperiment(t *testing.T) {
	s := newStore(t)
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateRun(DataSet{}, []DataSet{{"chunk": value.NewInt(1), "bw": value.NewFloat(1)}}, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyExperiment("iotest"); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.ListExperiments(); len(names) != 0 {
		t.Errorf("experiments after destroy = %v", names)
	}
	if _, err := s.OpenExperiment("iotest"); err == nil {
		t.Error("destroyed experiment still opens")
	}
	// The namespace is fully free again.
	if _, err := s.CreateExperiment(testDef(t)); err != nil {
		t.Errorf("recreate after destroy: %v", err)
	}
	if err := s.DestroyExperiment("ghost"); err == nil {
		t.Error("destroy of missing experiment succeeded")
	}
}

// TestStoreOverWire exercises the whole core layer against a remote
// database server: experiments are placement-transparent.
func TestStoreOverWire(t *testing.T) {
	db := sqldb.NewMemory()
	srv := wire.NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	s := NewStore(client)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.CreateRun(DataSet{"fs": value.NewString("nfs")}, []DataSet{
		{"chunk": value.NewInt(64), "bw": value.NewFloat(33.3)},
	}, "remote.txt", "c1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.RunData(id)
	if err != nil || len(data.Rows) != 1 {
		t.Fatalf("remote run data = %v, %v", data, err)
	}
	// The same state is visible through a direct handle.
	local := NewStore(db)
	e2, err := local.OpenExperiment("iotest")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := e2.Runs()
	if err != nil || len(runs) != 1 || runs[0].Source != "remote.txt" {
		t.Errorf("local view of remote import = %v, %v", runs, err)
	}
}

// TestClaimCollisionIsTyped: a run id is claimed by creating its data
// table inside the import's write pipeline, and a claim that finds the
// table taken — a concurrent importer, or a table an older release left
// behind — moves on to the next id. The collision is recognised by its
// type, sqldb.ErrTableExists, as it comes back from a pipeline step,
// wherever the database lives.
func TestClaimCollisionIsTyped(t *testing.T) {
	forEachBackend(t, func(t *testing.T, q Handle, s *Store) {
		e, err := s.CreateExperiment(testDef(t))
		if err != nil {
			t.Fatal(err)
		}
		// Someone else holds ids 1 and 2.
		for id := int64(1); id <= 2; id++ {
			if _, err := q.Exec("CREATE TABLE " + e.DataTable(id) + " (chunk integer, bw float)"); err != nil {
				t.Fatal(err)
			}
		}
		claim := []sqldb.PipelineRequest{{SQL: "BEGIN"}, {SQL: "CREATE TABLE " + e.DataTable(1) + " (chunk integer, bw float)"}, {SQL: "COMMIT"}}
		if _, err := q.ExecPipeline(claim); !errors.Is(err, sqldb.ErrTableExists) {
			t.Fatalf("a claim pipeline over a taken id: err=%v, want sqldb.ErrTableExists", err)
		}
		id, err := e.CreateRun(DataSet{"fs": value.NewString("nfs")}, nil, "a.txt", "c1")
		if err != nil {
			t.Fatalf("CreateRun over taken ids: %v", err)
		}
		if id != 3 {
			t.Errorf("claimed run id %d, want 3 (1 and 2 are taken)", id)
		}
	})
}

func TestAccessorsAndVarNames(t *testing.T) {
	s := newStore(t)
	e, err := s.CreateExperiment(testDef(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.Store() != s {
		t.Error("Store() accessor broken")
	}
	if s.Querier() == nil {
		t.Error("Querier() accessor broken")
	}
	if len(e.Vars()) != 4 {
		t.Errorf("Vars() = %d", len(e.Vars()))
	}
	names := e.VarNamesSorted()
	want := []string{"bw", "chunk", "fs", "nodes"}
	if len(names) != len(want) {
		t.Fatalf("VarNamesSorted = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("VarNamesSorted[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestInitIndexesCatalog: a catalog made before pb_runs had its checksum
// index — the meta tables alone — serves, gains the index on its first
// writable open, and the index then answers the duplicate check. An open
// of the indexed catalog commits nothing. Against an embedded database,
// a wire server and a 2-shard cluster.
func TestInitIndexesCatalog(t *testing.T) {
	const probe = "EXPLAIN SELECT COUNT(*) FROM pb_runs WHERE exp = 'iotest' AND checksum IN ('a.txt', 'b.txt') AND active"
	explain := func(t *testing.T, q Handle) string {
		t.Helper()
		res, err := q.Exec(probe)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, r[0].Str())
		}
		return strings.Join(lines, "\n")
	}
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			b := b.open(t)
			q := b.handle()
			for _, stmt := range []string{
				`CREATE TABLE pb_experiments (name string, synopsis string, description string,
					project string, performer string, organization string, created timestamp, definition string)`,
				`CREATE TABLE pb_variables (exp string, name string, is_result boolean, once boolean,
					datatype string, synopsis string, description string, unit string, dflt string, valids string)`,
				`CREATE TABLE pb_access (exp string, usr string, class string)`,
				`CREATE TABLE pb_runs (exp string, run_id integer, created timestamp,
					source string, checksum string, active boolean, nsets integer)`,
			} {
				if _, err := q.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
			e, err := NewStore(q).CreateExperiment(testDef(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.CreateRuns("a.txt", []NewRun{{Rows: setRows(t, e, testSets(2)), Source: "a.txt", Checksum: "a.txt"}}); err != nil {
				t.Fatal(err)
			}
			if p := explain(t, q); strings.Contains(p, "hash index") {
				t.Fatalf("the old catalog has an index:\n%s", p)
			}

			commits := b.commits()
			s := NewStore(b.handle())
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			if b.commits() == commits {
				t.Error("the first open of the old catalog committed nothing")
			}
			if p := explain(t, q); !strings.Contains(p, "via hash index on checksum (2 keys)") {
				t.Errorf("the opened catalog's duplicate check does not probe the index:\n%s", p)
			}
			e, err = s.OpenExperiment("iotest")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.CreateRuns("a.txt", []NewRun{{Rows: setRows(t, e, testSets(1)), Source: "a.txt", Checksum: "a.txt"}}); !errors.Is(err, ErrDuplicateImport) {
				t.Errorf("re-import of a.txt: %v, want ErrDuplicateImport", err)
			}
			if _, err := e.CreateRuns("b.txt", []NewRun{{Rows: setRows(t, e, testSets(1)), Source: "b.txt", Checksum: "b.txt"}}); err != nil {
				t.Fatal(err)
			}

			commits = b.commits()
			if err := NewStore(b.handle()).Init(); err != nil {
				t.Fatal(err)
			}
			if n := b.commits() - commits; n != 0 {
				t.Errorf("an open of the indexed catalog logged %d commits", n)
			}
		})
	}
}
