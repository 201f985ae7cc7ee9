package perfbase

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/beffio"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

const tinyExp = `
<experiment>
  <name>tiny</name>
  <parameter occurence="once"><name>mode</name><datatype>string</datatype></parameter>
  <parameter><name>n</name><datatype>integer</datatype></parameter>
  <result><name>t</name><datatype>float</datatype></result>
</experiment>`

const tinyInput = `
<input experiment="tiny">
  <named variable="mode" match="mode:"/>
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
</input>`

const tinyQuery = `
<query experiment="tiny">
  <source id="s"><parameter name="n"/><value name="t"/></source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="csv"/>
</query>`

const tinyOut = `mode: fast
n t
1 0.5
2 1.5
1 0.7
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSessionEndToEnd(t *testing.T) {
	s := OpenMemory()
	defer s.Close()

	exp, err := s.Setup(strings.NewReader(tinyExp))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name() != "tiny" {
		t.Errorf("name = %q", exp.Name())
	}
	names, err := s.Experiments()
	if err != nil || len(names) != 1 {
		t.Errorf("Experiments = %v, %v", names, err)
	}

	file := writeTemp(t, "out.txt", tinyOut)
	ids, err := s.Import("tiny", strings.NewReader(tinyInput), ImportOptions{}, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}

	res, err := s.Query(strings.NewReader(tinyQuery))
	if err != nil {
		t.Fatal(err)
	}
	docs, err := RenderAll(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %d", len(docs))
	}
	csv := string(docs[0].Content)
	if !strings.Contains(csv, "n,t") {
		t.Errorf("csv header missing:\n%s", csv)
	}
	// avg(t | n=1) = 0.6, avg(t | n=2) = 1.5.
	if !strings.Contains(csv, "1,0.6") || !strings.Contains(csv, "2,1.5") {
		t.Errorf("csv values wrong:\n%s", csv)
	}
	elapsed, profile := QueryElapsed(res)
	if elapsed <= 0 || len(profile) == 0 {
		t.Errorf("profiling: %v %v", elapsed, profile)
	}
}

func TestSessionDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	file := writeTemp(t, "out.txt", tinyOut)
	if _, err := s.Import("tiny", strings.NewReader(tinyInput), ImportOptions{}, file); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDir(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	exp, err := s2.Experiment("tiny")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := exp.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs after reopen = %v, %v", runs, err)
	}
	res, err := s2.Query(strings.NewReader(tinyQuery))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[0].Data[0].Rows) != 2 {
		t.Errorf("query rows after reopen = %d", len(res.Outputs[0].Data[0].Rows))
	}
}

func TestSessionRemote(t *testing.T) {
	db := sqldb.NewMemory()
	srv := wire.NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	s, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	file := writeTemp(t, "out.txt", tinyOut)
	if _, err := s.Import("tiny", strings.NewReader(tinyInput), ImportOptions{}, file); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(strings.NewReader(tinyQuery))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Errorf("remote query outputs = %d", len(res.Outputs))
	}
	if _, err := Connect("127.0.0.1:1"); err == nil {
		t.Error("connect to dead port succeeded")
	}
}

func TestSessionUpdateAndDestroy(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	evolved := strings.Replace(tinyExp, `<result><name>t</name><datatype>float</datatype></result>`,
		`<result><name>t</name><datatype>float</datatype></result>
		 <result><name>err</name><datatype>float</datatype></result>`, 1)
	exp, err := s.Update(strings.NewReader(evolved))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exp.Var("err"); !ok {
		t.Error("update did not add variable")
	}
	if err := s.Destroy("tiny"); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.Experiments(); len(names) != 0 {
		t.Errorf("experiments after destroy = %v", names)
	}
}

// TestReuseUpdateDuringQuery updates an experiment's definition while
// queries run on the same session: the session's store hands each open
// its own copy of the experiment it keeps, so an Update changes no
// experiment a query, or any other caller, holds (run it with -race).
func TestReuseUpdateDuringQuery(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	file := writeTemp(t, "out.txt", tinyOut)
	if _, err := s.Import("tiny", strings.NewReader(tinyInput), ImportOptions{}, file); err != nil {
		t.Fatal(err)
	}
	held, err := s.Experiment("tiny")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			def := strings.Replace(tinyExp, "<name>tiny</name>",
				fmt.Sprintf("<name>tiny</name><info><synopsis>v%d</synopsis></info>", i), 1)
			exp, err := s.Update(strings.NewReader(def))
			if err != nil {
				t.Error(err)
				return
			}
			if got, want := exp.Def().Info.Synopsis, fmt.Sprintf("v%d", i); got != want {
				t.Errorf("update %d: synopsis %q, want %q", i, got, want)
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		res, err := s.Query(strings.NewReader(tinyQuery))
		if err != nil {
			t.Error(err)
			break
		}
		if n := len(res.Outputs[0].Data[0].Rows); n != 2 {
			t.Errorf("query %d: %d rows, want 2", i, n)
		}
		if syn := held.Def().Info.Synopsis; syn != "" {
			t.Errorf("query %d: an experiment opened before the updates says %q", i, syn)
			break
		}
	}
	wg.Wait()
	exp, err := s.Experiment("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exp.Def().Info.Synopsis, fmt.Sprintf("v%d", rounds-1); got != want {
		t.Errorf("after the updates: synopsis %q, want %q", got, want)
	}
}

func TestSessionQueryParallel(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	file := writeTemp(t, "out.txt", tinyOut)
	if _, err := s.Import("tiny", strings.NewReader(tinyInput), ImportOptions{}, file); err != nil {
		t.Fatal(err)
	}
	for _, tcp := range []bool{false, true} {
		res, err := s.QueryParallel(strings.NewReader(tinyQuery), 2, tcp)
		if err != nil {
			t.Fatalf("tcp=%v: %v", tcp, err)
		}
		if len(res.Outputs[0].Data[0].Rows) != 2 {
			t.Errorf("tcp=%v rows = %d", tcp, len(res.Outputs[0].Data[0].Rows))
		}
	}
	// workers=0 falls back to the primary.
	if _, err := s.QueryParallel(strings.NewReader(tinyQuery), 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestSessionErrors(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader("<garbage")); err == nil {
		t.Error("bad setup XML accepted")
	}
	if _, err := s.Experiment("ghost"); err == nil {
		t.Error("missing experiment opened")
	}
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Import("other", strings.NewReader(tinyInput), ImportOptions{}, "x"); err == nil {
		t.Error("experiment name mismatch accepted")
	}
	if _, err := s.Import("tiny", strings.NewReader(tinyInput), ImportOptions{}, "/does/not/exist"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := s.Query(strings.NewReader(`<query experiment="ghost"><source id="s"><value name="v"/></source><output input="s"/></query>`)); err == nil {
		t.Error("query on missing experiment accepted")
	}
	if _, err := s.Update(strings.NewReader(strings.Replace(tinyExp, "tiny", "ghost", 1))); err == nil {
		t.Error("update of missing experiment accepted")
	}
}

// TestBeffioPipelineViaFacade drives the full §5 pipeline through the
// public API: simulate benchmark files, import, query the relative
// difference, render a gnuplot bar chart (experiment E5 smoke test;
// the full campaign lives in examples/mpiio and bench_test.go).
func TestBeffioPipelineViaFacade(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(beffio.ExperimentXML)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfgs := beffio.SweepConfigs(
		[]string{beffio.TechniqueListBased, beffio.TechniqueListLess},
		[]string{"ufs"}, []int{4}, 3, 1)
	paths, err := beffio.GenerateFiles(dir, "grisu", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Import("b_eff_io", strings.NewReader(beffio.InputXML),
		ImportOptions{Missing: MissingFail}, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("imported runs = %d", len(ids))
	}

	res, err := s.Query(strings.NewReader(`
<query experiment="b_eff_io">
  <source id="old">
    <parameter name="technique" value="listbased"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="S_chunk"/>
    <parameter name="op"/>
    <value name="B_separate"/>
  </source>
  <source id="new">
    <parameter name="technique" value="listless"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="S_chunk"/>
    <parameter name="op"/>
    <value name="B_separate"/>
  </source>
  <operator id="mo" type="max" input="old"/>
  <operator id="mn" type="max" input="new"/>
  <operator id="rel" type="percentof" input="mn mo"/>
  <output input="rel" format="gnuplot" style="bars" title="new technique relative to old"/>
</query>`))
	if err != nil {
		t.Fatal(err)
	}
	docs, err := RenderAll(res)
	if err != nil {
		t.Fatal(err)
	}
	plot := string(docs[0].Content)
	if !strings.Contains(plot, "with boxes") || !strings.Contains(plot, "set title") {
		t.Errorf("gnuplot output malformed:\n%s", plot)
	}
	// The planted bug must be visible: for the large non-contiguous
	// read, listless max should be around 40% of listbased max.
	data := res.Outputs[0].Data[0]
	vec := res.Outputs[0].Vectors[0]
	si, oi, bi := -1, -1, -1
	for i, c := range vec.Cols {
		switch c.Name {
		case "S_chunk":
			si = i
		case "op":
			oi = i
		case "B_separate":
			bi = i
		}
	}
	found := false
	for _, row := range data.Rows {
		if row[si].Int() == 1048584 && row[oi].Str() == "read" {
			found = true
			pct := row[bi].Float()
			if pct < 25 || pct > 55 {
				t.Errorf("large-read percentof = %v, want ≈40", pct)
			}
		}
	}
	if !found {
		t.Error("large non-contiguous read case missing from result")
	}
}

func TestSessionImportMerged(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	mainFile := writeTemp(t, "main.txt", "n t\n1 0.5\n2 1.5\n")
	envFile := writeTemp(t, "env.txt", "environment\nmode: merged\n")
	mainDesc := `
<input experiment="tiny">
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
</input>`
	envDesc := `
<input experiment="tiny">
  <named variable="mode" match="mode:"/>
</input>`
	id, err := s.ImportMerged("tiny", []MergedInput{
		{DescXML: strings.NewReader(mainDesc), File: mainFile},
		{DescXML: strings.NewReader(envDesc), File: envFile},
	}, ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := s.Experiment("tiny")
	if err != nil {
		t.Fatal(err)
	}
	once, err := exp.RunOnce(id)
	if err != nil {
		t.Fatal(err)
	}
	if once["mode"].Str() != "merged" {
		t.Errorf("merged mode = %v", once["mode"])
	}
	data, err := exp.RunData(id)
	if err != nil || len(data.Rows) != 2 {
		t.Errorf("merged data = %v, %v", data, err)
	}
	// Error paths.
	if _, err := s.ImportMerged("ghost", nil, ImportOptions{}); err == nil {
		t.Error("merged import into missing experiment accepted")
	}
	if _, err := s.ImportMerged("tiny", []MergedInput{
		{DescXML: strings.NewReader("<bad"), File: mainFile},
	}, ImportOptions{}); err == nil {
		t.Error("bad description accepted")
	}
}
