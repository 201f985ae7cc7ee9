package parquery

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"perfbase/internal/core"
	"perfbase/internal/failpoint"
	"perfbase/internal/output"
	"perfbase/internal/pbxml"
	"perfbase/internal/query"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

const expDoc = `
<experiment>
  <name>bench</name>
  <parameter occurence="once"><name>technique</name><datatype>string</datatype></parameter>
  <parameter><name>chunk</name><datatype>integer</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
</experiment>`

func seed(t *testing.T) *core.Experiment {
	t.Helper()
	return seedOn(t, sqldb.NewMemory())
}

// seedOn seeds the bench experiment on any database handle — a local DB
// or a sharding coordinator.
func seedOn(t *testing.T, q core.Handle) *core.Experiment {
	t.Helper()
	s := core.NewStore(q)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	def, err := pbxml.ParseExperiment(strings.NewReader(expDoc))
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []string{"old", "new"} {
		base := 100.0
		if tech == "new" {
			base = 80.0
		}
		for rep := 0; rep < 4; rep++ {
			var sets []core.DataSet
			for ci := 1; ci <= 4; ci++ {
				sets = append(sets, core.DataSet{
					"chunk": value.NewInt(int64(32 << (10 * (ci - 1)))),
					"bw":    value.NewFloat(base*float64(ci) + float64(rep)),
				})
			}
			if _, err := e.CreateRun(core.DataSet{"technique": value.NewString(tech)}, sets, "seed", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// fig7Query is the relative-difference query (the paper's Fig. 7
// shape) used throughout the parallel tests.
const fig7Query = `
<query experiment="bench">
  <source id="s_old">
    <parameter name="technique" value="old"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <source id="s_new">
    <parameter name="technique" value="new"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="m_old" type="max" input="s_old"/>
  <operator id="m_new" type="max" input="s_new"/>
  <operator id="rel" type="percentof" input="m_new m_old"/>
  <output input="rel" format="ascii"/>
</query>`

func parse(t *testing.T, doc string) *pbxml.Query {
	t.Helper()
	q, err := pbxml.ParseQuery(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// expected percentof: max over runs = base*i+3.
func checkFig7(t *testing.T, res *query.Results) {
	t.Helper()
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	data := res.Outputs[0].Data[0]
	if len(data.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(data.Rows))
	}
	vec := res.Outputs[0].Vectors[0]
	ci, bi := -1, -1
	for i, c := range vec.Cols {
		switch c.Name {
		case "chunk":
			ci = i
		case "bw":
			bi = i
		}
	}
	for _, row := range data.Rows {
		i := float64(1)
		for c := row[ci].Int(); c > 32; c >>= 10 {
			i++
		}
		want := (80*i + 3) / (100*i + 3) * 100
		if got := row[bi].Float(); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentof(chunk=%v) = %v, want %v", row[ci], got, want)
		}
	}
}

func TestSequentialBaseline(t *testing.T) {
	e := seed(t)
	en := query.NewEngine(e)
	res, err := en.Run(parse(t, fig7Query))
	if err != nil {
		t.Fatal(err)
	}
	checkFig7(t, res)
}

func TestParallelNoPoolMatchesSequential(t *testing.T) {
	e := seed(t)
	ex := NewExecutor(e, nil)
	res, err := ex.Run(parse(t, fig7Query))
	if err != nil {
		t.Fatal(err)
	}
	checkFig7(t, res)
	if len(res.Profile) == 0 {
		t.Error("profile missing")
	}
}

func TestParallelLocalPool(t *testing.T) {
	e := seed(t)
	for _, n := range []int{1, 2, 4} {
		pool := NewLocalPool(n)
		if pool.Size() != n {
			t.Fatalf("pool size = %d", pool.Size())
		}
		ex := NewExecutor(e, pool)
		res, err := ex.Run(parse(t, fig7Query))
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		checkFig7(t, res)
		pool.Close()
	}
}

func TestParallelTCPPool(t *testing.T) {
	e := seed(t)
	pool, err := NewTCPPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ex := NewExecutor(e, pool)
	res, err := ex.Run(parse(t, fig7Query))
	if err != nil {
		t.Fatal(err)
	}
	checkFig7(t, res)
}

// TestParallelWideSweep distributes a wide level (one source+avg chain
// per chunk value) over TCP workers — the "parameter sweep" case §4.3
// calls worthwhile.
func TestParallelWideSweep(t *testing.T) {
	e := seed(t)
	var sb strings.Builder
	sb.WriteString(`<query experiment="bench">`)
	chunks := []int{32, 32768, 33554432, 34359738368}
	for i := range chunks {
		fmt.Fprintf(&sb, `
  <source id="s%d">
    <parameter name="technique" value="old"/>
    <parameter name="chunk" value="%d"/>
    <value name="bw"/>
  </source>
  <operator id="a%d" type="avg" input="s%d"/>`, i, chunks[i], i, i)
	}
	for i := range chunks {
		fmt.Fprintf(&sb, `
  <output input="a%d" format="ascii"/>`, i)
	}
	sb.WriteString("</query>")

	pool, err := NewTCPPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ex := NewExecutor(e, pool)
	res, err := ex.Run(parse(t, sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(chunks) {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	// avg over runs with chunk pinned: base*i + 1.5.
	for i, out := range res.Outputs {
		data := out.Data[0]
		if len(data.Rows) != 1 {
			t.Fatalf("output %d rows = %d", i, len(data.Rows))
		}
		vec := out.Vectors[0]
		bi := -1
		for ci, c := range vec.Cols {
			if c.Name == "bw" {
				bi = ci
			}
		}
		want := 100*float64(i+1) + 1.5
		if got := data.Rows[0][bi].Float(); math.Abs(got-want) > 1e-9 {
			t.Errorf("output %d avg = %v, want %v", i, got, want)
		}
	}
}

func TestExecutorErrorPropagation(t *testing.T) {
	e := seed(t)
	pool := NewLocalPool(2)
	defer pool.Close()
	ex := NewExecutor(e, pool)
	bad := parse(t, `
<query experiment="bench">
  <source id="s"><parameter name="ghost"/><value name="bw"/></source>
  <output input="s" format="ascii"/>
</query>`)
	if _, err := ex.Run(bad); err == nil {
		t.Error("bad query accepted by parallel executor")
	}
}

func TestPlanWidthBoundsParallelism(t *testing.T) {
	q := parse(t, fig7Query)
	plan, err := query.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Width() != 2 {
		t.Errorf("fig7 width = %d, want 2", plan.Width())
	}
}

// TestTCPPoolDialFailureCleanup: an injected dial failure (an
// unreachable cluster node) must fail pool construction with an error
// and tear down the workers already started — no leaked listeners.
func TestTCPPoolDialFailureCleanup(t *testing.T) {
	if err := failpoint.Enable("parquery/worker/dial", "error(node unreachable)@3"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	pool, err := NewTCPPool(4)
	if err == nil {
		pool.Close()
		t.Fatal("pool construction succeeded despite injected dial failure")
	}
	if !strings.Contains(err.Error(), "node unreachable") {
		t.Errorf("error = %v, want injected dial failure", err)
	}
}

// TestTCPPoolDialFailureTyped: worker dial failures carry the typed
// wire.ErrDial sentinel so callers (the shard coordinator's retry
// loop) can distinguish a transiently unreachable node from a query
// error without string matching.
func TestTCPPoolDialFailureTyped(t *testing.T) {
	if err := failpoint.Enable("parquery/worker/dial", "error(node unreachable)@2"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	pool, err := NewTCPPool(3)
	if err == nil {
		pool.Close()
		t.Fatal("pool construction succeeded despite injected dial failure")
	}
	if !errors.Is(err, wire.ErrDial) {
		t.Errorf("error = %v, want errors.Is(err, wire.ErrDial)", err)
	}
}

// everyModeQuery uses every operator mode of §3.3.2 and a combiner:
// data set aggregation (a_old, a_new, sd_all), whole-vector reduction
// (top), element-wise reduction over three inputs (best), percentof
// (rel), a combiner (comb) and an eval over two inputs (gap).
const everyModeQuery = `
<query experiment="bench">
  <source id="s_old"><parameter name="technique" value="old"/><parameter name="chunk"/><value name="bw"/></source>
  <source id="s_new"><parameter name="technique" value="new"/><parameter name="chunk"/><value name="bw"/></source>
  <source id="s_all"><parameter name="technique"/><parameter name="chunk"/><value name="bw"/></source>
  <operator id="a_old" type="avg" input="s_old"/>
  <operator id="a_new" type="avg" input="s_new"/>
  <operator id="sd_all" type="stddev" input="s_all"/>
  <operator id="top" type="max" input="a_old"/>
  <operator id="best" type="max" input="a_old a_new sd_all"/>
  <operator id="rel" type="percentof" input="a_new a_old"/>
  <combiner id="comb" input="a_old a_new"/>
  <operator id="gap" type="eval" input="a_old a_new" expression="bw - bw_2" variable="gap"/>
  <output input="top" format="ascii"/>
  <output input="best" format="csv"/>
  <output input="rel" format="gnuplot" style="bars"/>
  <output input="comb" format="ascii"/>
  <output input="gap" format="ascii"/>
</query>`

// render renders every output document of a query run.
func render(t *testing.T, res *query.Results) []string {
	t.Helper()
	var docs []string
	for _, out := range res.Outputs {
		if len(out.Data[0].Rows) == 0 {
			t.Fatalf("output of %v has no rows", out.Spec.Input)
		}
		ds, err := output.Render(out.Spec, out.Vectors, out.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			docs = append(docs, string(d.Content))
		}
	}
	return docs
}

// TestRunnerEveryModeSameDocuments: one runner executes every query, so
// the every-mode query renders byte-identical documents run
// sequentially and through the executor with no pool, two in-process
// workers and two TCP workers (where inputs cross servers).
func TestRunnerEveryModeSameDocuments(t *testing.T) {
	e := seed(t)
	seq, err := query.NewEngine(e).Run(parse(t, everyModeQuery))
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, seq)
	tcp, err := NewTCPPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for name, pool := range map[string]*Pool{"no pool": nil, "local pool": NewLocalPool(2), "TCP pool": tcp} {
		res, err := NewExecutor(e, pool).Run(parse(t, everyModeQuery))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := render(t, res)
		if len(got) != len(want) {
			t.Fatalf("%s: %d documents, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: document %d differs:\n%s\nwant:\n%s", name, i, got[i], want[i])
			}
		}
	}
}

// TestParallelTransfersDropped: the copy of an input an element makes
// on its own worker is dropped with the element. Repeated combiner
// queries on one pool, the combiner's inputs on different workers,
// leave every worker with the tables it had.
func TestParallelTransfersDropped(t *testing.T) {
	e := seed(t)
	pool := NewLocalPool(2)
	defer pool.Close()
	ex := NewExecutor(e, pool)
	tables := func() []int {
		var n []int
		for _, w := range pool.Workers() {
			n = append(n, len(w.(*sqldb.DB).Tables()))
		}
		return n
	}
	before := tables()
	for i := 0; i < 10; i++ {
		if _, err := ex.Run(parse(t, `
<query experiment="bench">
  <source id="s_old"><parameter name="technique" value="old"/><parameter name="chunk"/><value name="bw"/></source>
  <source id="s_new"><parameter name="technique" value="new"/><parameter name="chunk"/><value name="bw"/></source>
  <operator id="a_old" type="avg" input="s_old"/>
  <operator id="a_new" type="avg" input="s_new"/>
  <combiner id="comb" input="a_old a_new"/>
  <output input="comb" format="ascii"/>
</query>`)); err != nil {
			t.Fatal(err)
		}
	}
	if after := tables(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("worker table counts %v after 10 queries, %v before", after, before)
	}
}
