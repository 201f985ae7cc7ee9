package query

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// The test experiment mirrors the Fig. 7 scenario: runs with a
// technique and file system (once), a chunk-size sweep (multi) and a
// bandwidth result.
const expDoc = `
<experiment>
  <name>bench</name>
  <parameter occurence="once"><name>technique</name><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype></parameter>
  <parameter><name>chunk</name><datatype>integer</datatype>
    <unit><base_unit>byte</base_unit></unit></parameter>
  <result><name>bw</name><datatype>float</datatype>
    <unit><fraction><dividend><base_unit>byte</base_unit><scaling>Mega</scaling></dividend>
    <divisor><base_unit>s</base_unit></divisor></fraction></unit></result>
</experiment>`

// seedExperiment creates runs for two techniques on two file systems
// with deterministic bandwidths:
//
//	bw = base(technique) * chunkIndex + runOffset
//
// so expected aggregates are exactly computable.
func seedExperiment(t *testing.T) *core.Experiment {
	t.Helper()
	return seedExperimentOn(t, sqldb.NewMemory())
}

// seedExperimentOn is seedExperiment on a store over h.
func seedExperimentOn(t *testing.T, h core.Handle) *core.Experiment {
	t.Helper()
	s := core.NewStore(h)
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
	chunks := []int64{32, 1024, 32768}
	for _, tech := range []string{"old", "new"} {
		base := 100.0
		if tech == "new" {
			base = 80.0
		}
		for _, fs := range []string{"ufs", "nfs"} {
			for rep := 0; rep < 3; rep++ {
				var sets []core.DataSet
				for ci, c := range chunks {
					bw := base*float64(ci+1) + float64(rep) // rep 0..2 → max at rep 2
					sets = append(sets, core.DataSet{
						"chunk": value.NewInt(c),
						"bw":    value.NewFloat(bw),
					})
				}
				if _, err := e.CreateRun(core.DataSet{
					"technique": value.NewString(tech),
					"fs":        value.NewString(fs),
				}, sets, "seed", ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return e
}

func parseQuery(t *testing.T, doc string) *pbxml.Query {
	t.Helper()
	q, err := pbxml.ParseQuery(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func runQuery(t *testing.T, e *core.Experiment, doc string) *Results {
	t.Helper()
	en := NewEngine(e)
	res, err := en.Run(parseQuery(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSourceFiltering(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`)
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	data := res.Outputs[0].Data[0]
	// 3 runs × 3 chunks for old/ufs.
	if len(data.Rows) != 9 {
		t.Fatalf("tuples = %d, want 9", len(data.Rows))
	}
	vec := res.Outputs[0].Vectors[0]
	params := vec.Params()
	vals := vec.Values()
	if len(params) != 3 || len(vals) != 1 {
		t.Fatalf("vector shape: %d params, %d values", len(params), len(vals))
	}
	if params[0].Name != "technique" || vals[0].Name != "bw" {
		t.Errorf("columns = %v %v", params, vals)
	}
	if vals[0].Unit.String() != "MB/s" {
		t.Errorf("bw unit meta = %q", vals[0].Unit)
	}
	// All tuples carry the filter parameters.
	for _, row := range data.Rows {
		if row[0].Str() != "old" || row[1].Str() != "ufs" {
			t.Errorf("tuple params = %v", row)
		}
	}
}

func TestSourceOperators(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="chunk" value="1024" op="&lt;="/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`)
	data := res.Outputs[0].Data[0]
	// old × (ufs+nfs) × 3 runs × 2 chunks (32, 1024).
	if len(data.Rows) != 12 {
		t.Errorf("tuples = %d, want 12", len(data.Rows))
	}
	ci := colIndex(res.Outputs[0].Vectors[0], "chunk")
	for _, row := range data.Rows {
		if row[ci].Int() > 1024 {
			t.Errorf("filter leak: chunk = %v", row[ci])
		}
	}
}

func colIndex(v *Vector, name string) int {
	for i, c := range v.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

func TestRunIDPseudoParameter(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="run_id" value="1"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`)
	data := res.Outputs[0].Data[0]
	if len(data.Rows) != 3 {
		t.Errorf("run 1 tuples = %d, want 3", len(data.Rows))
	}
}

func TestRunFilters(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <run index="1,2"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`)
	if n := len(res.Outputs[0].Data[0].Rows); n != 6 {
		t.Errorf("index-filtered tuples = %d, want 6", n)
	}
	res = runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <run last="2"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`)
	if n := len(res.Outputs[0].Data[0].Rows); n != 6 {
		t.Errorf("last-filtered tuples = %d, want 6", n)
	}
}

func TestDataSetAggregation(t *testing.T) {
	e := seedExperiment(t)
	// avg over 3 runs per (technique=old, fs=ufs, chunk): base*i + {0,1,2}
	// → avg = base*i + 1.
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`)
	data := res.Outputs[0].Data[0]
	if len(data.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(data.Rows))
	}
	vec := res.Outputs[0].Vectors[0]
	ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
	want := map[int64]float64{32: 101, 1024: 201, 32768: 301}
	for _, row := range data.Rows {
		if got := row[bi].Float(); math.Abs(got-want[row[ci].Int()]) > 1e-9 {
			t.Errorf("avg(chunk=%d) = %v, want %v", row[ci].Int(), got, want[row[ci].Int()])
		}
	}
}

func TestStddevOverRuns(t *testing.T) {
	e := seedExperiment(t)
	// Per group the three samples differ by {0,1,2} → sample stddev = 1.
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="sd" type="stddev" input="s"/>
  <output input="sd" format="ascii"/>
</query>`)
	data := res.Outputs[0].Data[0]
	vec := res.Outputs[0].Vectors[0]
	bi := colIndex(vec, "bw")
	for _, row := range data.Rows {
		if math.Abs(row[bi].Float()-1.0) > 1e-9 {
			t.Errorf("stddev = %v, want 1", row[bi])
		}
	}
}

func TestFullVectorReduction(t *testing.T) {
	e := seedExperiment(t)
	// avg (dataset aggregation) → max over the whole vector: single row.
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <operator id="top" type="max" input="m"/>
  <output input="top" format="ascii"/>
</query>`)
	data := res.Outputs[0].Data[0]
	if len(data.Rows) != 1 || len(data.Columns) != 1 {
		t.Fatalf("reduction shape = %dx%d", len(data.Rows), len(data.Columns))
	}
	if got := data.Rows[0][0].Float(); math.Abs(got-301) > 1e-9 {
		t.Errorf("max of avgs = %v, want 301", got)
	}
}

func TestElementwiseReduction(t *testing.T) {
	e := seedExperiment(t)
	// Two sources (ufs, nfs), element-wise max across them after
	// having aggregated each (identical values here).
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="ufs">
    <parameter name="technique" value="old"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <source id="nfs">
    <parameter name="technique" value="new"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="a1" type="avg" input="ufs"/>
  <operator id="a2" type="avg" input="nfs"/>
  <operator id="best" type="max" input="a1 a2"/>
  <output input="best" format="ascii"/>
</query>`)
	data := res.Outputs[0].Data[0]
	vec := res.Outputs[0].Vectors[0]
	ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
	if len(data.Rows) != 3 {
		t.Fatalf("element-wise groups = %d", len(data.Rows))
	}
	// old base 100 > new base 80, so max picks the old values 100*i+1.
	want := map[int64]float64{32: 101, 1024: 201, 32768: 301}
	for _, row := range data.Rows {
		if got := row[bi].Float(); math.Abs(got-want[row[ci].Int()]) > 1e-9 {
			t.Errorf("max(chunk=%d) = %v, want %v", row[ci].Int(), got, want[row[ci].Int()])
		}
	}
}

func TestFig2Cascade(t *testing.T) {
	// The full Fig. 2 shape: sources → operators → combiner → operator
	// → output plus a second output fed from an intermediate element.
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s1">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <source id="s2">
    <parameter name="technique" value="new"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="m1" type="max" input="s1"/>
  <operator id="m2" type="max" input="s2"/>
  <combiner id="c" input="m1 m2"/>
  <operator id="rel" type="percentof" input="m2 m1"/>
  <output input="c" format="ascii"/>
  <output input="rel" format="gnuplot" style="bars"/>
</query>`)
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	// Combined vector has chunk + both bw columns.
	comb := res.Outputs[0].Vectors[0]
	if len(comb.Values()) != 2 {
		t.Errorf("combiner values = %v", comb.Values())
	}
	if _, ok := comb.Col("bw_2"); !ok {
		t.Errorf("collision renaming missing: %v", colNames(comb.Cols))
	}
	// percentof: new max (80i+2) vs old max (100i+2).
	rel := res.Outputs[1]
	vec := rel.Vectors[0]
	ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
	if len(rel.Data[0].Rows) != 3 {
		t.Fatalf("percentof rows = %d, want 3", len(rel.Data[0].Rows))
	}
	for _, row := range rel.Data[0].Rows {
		i := chunkIndex(row[ci].Int())
		want := (80*float64(i) + 2) / (100*float64(i) + 2) * 100
		if got := row[bi].Float(); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentof(chunk=%d) = %v, want %v", row[ci].Int(), got, want)
		}
	}
	// Unit of a percentof result is percent.
	if vec.Values()[0].Unit.String() != "%" {
		t.Errorf("percentof unit = %q", vec.Values()[0].Unit)
	}
}

func chunkIndex(c int64) int {
	switch c {
	case 32:
		return 1
	case 1024:
		return 2
	default:
		return 3
	}
}

func TestDiffDivAboveBelow(t *testing.T) {
	e := seedExperiment(t)
	base := `
<query experiment="bench">
  <source id="a">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <source id="b">
    <parameter name="technique" value="new"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="aa" type="avg" input="a"/>
  <operator id="ab" type="avg" input="b"/>
  <operator id="rel" type="OP" input="aa ab"/>
  <output input="rel" format="ascii"/>
</query>`
	// avg old = 100i+1, avg new = 80i+1.
	check := func(op string, want func(i float64) float64) {
		t.Helper()
		res := runQuery(t, e, strings.Replace(base, "OP", op, 1))
		vec := res.Outputs[0].Vectors[0]
		ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
		if len(res.Outputs[0].Data[0].Rows) != 3 {
			t.Fatalf("%s rows = %d, want 3", op, len(res.Outputs[0].Data[0].Rows))
		}
		for _, row := range res.Outputs[0].Data[0].Rows {
			i := float64(chunkIndex(row[ci].Int()))
			if got := row[bi].Float(); math.Abs(got-want(i)) > 1e-9 {
				t.Errorf("%s(chunk idx %v) = %v, want %v", op, i, got, want(i))
			}
		}
	}
	check("diff", func(i float64) float64 { return (100*i + 1) - (80*i + 1) })
	check("div", func(i float64) float64 { return (100*i + 1) / (80*i + 1) })
	check("percentof", func(i float64) float64 { return (100*i + 1) / (80*i + 1) * 100 })
	check("above", func(i float64) float64 { return ((100*i + 1) - (80*i + 1)) / (80*i + 1) * 100 })
	check("below", func(i float64) float64 { return ((80*i + 1) - (100*i + 1)) / (80*i + 1) * 100 })
}

func TestEvalScaleOffset(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <operator id="gbps" type="scale" input="m" factor="0.001"/>
  <operator id="shift" type="offset" input="gbps" offset="5"/>
  <operator id="log" type="eval" input="shift" expression="log2(chunk)" variable="lg"/>
  <output input="shift" format="ascii"/>
  <output input="log" format="ascii"/>
</query>`)
	shift := res.Outputs[0]
	vec := shift.Vectors[0]
	ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
	for _, row := range shift.Data[0].Rows {
		i := float64(chunkIndex(row[ci].Int()))
		want := (100*i+1)*0.001 + 5
		if got := row[bi].Float(); math.Abs(got-want) > 1e-9 {
			t.Errorf("scale+offset = %v, want %v", got, want)
		}
	}
	logOut := res.Outputs[1]
	lvec := logOut.Vectors[0]
	li := colIndex(lvec, "lg")
	lci := colIndex(lvec, "chunk")
	if li < 0 {
		t.Fatalf("eval output column missing: %v", colNames(lvec.Cols))
	}
	for _, row := range logOut.Data[0].Rows {
		want := math.Log2(float64(row[lci].Int()))
		if got := row[li].Float(); math.Abs(got-want) > 1e-9 {
			t.Errorf("eval log2 = %v, want %v", got, want)
		}
	}
}

func TestCountOperator(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="n" type="count" input="s"/>
  <output input="n" format="ascii"/>
</query>`)
	vec := res.Outputs[0].Vectors[0]
	bi := colIndex(vec, "bw")
	for _, row := range res.Outputs[0].Data[0].Rows {
		if row[bi].Int() != 3 {
			t.Errorf("count per group = %v, want 3", row[bi])
		}
	}
	if vec.Values()[0].Type != value.Integer {
		t.Errorf("count type = %v", vec.Values()[0].Type)
	}
}

func TestQueryErrors(t *testing.T) {
	e := seedExperiment(t)
	en := NewEngine(e)
	bad := []string{
		// Unknown parameter.
		`<query experiment="bench"><source id="s"><parameter name="ghost"/><value name="bw"/></source>
		 <output input="s" format="ascii"/></query>`,
		// Result used as parameter.
		`<query experiment="bench"><source id="s"><parameter name="bw"/><value name="bw"/></source>
		 <output input="s" format="ascii"/></query>`,
		// Parameter used as value.
		`<query experiment="bench"><source id="s"><value name="fs"/></source>
		 <output input="s" format="ascii"/></query>`,
		// Bad filter operator.
		`<query experiment="bench"><source id="s"><parameter name="chunk" value="1" op="~"/><value name="bw"/></source>
		 <output input="s" format="ascii"/></query>`,
		// Unparseable filter value.
		`<query experiment="bench"><source id="s"><parameter name="chunk" value="huge"/><value name="bw"/></source>
		 <output input="s" format="ascii"/></query>`,
		// diff with one input.
		`<query experiment="bench"><source id="s"><parameter name="chunk"/><value name="bw"/></source>
		 <operator id="d" type="diff" input="s"/><output input="d" format="ascii"/></query>`,
		// eval with bad expression.
		`<query experiment="bench"><source id="s"><parameter name="chunk"/><value name="bw"/></source>
		 <operator id="ev" type="eval" input="s" expression="1 +"/><output input="ev" format="ascii"/></query>`,
		// operator variable not in input.
		`<query experiment="bench"><source id="s"><parameter name="chunk"/><value name="bw"/></source>
		 <operator id="m" type="avg" input="s" variable="ghost"/><output input="m" format="ascii"/></query>`,
	}
	for i, doc := range bad {
		q, err := pbxml.ParseQuery(strings.NewReader(doc))
		if err != nil {
			continue // rejected at validation, also fine
		}
		if _, err := en.Run(q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// TestEvalExpressionCheckedAtBuildPlan: BuildPlan compiles each eval
// expression, so a bad one is refused before any element runs.
func TestEvalExpressionCheckedAtBuildPlan(t *testing.T) {
	for _, ex := range []string{"1 +", "nosuchfn(bw)", "min()"} {
		q := parseQuery(t, `<query experiment="bench"><source id="s"><parameter name="chunk"/><value name="bw"/></source>
		 <operator id="ev" type="eval" input="s" expression="`+ex+`"/><output input="ev" format="ascii"/></query>`)
		if _, err := BuildPlan(q); err == nil || !strings.Contains(err.Error(), "operator ev") {
			t.Errorf("BuildPlan with eval %q: error %v", ex, err)
		}
	}
	q := parseQuery(t, `<query experiment="bench"><source id="s"><parameter name="chunk"/><value name="bw"/></source>
	 <operator id="ev" type="EVAL" input="s" expression="bw ^ 2"/><output input="ev" format="ascii"/></query>`)
	plan, err := BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Elements["ev"].Expr; got != `POWER("bw", 2)` {
		t.Errorf("eval's SQL = %s", got)
	}
}

func TestPlanLevels(t *testing.T) {
	q := parseQuery(t, `
<query experiment="bench">
  <source id="s1"><value name="bw"/></source>
  <source id="s2"><value name="bw"/></source>
  <operator id="m1" type="max" input="s1"/>
  <operator id="m2" type="max" input="s2"/>
  <operator id="rel" type="percentof" input="m1 m2"/>
  <output input="rel" format="ascii"/>
</query>`)
	plan, err := BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Levels) != 4 {
		t.Fatalf("levels = %v", plan.Levels)
	}
	if len(plan.Levels[0]) != 2 || plan.Levels[0][0] != "s1" {
		t.Errorf("level 0 = %v", plan.Levels[0])
	}
	if plan.Width() != 2 {
		t.Errorf("width = %d", plan.Width())
	}
}

func TestProfileAndSourceFraction(t *testing.T) {
	e := seedExperiment(t)
	en := NewEngine(e)
	q := parseQuery(t, `
<query experiment="bench">
  <source id="s"><parameter name="chunk"/><value name="bw"/></source>
  <operator id="a" type="avg" input="s"/>
  <operator id="sd" type="stddev" input="s"/>
  <output input="a" format="ascii"/>
  <output input="sd" format="ascii"/>
</query>`)
	plan, err := BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := en.RunPlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) < 3 {
		t.Errorf("profile entries = %v", res.Profile)
	}
	f := res.SourceFraction(plan)
	if f <= 0 || f >= 1 {
		t.Errorf("source fraction = %v", f)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestMaterializeAcrossDatabases(t *testing.T) {
	e := seedExperiment(t)
	en := NewEngine(e)
	q := parseQuery(t, `
<query experiment="bench">
  <source id="s"><parameter name="chunk"/><value name="bw"/></source>
  <output input="s" format="ascii"/>
</query>`)
	plan, err := BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	src := plan.Elements["s"]
	vec, err := en.NewRun().exec(src, nil, en.Primary(), en.Primary())
	if err != nil {
		t.Fatal(err)
	}
	other := sqldb.NewMemory()
	moved, err := Materialize(vec, other)
	if err != nil {
		t.Fatal(err)
	}
	if moved.DB != sqldb.Querier(other) {
		t.Error("vector not moved")
	}
	a, err := vec.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	b, err := moved.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) || len(a.Rows) == 0 {
		t.Fatalf("moved rows = %d vs %d", len(b.Rows), len(a.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !value.Equal(a.Rows[i][j], b.Rows[i][j]) {
				t.Fatalf("row %d differs after transfer", i)
			}
		}
	}
	// Materialize to the same DB is a no-op.
	same, err := Materialize(vec, en.Primary())
	if err != nil || same != vec {
		t.Error("same-DB materialize should return the input")
	}
}

func TestEmptySourceResult(t *testing.T) {
	e := seedExperiment(t)
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="nonexistent"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`)
	if n := len(res.Outputs[0].Data[0].Rows); n != 0 {
		t.Errorf("rows from empty source = %d", n)
	}
}

func TestMedianGeomeanOperators(t *testing.T) {
	e := seedExperiment(t)
	// median over runs {base*i, base*i+1, base*i+2} = base*i+1 (= avg here).
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="med" type="median" input="s"/>
  <output input="med" format="ascii"/>
</query>`)
	vec := res.Outputs[0].Vectors[0]
	ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
	want := map[int64]float64{32: 101, 1024: 201, 32768: 301}
	if len(res.Outputs[0].Data[0].Rows) != 3 {
		t.Fatalf("median rows = %d", len(res.Outputs[0].Data[0].Rows))
	}
	for _, row := range res.Outputs[0].Data[0].Rows {
		if got := row[bi].Float(); math.Abs(got-want[row[ci].Int()]) > 1e-9 {
			t.Errorf("median(chunk=%d) = %v, want %v", row[ci].Int(), got, want[row[ci].Int()])
		}
	}
	res = runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk" value="32"/>
    <value name="bw"/>
  </source>
  <operator id="gm" type="geomean" input="s"/>
  <output input="gm" format="ascii"/>
</query>`)
	gvec := res.Outputs[0].Vectors[0]
	gbi := colIndex(gvec, "bw")
	wantGM := math.Pow(100*101*102, 1.0/3.0)
	if got := res.Outputs[0].Data[0].Rows[0][gbi].Float(); math.Abs(got-wantGM) > 1e-9 {
		t.Errorf("geomean = %v, want %v", got, wantGM)
	}
}

func TestRunFilterTimestamps(t *testing.T) {
	e := seedExperiment(t)
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	// All runs were created "now"; a window ending in the past excludes
	// everything, a window around now includes everything.
	past := runs[0].Created.Add(-time.Hour).Format("2006-01-02 15:04:05")
	future := runs[0].Created.Add(time.Hour).Format("2006-01-02 15:04:05")

	spec := `
<query experiment="bench">
  <source id="s">
    <run from="%s" to="%s"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`
	res := runQuery(t, e, fmt.Sprintf(spec, past, future))
	if n := len(res.Outputs[0].Data[0].Rows); n != 36 {
		t.Errorf("full window tuples = %d, want 36", n)
	}
	res = runQuery(t, e, fmt.Sprintf(spec, past, past))
	if n := len(res.Outputs[0].Data[0].Rows); n != 0 {
		t.Errorf("past window tuples = %d, want 0", n)
	}
	// Bad timestamps are rejected.
	en := NewEngine(e)
	if _, err := en.Run(parseQuery(t, fmt.Sprintf(spec, "not-a-date", future))); err == nil {
		t.Error("bad from timestamp accepted")
	}
}

func TestSourceFilterOperators(t *testing.T) {
	e := seedExperiment(t)
	// Exercise every comparison operator against the chunk sweep
	// (values 32, 1024, 32768; 3 runs × 2 techniques × 2 fs = 12 tuples
	// per chunk value).
	cases := []struct {
		op   string
		val  string
		want int
	}{
		{"=", "1024", 12},
		{"&lt;&gt;", "1024", 24},
		{"&lt;", "1024", 12},
		{"&lt;=", "1024", 24},
		{"&gt;", "1024", 12},
		{"&gt;=", "1024", 24},
	}
	for _, c := range cases {
		res := runQuery(t, e, fmt.Sprintf(`
<query experiment="bench">
  <source id="s">
    <parameter name="chunk" value="%s" op="%s"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`, c.val, c.op))
		if n := len(res.Outputs[0].Data[0].Rows); n != c.want {
			t.Errorf("op %s: %d tuples, want %d", c.op, n, c.want)
		}
	}
	// Once-parameter range filter.
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old" op="&lt;&gt;"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <output input="s" format="ascii"/>
</query>`)
	if n := len(res.Outputs[0].Data[0].Rows); n != 18 {
		t.Errorf("once <> filter tuples = %d, want 18", n)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := seedExperiment(t)
	en := NewEngine(e)
	if en.Experiment() != e {
		t.Error("Experiment() accessor")
	}
	res, err := en.Run(parseQuery(t, `
<query experiment="bench">
  <source id="s"><parameter name="chunk"/><value name="bw"/></source>
  <output input="s" format="ascii"/>
</query>`))
	if err != nil {
		t.Fatal(err)
	}
	if prof := res.Profile; len(prof) == 0 || prof["s"] <= 0 {
		t.Errorf("Profile = %v", prof)
	}
	for _, k := range []ElemKind{KindSource, KindOperator, KindCombiner, KindOutput} {
		if k.String() == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if ElemKind(99).String() != "?" {
		t.Error("unknown kind name")
	}
}

func TestSourceUnitConversion(t *testing.T) {
	e := seedExperiment(t)
	// bw is declared in MB/s; retrieve it in KB/s (×1000).
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="s">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw" unit="KB/s"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`)
	vec := res.Outputs[0].Vectors[0]
	ci, bi := colIndex(vec, "chunk"), colIndex(vec, "bw")
	if got := vec.Cols[bi].Unit.String(); got != "KB/s" {
		t.Errorf("converted unit meta = %q", got)
	}
	want := map[int64]float64{32: 101000, 1024: 201000, 32768: 301000}
	for _, row := range res.Outputs[0].Data[0].Rows {
		if got := row[bi].Float(); math.Abs(got-want[row[ci].Int()]) > 1e-6 {
			t.Errorf("avg KB/s (chunk=%d) = %v, want %v", row[ci].Int(), got, want[row[ci].Int()])
		}
	}

	// Incompatible unit is rejected.
	en := NewEngine(e)
	if _, err := en.Run(parseQuery(t, `
<query experiment="bench">
  <source id="s"><parameter name="chunk"/><value name="bw" unit="s"/></source>
  <output input="s" format="ascii"/>
</query>`)); err == nil {
		t.Error("incompatible unit conversion accepted")
	}
}

func TestEvalMultipleInputs(t *testing.T) {
	e := seedExperiment(t)
	// eval over two vectors: the expression references both bandwidth
	// columns (the second renamed bw_2 by the merge).
	res := runQuery(t, e, `
<query experiment="bench">
  <source id="a">
    <parameter name="technique" value="old"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <source id="b">
    <parameter name="technique" value="new"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="chunk"/>
    <value name="bw"/>
  </source>
  <operator id="aa" type="avg" input="a"/>
  <operator id="ab" type="avg" input="b"/>
  <operator id="gap" type="eval" input="aa ab" expression="bw - bw_2" variable="gap"/>
  <output input="gap" format="ascii"/>
</query>`)
	vec := res.Outputs[0].Vectors[0]
	ci, gi := colIndex(vec, "chunk"), colIndex(vec, "gap")
	if gi < 0 {
		t.Fatalf("eval output column missing: %v", colNames(vec.Cols))
	}
	rows := res.Outputs[0].Data[0].Rows
	if len(rows) != 3 {
		t.Fatalf("eval-multi rows = %d", len(rows))
	}
	// avg old = 100i+1, avg new = 80i+1 → gap = 20i.
	for _, row := range rows {
		want := 20 * float64(chunkIndex(row[ci].Int()))
		if got := row[gi].Float(); math.Abs(got-want) > 1e-9 {
			t.Errorf("gap(chunk=%d) = %v, want %v", row[ci].Int(), got, want)
		}
	}
}

// everyModeQuery uses every operator mode of §3.3.2 and a combiner:
// data set aggregation (a_old, a_new, sd_ufs), whole-vector reduction
// (top), element-wise reduction over three inputs (best), percentof
// (rel), a combiner (comb) and an eval over two inputs (gap).
const everyModeQuery = `
<query experiment="bench">
  <source id="s_old"><parameter name="technique" value="old"/><parameter name="chunk"/><value name="bw"/></source>
  <source id="s_new"><parameter name="technique" value="new"/><parameter name="chunk"/><value name="bw"/></source>
  <source id="s_ufs"><parameter name="fs" value="ufs"/><parameter name="chunk"/><value name="bw"/></source>
  <operator id="a_old" type="avg" input="s_old"/>
  <operator id="a_new" type="avg" input="s_new"/>
  <operator id="sd_ufs" type="stddev" input="s_ufs"/>
  <operator id="top" type="max" input="a_old"/>
  <operator id="best" type="max" input="a_old a_new sd_ufs"/>
  <operator id="rel" type="percentof" input="a_new a_old"/>
  <combiner id="comb" input="a_old a_new"/>
  <operator id="gap" type="eval" input="a_old a_new" expression="bw - bw_2" variable="gap"/>
  <output input="top" format="ascii"/>
  <output input="best" format="ascii"/>
  <output input="rel" format="ascii"/>
  <output input="comb" format="ascii"/>
  <output input="gap" format="ascii"/>
</query>`

// TestElementTablesDroppedWithTheQuery: temp tables are catalog entries
// of the database, so every table an element makes for itself — the
// merges of a multi-input eval, the union of an element-wise reduction
// — must be gone when the query is: a long-lived session runs the same
// query again and again.
func TestElementTablesDroppedWithTheQuery(t *testing.T) {
	e := seedExperiment(t)
	db := e.Store().Querier().(*sqldb.DB)
	en := NewEngine(e)
	before := len(db.Tables())
	for i := 0; i < 50; i++ {
		if _, err := en.Run(parseQuery(t, everyModeQuery)); err != nil {
			t.Fatal(err)
		}
	}
	if after := len(db.Tables()); after != before {
		t.Errorf("50 queries left %d tables behind", after-before)
	}
}

// writeLog records the statements that reach the database below it, one
// entry per submission: a statement, a bulk insert, or a pipeline with
// the kinds of its steps.
type writeLog struct {
	*sqldb.DB
	writes []string
}

// stmtKind names a statement by what it does to a vector's table.
func stmtKind(sql string) string {
	switch {
	case strings.HasPrefix(sql, "SELECT "):
		return "read"
	case strings.HasPrefix(sql, "DROP "):
		return "drop"
	case strings.HasPrefix(sql, "INSERT "):
		return "insert-select"
	case strings.Contains(sql, " AS SELECT "):
		return "create-as"
	}
	return "create"
}

func (w *writeLog) Exec(sql string) (*sqldb.Result, error) {
	w.writes = append(w.writes, stmtKind(sql))
	return w.DB.Exec(sql)
}

func (w *writeLog) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	w.writes = append(w.writes, "insert-rows")
	return w.DB.InsertRows(table, cols, rows)
}

func (w *writeLog) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	kinds := make([]string, len(reqs))
	for i, r := range reqs {
		kinds[i] = stmtKind(r.SQL)
		if r.Bulk {
			kinds[i] = "bulk"
		}
	}
	w.writes = append(w.writes, "pipeline["+strings.Join(kinds, " ")+"]")
	return w.DB.ExecPipeline(reqs)
}

// TestOperatorWritesOneSubmissionPerVector places every element of the
// every-mode query on a logging database: each vector an element builds
// arrives as one submission — a single CREATE … AS where one statement
// makes it, else one pipeline, and never a bulk insert of its own. Only
// a multi-input eval builds two vectors, the merge it reads and its
// output, and drops the first. No element reads a vector back.
func TestOperatorWritesOneSubmissionPerVector(t *testing.T) {
	e := seedExperiment(t)
	en := NewEngine(e)
	plan, err := BuildPlan(parseQuery(t, everyModeQuery))
	if err != nil {
		t.Fatal(err)
	}
	w := &writeLog{DB: sqldb.NewMemory()}
	vecs := map[string]*Vector{}
	for _, step := range []struct{ id, writes string }{
		{"s_old", "pipeline[create bulk]"},
		{"s_new", "pipeline[create bulk]"},
		{"s_ufs", "pipeline[create bulk]"},
		{"a_old", "create-as"},
		{"a_new", "create-as"},
		{"sd_ufs", "create-as"},
		{"top", "create-as"},
		{"best", "pipeline[create insert-select insert-select insert-select create-as drop]"},
		{"rel", "create-as"},
		{"comb", "create-as"},
		{"gap", "create-as, create-as, drop"},
	} {
		el := plan.Elements[step.id]
		ins := make([]*Vector, len(el.Inputs))
		for i, in := range el.Inputs {
			ins[i] = vecs[in]
		}
		w.writes = nil
		out, err := en.NewRun().exec(el, ins, w, en.Primary())
		if err != nil {
			t.Fatalf("%s: %v", step.id, err)
		}
		vecs[step.id] = out
		if got := strings.Join(w.writes, ", "); got != step.writes {
			t.Errorf("%s writes %s, want %s", step.id, got, step.writes)
		}
	}
}
