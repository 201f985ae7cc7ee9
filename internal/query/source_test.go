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
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// The source test experiment has once parameters of every kind a
// branch renders as a constant — string, integer with a default,
// timestamp, a float once result — beside a multi-valued sweep.
const sourceExpDoc = `
<experiment>
  <name>src</name>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>nodes</name><datatype>integer</datatype><default>1</default></parameter>
  <parameter occurence="once"><name>started</name><datatype>timestamp</datatype></parameter>
  <result occurence="once"><name>score</name><datatype>float</datatype>
    <unit><base_unit>s</base_unit></unit></result>
  <parameter><name>chunk</name><datatype>integer</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype>
    <unit><fraction><dividend><base_unit>byte</base_unit><scaling>Mega</scaling></dividend>
    <divisor><base_unit>s</base_unit></divisor></fraction></unit></result>
  <result><name>ops</name><datatype>integer</datatype></result>
</experiment>`

// refRun is what the test knows of one run, kept beside the database.
type refRun struct {
	id      int64
	created time.Time
	once    core.DataSet
	sets    []core.DataSet
}

// addRun stores run i of the deterministic corpus and returns its
// reference record. Every third run leaves nodes NULL, every fourth
// its score; scores and bandwidths are not whole numbers in general
// but are in some runs, so a constant column mixes 3 and 2.5.
func addRun(t *testing.T, e *core.Experiment, i int) refRun {
	t.Helper()
	once := core.DataSet{
		"fs":      value.NewString([]string{"ufs", "nfs", "it's"}[i%3]),
		"nodes":   value.NewInt(int64(1 << (i % 4))),
		"started": value.NewTimestamp(time.Date(2005, 9, 1+i, 12, 0, 0, 500, time.UTC)),
		"score":   value.NewFloat(float64(i) / 2),
	}
	if i%3 == 2 {
		once["nodes"] = value.Null(value.Integer)
	}
	if i%4 == 3 {
		once["score"] = value.Null(value.Float)
	}
	var sets []core.DataSet
	for ci, c := range []int64{32, 1024, 32768, 1 << 20}[:2+i%3] {
		sets = append(sets, core.DataSet{
			"chunk": value.NewInt(c),
			"bw":    value.NewFloat(float64(10*i+ci) / 4),
			"ops":   value.NewInt(int64(100*i + ci)),
		})
	}
	id, err := e.CreateRun(once, sets, fmt.Sprintf("run%d", i), "")
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.Run(id)
	if err != nil {
		t.Fatal(err)
	}
	return refRun{id: id, created: info.Created, once: once, sets: sets}
}

// cmpOK is the reference's comparison: value.Compare, and false when
// either side is NULL.
func cmpOK(op string, a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := value.Compare(a, b)
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// keepRun reports whether a run passes the index, from and to parts of
// a run filter.
func keepRun(t *testing.T, rf *pbxml.RunFilter, run refRun) bool {
	t.Helper()
	if rf == nil {
		return true
	}
	if rf.Index != "" {
		named := false
		for _, part := range strings.Split(rf.Index, ",") {
			named = named || strings.TrimSpace(part) == fmt.Sprint(run.id)
		}
		if !named {
			return false
		}
	}
	for _, b := range []struct {
		text  string
		after bool
	}{{rf.From, true}, {rf.To, false}} {
		if b.text == "" {
			continue
		}
		bound, err := value.Parse(value.Timestamp, b.text)
		if err != nil {
			t.Fatal(err)
		}
		if b.after && run.created.Before(bound.Time()) || !b.after && run.created.After(bound.Time()) {
			return false
		}
	}
	return true
}

// refVector builds, run by run, the tuples a source must deliver: the
// runs the run filter keeps, in id order, last counting after the other
// parts; of those the ones meeting the once filters; of each its data
// sets, in stored order, meeting the multi filters; each tuple the once
// parameters, once values, multi parameters and multi values the source
// names, in that order.
//
// The run filter works on the runs the reading handle sees: unseen holds
// the runs a pinned state does not have at all, noData those whose data
// table it lacks.
func refVector(t *testing.T, e *core.Experiment, spec *pbxml.SourceElem, runs []refRun, unseen, noData map[int64]bool) []sqldb.Row {
	t.Helper()
	var seen []refRun
	for _, run := range runs {
		if !unseen[run.id] && keepRun(t, spec.Run, run) {
			seen = append(seen, run)
		}
	}
	if spec.Run != nil && spec.Run.Last > 0 && len(seen) > spec.Run.Last {
		seen = seen[len(seen)-spec.Run.Last:]
	}
	keep := func(pf pbxml.ParamFilter, have value.Value) bool {
		if pf.Value == "" {
			return true
		}
		want, err := value.Parse(have.Type(), pf.Value)
		if err != nil {
			t.Fatal(err)
		}
		op := pf.Op
		if op == "" {
			op = "="
		}
		return cmpOK(op, have, want)
	}
	converted := func(vr pbxml.ValueRef, v *core.Var, have value.Value) value.Value {
		if vr.Unit == "" || have.IsNull() {
			if vr.Unit != "" {
				return value.Null(value.Float)
			}
			return have
		}
		target, err := units.ParseCompact(vr.Unit)
		if err != nil {
			t.Fatal(err)
		}
		f, err := units.ConversionFactor(v.Unit, target)
		if err != nil {
			t.Fatal(err)
		}
		return value.NewFloat(have.Float() * f)
	}
	var out []sqldb.Row
	for _, run := range seen {
		var onceP, onceV sqldb.Row
		match, multi := true, false
		for _, pf := range spec.Parameters {
			var have value.Value
			if pf.Name == "run_id" {
				have = value.NewInt(run.id)
			} else if v, _ := e.Var(pf.Name); v.Once {
				if have = run.once[pf.Name]; have.IsNull() && !v.Default.IsNull() {
					have = v.Default
				}
			} else {
				multi = true
				continue
			}
			match = match && keep(pf, have)
			onceP = append(onceP, have)
		}
		for _, vr := range spec.Values {
			if v, _ := e.Var(vr.Name); v.Once {
				onceV = append(onceV, converted(vr, v, run.once[vr.Name]))
			} else {
				multi = true
			}
		}
		if !match {
			continue
		}
		if !multi {
			out = append(out, append(onceP, onceV...))
			continue
		}
		if noData[run.id] {
			continue
		}
		for _, set := range run.sets {
			row := append(append(sqldb.Row{}, onceP...), onceV...)
			ok := true
			for _, pf := range spec.Parameters {
				if v, _ := e.Var(pf.Name); pf.Name != "run_id" && !v.Once {
					ok = ok && keep(pf, set[pf.Name])
					row = append(row, set[pf.Name])
				}
			}
			for _, vr := range spec.Values {
				if v, _ := e.Var(vr.Name); !v.Once {
					row = append(row, converted(vr, v, set[vr.Name]))
				}
			}
			if ok {
				out = append(out, row)
			}
		}
	}
	return out
}

// TestSourceMatchesPerRunReference runs the same sources through the
// three ways a source moves its tuples — pushed down into one INSERT
// ... SELECT on the primary, read from the primary and bulk-inserted on
// another database, and read from a snapshot pinned before a later
// import (and while one run's data table did not exist yet) — and
// compares every vector row for row with the per-run reference.
func TestSourceMatchesPerRunReference(t *testing.T) {
	db := sqldb.NewMemory()
	store := core.NewStore(db)
	if err := store.Init(); err != nil {
		t.Fatal(err)
	}
	def, err := pbxml.ParseExperiment(strings.NewReader(sourceExpDoc))
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.CreateExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	var runs []refRun
	for i := 0; i < 9; i++ {
		runs = append(runs, addRun(t, e, i))
	}
	// Run 5's data table is missing while the snapshot is taken, as if
	// its import had committed the once row but not yet the data; then
	// the table comes back and one more run is imported.
	half := runs[4]
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("ALTER TABLE " + e.DataTable(half.id) + " RENAME TO parked")
	pin := db.Snapshot()
	mustExec("ALTER TABLE parked RENAME TO " + e.DataTable(half.id))
	runs = append(runs, addRun(t, e, 9))
	late := map[int64]bool{runs[9].id: true}

	sources := []struct{ name, xml string }{
		{"multi-value", `<source id="s"><parameter name="fs"/><parameter name="chunk"/><value name="bw"/><value name="ops"/></source>`},
		{"once filters", `<source id="s"><parameter name="fs" value="it's"/><parameter name="nodes" op="&gt;=" value="1"/>
			<parameter name="started"/><parameter name="chunk"/><value name="score"/><value name="bw"/></source>`},
		{"once values only", `<source id="s"><parameter name="fs" op="&lt;&gt;" value="nfs"/><parameter name="nodes"/><value name="score"/></source>`},
		{"run_id and range filters", `<source id="s"><parameter name="run_id" op="&gt;" value="2"/><parameter name="nodes" op="&lt;=" value="4"/>
			<parameter name="chunk" op="&gt;" value="32"/><value name="ops"/></source>`},
		{"unit conversion", `<source id="s"><parameter name="nodes" value="2"/><parameter name="chunk"/>
			<value name="score" unit="ms"/><value name="bw" unit="KB/s"/></source>`},
		{"last runs", `<source id="s"><run last="3"/><parameter name="run_id"/><parameter name="chunk" value="1024"/><value name="bw"/></source>`},
		{"no matching run", `<source id="s"><parameter name="fs" value="pvfs"/><parameter name="chunk"/><value name="bw"/></source>`},
		{"no matching tuple", `<source id="s"><parameter name="chunk" value="7"/><value name="bw"/></source>`},
		{"started range", `<source id="s"><parameter name="started" op="&lt;=" value="2005-09-05T12:00:00.0000005Z"/>
			<parameter name="chunk"/><value name="bw"/></source>`},
		{"nodes default equal", `<source id="s"><parameter name="nodes" value="1"/><parameter name="chunk"/><value name="ops"/></source>`},
		{"nodes default unequal", `<source id="s"><parameter name="nodes" op="&lt;&gt;" value="1"/><value name="score"/></source>`},
		{"run index with a missing id", `<source id="s"><run index="2, 99,5"/><parameter name="run_id"/><parameter name="chunk"/><value name="bw"/></source>`},
		{"run from and to", fmt.Sprintf(`<source id="s"><run from="%s" to="%s"/><parameter name="run_id"/><parameter name="chunk"/><value name="bw"/></source>`,
			runs[2].created.Format(time.RFC3339Nano), runs[9].created.Format(time.RFC3339Nano))},
		{"last runs before a once filter", `<source id="s"><run last="4"/><parameter name="fs" value="ufs"/><parameter name="run_id"/><value name="score"/></source>`},
	}
	other := sqldb.NewMemory()
	placements := []struct {
		name           string
		placement      core.Handle
		src            sqldb.Querier
		unseen, noData map[int64]bool
	}{
		{"push-down", db, db, nil, nil},
		{"other database", other, db, nil, nil},
		{"pinned snapshot", db, pin, late, map[int64]bool{half.id: true}},
	}
	for _, sc := range sources {
		q := parseQuery(t, `<query experiment="src">`+sc.xml+`<output input="s" format="ascii"/></query>`)
		plan, err := BuildPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		el := plan.Elements["s"]
		for _, pl := range placements {
			name := sc.name + ", " + pl.name
			vec, err := NewEngine(e).NewRun().exec(el, nil, pl.placement, pl.src)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			got, err := vec.Fetch()
			DropVector(vec)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			want := refVector(t, e, el.Source, runs, pl.unseen, pl.noData)
			if len(got.Rows) != len(want) {
				t.Errorf("%s: %d tuples, want %d", name, len(got.Rows), len(want))
				continue
			}
			if strings.HasPrefix(sc.name, "no matching") != (len(want) == 0) {
				t.Fatalf("%s: the reference has %d tuples", name, len(want))
			}
			for ri, row := range got.Rows {
				for ci, v := range row {
					w := want[ri][ci]
					if v.IsNull() != w.IsNull() || (!v.IsNull() && (v.Type() != vec.Cols[ci].Type || !value.Equal(v, w))) {
						t.Errorf("%s: tuple %d, %s = %v (%s), want %v", name, ri, vec.Cols[ci].Name, v, v.Type(), w)
					}
				}
			}
		}
	}
}

// countingQuerier counts the submissions — statements, bulk inserts and
// pipelines — that reach the database below it.
type countingQuerier struct {
	*sqldb.DB
	calls int
}

func (c *countingQuerier) Exec(sql string) (*sqldb.Result, error) {
	c.calls++
	return c.DB.Exec(sql)
}

func (c *countingQuerier) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	c.calls++
	return c.DB.InsertRows(table, cols, rows)
}

func (c *countingQuerier) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	c.calls++
	return c.DB.ExecPipeline(reqs)
}

// TestSourceStatementsIndependentOfRunCount is the guard against a
// per-run statement coming back into the source element: whether 10
// runs match or 500, every source makes two submissions — its own read
// of the runs it selects (one filtered SELECT of the once table), then
// in the push-down path one pipeline creating the vector and pouring
// into it, in the bulk path one compound SELECT (the vector is created
// and filled elsewhere), and with once values only one pipeline
// creating and bulk-filling the vector. A second source of the same
// plan run makes its own read, as sources of one level run at once.
func TestSourceStatementsIndependentOfRunCount(t *testing.T) {
	count := func(nruns int) map[string]int {
		cq := &countingQuerier{DB: sqldb.NewMemory()}
		store := core.NewStore(cq)
		if err := store.Init(); err != nil {
			t.Fatal(err)
		}
		def, err := pbxml.ParseExperiment(strings.NewReader(sourceExpDoc))
		if err != nil {
			t.Fatal(err)
		}
		e, err := store.CreateExperiment(def)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nruns; i++ {
			addRun(t, e, 3*i) // every run on ufs, with nodes and most with a score
		}
		q := parseQuery(t, `<query experiment="src">
			<source id="a"><parameter name="fs" value="ufs"/><parameter name="chunk"/><value name="bw"/></source>
			<source id="b"><parameter name="fs" value="ufs"/><parameter name="chunk" value="32"/><value name="ops"/></source>
			<source id="c"><parameter name="fs"/><value name="score"/></source>
			<output input="a" format="ascii"/></query>`)
		plan, err := BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		other := sqldb.NewMemory()
		out := map[string]int{}
		run := NewEngine(e).NewRun()
		for _, step := range []struct {
			name, id  string
			placement core.Handle
			rows      int
		}{
			{"first source, push-down", "a", cq, 0},
			{"second source", "b", cq, nruns},
			{"once values only", "c", cq, nruns},
			{"bulk path", "a", other, 0},
		} {
			before := cq.calls
			vec, err := run.exec(plan.Elements[step.id], nil, step.placement, cq)
			if err != nil {
				t.Fatal(err)
			}
			out[step.name] = cq.calls - before
			res, err := vec.Fetch()
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Rows); n < nruns || (step.rows > 0 && n != step.rows) {
				t.Fatalf("%s over %d runs: %d tuples", step.name, nruns, n)
			}
			cq.calls = before + out[step.name]
		}
		return out
	}
	few, many := count(10), count(500)
	want := map[string]int{
		"first source, push-down": 2, // its runs, [CREATE, pour]
		"second source":           2, // its runs, [CREATE, pour]
		"once values only":        2, // its runs, [CREATE, bulk insert]
		"bulk path":               2, // its runs, one compound SELECT (CREATE and bulk insert go elsewhere)
	}
	for step, n := range want {
		if few[step] != n || many[step] != n {
			t.Errorf("%s: %d statements over 10 runs, %d over 500, want %d for both", step, few[step], many[step], n)
		}
	}
}

// TestNonFiniteOnceValueInSource: a run whose once value is NaN or ±Inf
// is a constant of the source's pour like any other — poured natively on
// the primary, and read through the SELECT sqldb.RenderPour prints on
// another database or a pinned snapshot — unit conversion included.
func TestNonFiniteOnceValueInSource(t *testing.T) {
	db := sqldb.NewMemory()
	store := core.NewStore(db)
	if err := store.Init(); err != nil {
		t.Fatal(err)
	}
	def, err := pbxml.ParseExperiment(strings.NewReader(sourceExpDoc))
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.CreateExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	var runs []refRun
	for i, score := range []float64{math.NaN(), 1.5, math.Inf(1), math.Inf(-1), 2} {
		once := core.DataSet{"fs": value.NewString("ufs"), "nodes": value.NewInt(int64(i)), "score": value.NewFloat(score)}
		sets := []core.DataSet{
			{"chunk": value.NewInt(32), "bw": value.NewFloat(float64(i)), "ops": value.NewInt(1)},
			{"chunk": value.NewInt(64), "bw": value.NewFloat(math.NaN()), "ops": value.NewInt(2)},
		}
		id, err := e.CreateRun(once, sets, fmt.Sprintf("nonfinite%d", i), "")
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, refRun{id: id, once: once, sets: sets})
	}
	other := sqldb.NewMemory()
	for _, xml := range []string{
		`<source id="s"><parameter name="nodes"/><parameter name="chunk"/><value name="score"/><value name="bw"/></source>`,
		`<source id="s"><parameter name="chunk"/><value name="score" unit="ms"/><value name="ops"/></source>`,
	} {
		plan, err := BuildPlan(parseQuery(t, `<query experiment="src">`+xml+`<output input="s" format="ascii"/></query>`))
		if err != nil {
			t.Fatal(err)
		}
		el := plan.Elements["s"]
		want := refVector(t, e, el.Source, runs, nil, nil)
		for name, pl := range map[string]struct {
			placement core.Handle
			src       sqldb.Querier
		}{"pour": {db, db}, "other database": {other, db}, "pinned snapshot": {db, db.Snapshot()}} {
			vec, err := NewEngine(e).NewRun().exec(el, nil, pl.placement, pl.src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := vec.Fetch()
			DropVector(vec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("%s: %d tuples, want %d", name, len(got.Rows), len(want))
			}
			for ri, row := range got.Rows {
				for ci, v := range row {
					if w := want[ri][ci]; v.SQL() != w.SQL() {
						t.Errorf("%s: tuple %d, %s = %v, want %v", name, ri, vec.Cols[ci].Name, v, w)
					}
				}
			}
		}
	}
}
