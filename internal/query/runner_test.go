package query

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/sqldb"
)

// fig8Query is the shape of the paper's Fig. 8 query over the test
// experiment: two sources in the first level, an aggregation of each in
// the second, their relation, and two outputs of it.
const fig8Query = `
<query experiment="bench">
  <source id="src_old"><parameter name="technique" value="old"/><parameter name="chunk"/><value name="bw"/></source>
  <source id="src_new"><parameter name="technique" value="new"/><parameter name="chunk"/><value name="bw"/></source>
  <operator id="agg_old" type="max" input="src_old"/>
  <operator id="agg_new" type="max" input="src_new"/>
  <operator id="rel" type="percentof" input="agg_new agg_old"/>
  <output input="rel" format="ascii"/>
  <output input="rel" format="csv"/>
</query>`

// barrier is a two-party barrier: a caller of await waits up to two
// seconds for a second one.
type barrier struct {
	mu      sync.Mutex
	waiting chan struct{} // closed when a second caller arrives
	met     atomic.Int32  // callers that found another waiting
	missed  atomic.Int32  // callers that waited in vain
}

func (b *barrier) await() {
	b.mu.Lock()
	if ch := b.waiting; ch != nil {
		b.waiting = nil
		b.mu.Unlock()
		close(ch)
		b.met.Add(1)
		return
	}
	ch := make(chan struct{})
	b.waiting = ch
	b.mu.Unlock()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		b.mu.Lock()
		if b.waiting == ch {
			b.waiting = nil
			b.missed.Add(1)
		}
		b.mu.Unlock()
	}
}

// pourBarrier is a database whose pouring pipelines meet at a barrier.
type pourBarrier struct {
	*sqldb.DB
	barrier
}

func (b *pourBarrier) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	for _, r := range reqs {
		if r.From != nil {
			b.await()
			break
		}
	}
	return b.DB.ExecPipeline(reqs)
}

// onceReadBarrier is a database whose SELECTs of the bench
// experiment's once table meet at a barrier.
type onceReadBarrier struct {
	*sqldb.DB
	barrier
}

func (b *onceReadBarrier) Exec(sql string) (*sqldb.Result, error) {
	if strings.HasPrefix(sql, "SELECT ") && strings.Contains(sql, " FROM bench_once") {
		b.await()
	}
	return b.DB.Exec(sql)
}

// TestLevelElementsOverlap: the two sources of a Fig. 8 query are one
// level, so both pours are in flight at once — on the primary, with no
// placer, as Engine.Run and the CLI run a query.
func TestLevelElementsOverlap(t *testing.T) {
	b := &pourBarrier{DB: sqldb.NewMemory()}
	e := seedExperimentOn(t, b)
	res, err := NewEngine(e).Run(parseQuery(t, fig8Query))
	if err != nil {
		t.Fatal(err)
	}
	if met, missed := b.met.Load(), b.missed.Load(); met != 1 || missed != 0 {
		t.Errorf("pours met %d times, waited in vain %d times; want both sources in flight at once", met, missed)
	}
	if len(res.Outputs) != 2 || len(res.Outputs[0].Data[0].Rows) != 3 {
		t.Errorf("outputs = %+v", res.Outputs)
	}
}

// TestLevelSourceReadsOverlap: each source of a level reads the runs it
// selects itself, so the two sources of a Fig. 8 query read the once
// table at the same time — neither waits for the other's read.
func TestLevelSourceReadsOverlap(t *testing.T) {
	b := &onceReadBarrier{DB: sqldb.NewMemory()}
	e := seedExperimentOn(t, b)
	res, err := NewEngine(e).Run(parseQuery(t, fig8Query))
	if err != nil {
		t.Fatal(err)
	}
	if met, missed := b.met.Load(), b.missed.Load(); met != 1 || missed != 0 {
		t.Errorf("once-table reads met %d times, waited in vain %d times; want both sources reading at once", met, missed)
	}
	if len(res.Outputs) != 2 || len(res.Outputs[0].Data[0].Rows) != 3 {
		t.Errorf("outputs = %+v", res.Outputs)
	}
}

// TestLevelErrorLeavesNoTable: when elements of a level fail, the query
// returns the error of the first failing element in level order, and
// the vectors its siblings made are dropped with the query.
func TestLevelErrorLeavesNoTable(t *testing.T) {
	e := seedExperiment(t)
	db := e.Store().Querier().(*sqldb.DB)
	en := NewEngine(e)
	ok := func(id string) string {
		return fmt.Sprintf(`<source id="%s"><parameter name="chunk"/><value name="bw"/></source>`, id)
	}
	bad := func(id string) string {
		return fmt.Sprintf(`<source id="%s"><parameter name="nosuch_%[1]s"/><value name="bw"/></source>`, id)
	}
	for _, tc := range []struct {
		name, sources, inputs, want string
	}{
		{"fails after its sibling", ok("a") + bad("z"), "a z", "source z:"},
		{"fails before its sibling", bad("a") + ok("z"), "a z", "source a:"},
		{"two fail", ok("a") + bad("b") + bad("c"), "a b c", "source b:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := parseQuery(t, `<query experiment="bench">`+tc.sources+
				`<operator id="ev" type="eval" input="`+tc.inputs+`" expression="bw"/>
				<output input="ev" format="ascii"/></query>`)
			before := len(db.Tables())
			for i := 0; i < 20; i++ {
				_, err := en.Run(q)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run %d: error %v, want one naming %q", i, err, tc.want)
				}
			}
			if after := len(db.Tables()); after != before {
				t.Errorf("failed queries left %d tables behind", after-before)
			}
		})
	}
}

// TestProfileIsPerRun: a result's profile holds the elements of its own
// query, each timed within the query's wall time — not what earlier
// queries of the same engine ran.
func TestProfileIsPerRun(t *testing.T) {
	e := seedExperiment(t)
	en := NewEngine(e)
	queries := []string{`
<query experiment="bench">
  <source id="first"><parameter name="chunk"/><value name="bw"/></source>
  <output input="first" format="ascii"/>
</query>`, `
<query experiment="bench">
  <source id="second"><parameter name="chunk"/><value name="bw"/></source>
  <operator id="avg2" type="avg" input="second"/>
  <output input="avg2" format="ascii"/>
</query>`}
	for round := 0; round < 2; round++ {
		for _, doc := range queries {
			plan, err := BuildPlan(parseQuery(t, doc))
			if err != nil {
				t.Fatal(err)
			}
			res, err := en.RunPlan(plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Profile) != len(plan.Elements) {
				t.Errorf("profile %v, want the %d elements of its query", res.Profile, len(plan.Elements))
			}
			for id, d := range res.Profile {
				if _, ok := plan.Elements[id]; !ok {
					t.Errorf("profile holds %s, an element of another query", id)
				}
				if d > res.Elapsed {
					t.Errorf("element %s took %v in a query of %v", id, d, res.Elapsed)
				}
			}
		}
	}
}

// syncLog is a writeLog that elements may write to concurrently.
type syncLog struct {
	mu sync.Mutex
	w  writeLog
}

func (l *syncLog) Exec(sql string) (*sqldb.Result, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Exec(sql)
}

func (l *syncLog) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.ExecPipeline(reqs)
}

// placeOn places every element on one database.
type placeOn struct {
	h   core.Handle
	src sqldb.Querier
}

func (p placeOn) Place(int, []*Vector) core.Handle { return p.h }
func (p placeOn) ReadSource() sqldb.Querier        { return p.src }

// TestElementVectorsReadAndDroppedOnce: the two outputs of Fig. 8 read
// one vector, and a plan run reads it once; the run drops its five
// vectors with one pipeline.
func TestElementVectorsReadAndDroppedOnce(t *testing.T) {
	e := seedExperiment(t)
	l := &syncLog{w: writeLog{DB: sqldb.NewMemory()}}
	plan, err := BuildPlan(parseQuery(t, fig8Query))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(e).RunPlan(plan, placeOn{l, e.Store().Querier()})
	if err != nil {
		t.Fatal(err)
	}
	var reads, drops []string
	for _, w := range l.w.writes {
		switch {
		case w == "read":
			reads = append(reads, w)
		case strings.Contains(w, "drop"):
			drops = append(drops, w)
		}
	}
	if len(reads) != 1 {
		t.Errorf("%d reads of vectors, want 1: %v", len(reads), l.w.writes)
	}
	if want := "pipeline[drop drop drop drop drop]"; len(drops) != 1 || drops[0] != want {
		t.Errorf("drops %v, want %s", drops, want)
	}
	if len(res.Outputs) != 2 || res.Outputs[0].Data[0] != res.Outputs[1].Data[0] || len(res.Outputs[0].Data[0].Rows) != 3 {
		t.Errorf("outputs = %+v", res.Outputs)
	}
	if n := len(l.w.DB.Tables()); n != 0 {
		t.Errorf("%d tables left on the placement", n)
	}
}
