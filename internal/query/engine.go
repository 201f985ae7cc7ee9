package query

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
)

// Engine executes queries against one experiment. It is safe for
// concurrent element execution (used by internal/parquery).
type Engine struct {
	exp     *core.Experiment
	primary core.Handle

	mu      sync.Mutex
	profile map[string]time.Duration
}

// NewEngine creates an engine for an open experiment. The primary
// database is the one holding the experiment (source elements always
// read from it).
func NewEngine(exp *core.Experiment) *Engine {
	return &Engine{
		exp:     exp,
		primary: exp.Store().Querier(),
		profile: make(map[string]time.Duration),
	}
}

// OutputResult pairs an output element with its final, materialized
// input vectors.
type OutputResult struct {
	Spec    *pbxml.OutputElem
	Vectors []*Vector
	Data    []*sqldb.Result
}

// Results is the outcome of a query run.
type Results struct {
	Outputs []OutputResult
	// Elapsed is the wall time of the whole query.
	Elapsed time.Duration
	// Profile gives the execution time per element id.
	Profile map[string]time.Duration
}

// SourceFraction returns the fraction of the summed element time spent
// in source elements — the quantity the paper profiles in §4.3
// ("the fraction of time spent within the source elements is typically
// only about 10%").
func (r *Results) SourceFraction(plan *Plan) float64 {
	var src, total time.Duration
	for id, d := range r.Profile {
		total += d
		if el, ok := plan.Elements[id]; ok && el.Kind == KindSource {
			src += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(src) / float64(total)
}

// Run executes the query sequentially on the primary database.
func (en *Engine) Run(spec *pbxml.Query) (*Results, error) {
	plan, err := BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	return en.RunPlan(plan, nil)
}

// Placer decides which database executes an element. A nil Placer puts
// everything on the primary.
type Placer interface {
	// Place returns the database for the element. Source elements
	// always read the experiment tables from the primary but may write
	// their output vector elsewhere.
	Place(el *Element) sqldb.Querier
}

// PlanRun is one execution of a plan. Its source elements share what
// they read of the experiment's bookkeeping — the run list and the
// once rows — so a query reads each once, however many sources it has.
// Safe for concurrent element execution.
type PlanRun struct {
	en *Engine

	mu   sync.Mutex
	runs []core.RunInfo // nil until the first source asks
	once map[onceKey]map[int64]sqldb.Row
}

// onceKey names one read of the once table: through which handle (a
// pinned snapshot must see its own state) and of which columns.
type onceKey struct {
	src  sqldb.Querier
	cols string
}

// NewRun starts an execution of a plan on this engine.
func (en *Engine) NewRun() *PlanRun {
	return &PlanRun{en: en, once: map[onceKey]map[int64]sqldb.Row{}}
}

// allRuns returns the experiment's active runs, read once per plan
// run. Callers must not modify the slice.
func (r *PlanRun) allRuns() ([]core.RunInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runs == nil {
		runs, err := r.en.exp.Runs()
		if err != nil {
			return nil, err
		}
		r.runs = runs
	}
	return r.runs, nil
}

// onceRows reads the given columns of the experiment's once table
// through src and returns the rows by run id: row[0] is the run id,
// row[i+1] the value of cols[i]. Sources of one plan run that ask for
// the same columns through the same handle share one read.
func (r *PlanRun) onceRows(src sqldb.Querier, cols []string) (map[int64]sqldb.Row, error) {
	list := strings.Join(append([]string{"run_id"}, cols...), ", ")
	key := onceKey{src, list}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rows, ok := r.once[key]; ok {
		return rows, nil
	}
	res, err := src.Exec("SELECT " + list + " FROM " + r.en.exp.Name() + "_once")
	if err != nil {
		return nil, fmt.Errorf("query: once table: %w", err)
	}
	rows := make(map[int64]sqldb.Row, len(res.Rows))
	for _, row := range res.Rows {
		rows[row[0].Int()] = row
	}
	r.once[key] = rows
	return rows, nil
}

// RunPlan executes a prebuilt plan level by level. Elements within a
// level run sequentially here; internal/parquery runs them
// concurrently across servers.
func (en *Engine) RunPlan(plan *Plan, placer Placer) (*Results, error) {
	start := time.Now()
	run := en.NewRun()
	vectors := map[string]*Vector{}
	res := &Results{Profile: map[string]time.Duration{}}
	defer func() {
		for _, v := range vectors {
			DropVector(v)
		}
	}()

	for _, level := range plan.Levels {
		for _, id := range level {
			el := plan.Elements[id]
			ins := make([]*Vector, len(el.Inputs))
			for i, inID := range el.Inputs {
				v, ok := vectors[inID]
				if !ok {
					return nil, fmt.Errorf("query: internal: input %q of %q not materialized", inID, id)
				}
				ins[i] = v
			}
			var placement sqldb.Querier = en.primary
			if placer != nil {
				placement = placer.Place(el)
			}
			out, err := run.ExecElement(el, ins, placement, en.primary)
			if err != nil {
				return nil, err
			}
			if el.Kind == KindOutput {
				data := make([]*sqldb.Result, len(ins))
				for i, v := range ins {
					d, err := v.Fetch()
					if err != nil {
						return nil, err
					}
					data[i] = d
				}
				res.Outputs = append(res.Outputs, OutputResult{
					Spec: el.Output, Vectors: ins, Data: data,
				})
				continue
			}
			vectors[id] = out
		}
	}
	res.Elapsed = time.Since(start)
	en.mu.Lock()
	for id, d := range en.profile {
		res.Profile[id] = d
	}
	en.mu.Unlock()
	return res, nil
}

// ExecElement executes one element on its own, outside any plan run:
// inputs are already materialized, source reads go to the live primary
// database.
func (en *Engine) ExecElement(el *Element, inputs []*Vector, placement sqldb.Querier) (*Vector, error) {
	return en.NewRun().ExecElement(el, inputs, placement, en.primary)
}

// ExecElement executes one element of the plan run with
// already-materialized inputs on the given database and records its
// execution time. Output elements return nil (their inputs are the
// result). src is the handle for reading the experiment's own tables
// (the once table and the per-run data tables): the engine's primary,
// or — internal/parquery — a pinned *sqldb.Snapshot, so that every
// fan-out worker of one query run observes the same committed state,
// even while imports commit concurrently.
func (r *PlanRun) ExecElement(el *Element, inputs []*Vector, placement, src sqldb.Querier) (*Vector, error) {
	en := r.en
	t0 := time.Now()
	var out *Vector
	var err error
	switch el.Kind {
	case KindSource:
		out, err = r.execSource(el.Source, placement, src)
	case KindOperator:
		out, err = en.execOperator(el.Operator, inputs, placement)
	case KindCombiner:
		out, err = en.execCombiner(el.Combiner, inputs, placement)
	case KindOutput:
		out, err = nil, nil
	default:
		err = fmt.Errorf("query: unknown element kind %v", el.Kind)
	}
	en.mu.Lock()
	en.profile[el.ID] += time.Since(t0)
	en.mu.Unlock()
	return out, err
}

// Profile returns a snapshot of the accumulated per-element execution
// times.
func (en *Engine) Profile() map[string]time.Duration {
	en.mu.Lock()
	defer en.mu.Unlock()
	out := make(map[string]time.Duration, len(en.profile))
	for id, d := range en.profile {
		out[id] = d
	}
	return out
}

// Primary exposes the experiment's database handle.
func (en *Engine) Primary() core.Handle { return en.primary }

// Experiment exposes the engine's experiment.
func (en *Engine) Experiment() *core.Experiment { return en.exp }
