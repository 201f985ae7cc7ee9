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
// concurrent element execution (RunPlan with a Placer).
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

// Placer places the elements of a plan run on database servers (paper
// §4.3, Fig. 3); internal/parquery implements it.
type Placer interface {
	// Place returns the database the i-th element of a level builds its
	// output vector on, given the element's materialized inputs.
	Place(i int, ins []*Vector) core.Handle
	// ReadSource returns the handle the run's source elements read the
	// experiment's own tables through.
	ReadSource() sqldb.Querier
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

// RunPlan executes a prebuilt plan level by level; it is the one
// runner of every query. With a nil placer each element runs in turn on
// the primary and sources read it live. With one, the elements of a
// level run concurrently, each where the placer puts it, and sources
// read through its read source.
func (en *Engine) RunPlan(plan *Plan, placer Placer) (*Results, error) {
	start := time.Now()
	run := en.NewRun()
	var src sqldb.Querier = en.primary
	if placer != nil {
		src = placer.ReadSource()
	}
	vectors := map[string]*Vector{}
	res := &Results{}
	defer func() {
		for _, v := range vectors {
			DropVector(v)
		}
	}()

	for _, level := range plan.Levels {
		// Every element's inputs and placement are resolved before any
		// of the level runs; each then writes only its own step.
		steps := make([]step, len(level))
		for i, id := range level {
			s := &steps[i]
			s.el, s.placement = plan.Elements[id], en.primary
			s.ins = make([]*Vector, len(s.el.Inputs))
			for j, inID := range s.el.Inputs {
				v, ok := vectors[inID]
				if !ok {
					return nil, fmt.Errorf("query: internal: input %q of %q not materialized", inID, id)
				}
				s.ins[j] = v
			}
			if placer != nil {
				s.placement = placer.Place(i, s.ins)
			}
		}
		if placer == nil {
			for i := range steps {
				if steps[i].run(run, src); steps[i].err != nil {
					break
				}
			}
		} else {
			var wg sync.WaitGroup
			for i := range steps {
				wg.Add(1)
				go func(s *step) {
					defer wg.Done()
					s.run(run, src)
				}(&steps[i])
			}
			wg.Wait()
		}
		for _, s := range steps {
			if s.out != nil {
				vectors[s.el.ID] = s.out
			}
		}
		for _, s := range steps {
			if s.err != nil {
				return nil, s.err
			}
			if s.el.Kind == KindOutput {
				res.Outputs = append(res.Outputs, OutputResult{Spec: s.el.Output, Vectors: s.ins, Data: s.data})
			}
		}
	}
	res.Elapsed, res.Profile = time.Since(start), en.Profile()
	return res, nil
}

// step is one element's execution within a level of a plan run.
type step struct {
	el        *Element
	ins       []*Vector
	placement core.Handle

	out  *Vector
	data []*sqldb.Result // an output element's inputs, fetched
	err  error
}

// run executes the step's element; an output element fetches its inputs.
func (s *step) run(r *PlanRun, src sqldb.Querier) {
	if s.out, s.err = r.exec(s.el, s.ins, s.placement, src); s.err != nil || s.el.Kind != KindOutput {
		return
	}
	s.data = make([]*sqldb.Result, len(s.ins))
	for i, v := range s.ins {
		if s.data[i], s.err = v.Fetch(); s.err != nil {
			return
		}
	}
}

// ExecElement executes one element on its own, outside any plan run:
// inputs are already materialized, source reads go to the live primary
// database.
func (en *Engine) ExecElement(el *Element, inputs []*Vector, placement core.Handle) (*Vector, error) {
	return en.NewRun().exec(el, inputs, placement, en.primary)
}

// ExecElement executes one element of the plan run, as RunPlan does:
// see exec. The placement must be a core.Handle; it is declared a
// Querier like src for callers that hold both as one type.
func (r *PlanRun) ExecElement(el *Element, inputs []*Vector, placement, src sqldb.Querier) (*Vector, error) {
	h, ok := placement.(core.Handle)
	if !ok {
		return nil, fmt.Errorf("query: element %s: placement %T is not a core.Handle", el.ID, placement)
	}
	return r.exec(el, inputs, h, src)
}

// exec executes one element of the plan run on placement and records
// its execution time. Output elements return nil (their inputs are the
// result). Inputs held on another database are copied to placement
// first (Materialize) and the copies dropped when the element is done.
// src is the handle for reading the experiment's own tables (the once
// table and the per-run data tables): the engine's primary, or —
// internal/parquery — a pinned *sqldb.Snapshot, so that every fan-out
// worker of one query run observes the same committed state, even while
// imports commit concurrently.
func (r *PlanRun) exec(el *Element, inputs []*Vector, placement core.Handle, src sqldb.Querier) (*Vector, error) {
	en := r.en
	defer func(t0 time.Time) {
		en.mu.Lock()
		en.profile[el.ID] += time.Since(t0)
		en.mu.Unlock()
	}(time.Now())
	switch el.Kind {
	case KindSource:
		return r.execSource(el.Source, placement, src)
	case KindOutput:
		return nil, nil
	case KindOperator, KindCombiner:
	default:
		return nil, fmt.Errorf("query: unknown element kind %v", el.Kind)
	}
	local := make([]*Vector, len(inputs))
	defer func() {
		for i, v := range local {
			if v != nil && v != inputs[i] {
				DropVector(v)
			}
		}
	}()
	for i, in := range inputs {
		var err error
		if local[i], err = Materialize(in, placement); err != nil {
			return nil, err
		}
	}
	if el.Kind == KindCombiner {
		return en.execCombiner(el.Combiner, local, placement)
	}
	return en.execOperator(el, local, placement)
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
