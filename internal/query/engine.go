package query

import (
	"fmt"
	"sync"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
)

// Engine executes queries against one experiment. It holds no mutable
// state — what one execution accumulates lives on its PlanRun — so one
// engine may run any number of queries, also concurrently.
type Engine struct {
	exp     *core.Experiment
	primary core.Handle
}

// NewEngine creates an engine for an open experiment. The primary
// database is the one holding the experiment (source elements always
// read from it).
func NewEngine(exp *core.Experiment) *Engine {
	return &Engine{exp: exp, primary: exp.Store().Querier()}
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
	// Profile gives the execution time per element id of this query.
	// The elements of one level overlap, so the times add up to more
	// than Elapsed when a level has several.
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

// Run executes the query on the primary database: RunPlan with no
// placer.
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

// PlanRun is one execution of a plan. Its output elements share the
// rows of the vectors they read, so a query reads each once, however
// many outputs ask; each source element makes its own read of the runs
// it selects, so the sources of a level do not wait on each other. It
// records its elements' execution times. Safe for concurrent element
// execution.
type PlanRun struct {
	en *Engine

	mu      sync.Mutex
	fetched map[*Vector]func() (*sqldb.Result, error)
	profile map[string]time.Duration
}

// NewRun starts an execution of a plan on this engine.
func (en *Engine) NewRun() *PlanRun {
	return &PlanRun{
		en:      en,
		fetched: map[*Vector]func() (*sqldb.Result, error){},
		profile: map[string]time.Duration{},
	}
}

// fetch returns a vector's rows (Vector.Fetch), read once per plan run:
// outputs of one vector share the read and the result, which they must
// not modify.
func (r *PlanRun) fetch(v *Vector) (*sqldb.Result, error) {
	r.mu.Lock()
	f, ok := r.fetched[v]
	if !ok {
		f = sync.OnceValues(v.Fetch)
		r.fetched[v] = f
	}
	r.mu.Unlock()
	return f()
}

// RunPlan executes a prebuilt plan level by level; it is the one
// runner of every query. The elements of a level do not depend on each
// other (paper §4.3, Fig. 3), so they run concurrently — a level of one
// element on the calling goroutine. Without a placer every element
// runs on the primary and sources read it live; with one, each runs
// where the placer puts it and sources read through its read source.
// The vectors the run made are dropped when it ends, with one
// submission per database.
func (en *Engine) RunPlan(plan *Plan, placer Placer) (*Results, error) {
	start := time.Now()
	run := en.NewRun()
	var src sqldb.Querier = en.primary
	if placer != nil {
		src = placer.ReadSource()
	}
	vectors := map[string]*Vector{}
	var made []*Vector // vectors in the order the run made them
	res := &Results{}
	defer func() { DropVector(made...) }()

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
		var wg sync.WaitGroup
		for i := 1; i < len(steps); i++ {
			wg.Add(1)
			go func(s *step) {
				defer wg.Done()
				s.run(run, src)
			}(&steps[i])
		}
		steps[0].run(run, src)
		wg.Wait()
		for _, s := range steps {
			if s.out != nil {
				vectors[s.el.ID] = s.out
				made = append(made, s.out)
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
	res.Elapsed, res.Profile = time.Since(start), run.profile
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
		if s.data[i], s.err = r.fetch(v); s.err != nil {
			return
		}
	}
}

// exec executes one element of the plan run on placement and records
// its execution time. Output elements return nil (their inputs are the
// result). Inputs held on another database are copied to placement
// first (Materialize) and the copies dropped when the element is done.
// src is the handle for reading the experiment's own tables (the run
// catalog, the once table and the per-run data tables): the engine's
// primary, or — internal/parquery — a pinned *sqldb.Snapshot, so that
// every fan-out worker of one query run observes the same committed
// state, run list included, even while imports commit concurrently.
func (r *PlanRun) exec(el *Element, inputs []*Vector, placement core.Handle, src sqldb.Querier) (*Vector, error) {
	en := r.en
	defer func(t0 time.Time) {
		d := time.Since(t0)
		r.mu.Lock()
		r.profile[el.ID] += d
		r.mu.Unlock()
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
	var copies []*Vector
	defer func() { DropVector(copies...) }()
	for i, in := range inputs {
		var err error
		if local[i], err = Materialize(in, placement); err != nil {
			return nil, err
		}
		if local[i] != in {
			copies = append(copies, local[i])
		}
	}
	if el.Kind == KindCombiner {
		return en.execCombiner(el.Combiner, local, placement)
	}
	return en.execOperator(el, local, placement)
}

// Primary exposes the experiment's database handle.
func (en *Engine) Primary() core.Handle { return en.primary }

// Experiment exposes the engine's experiment.
func (en *Engine) Experiment() *core.Experiment { return en.exp }
