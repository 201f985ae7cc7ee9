// Package core implements the experiment management layer of perfbase.
//
// The central idea of perfbase is the experiment (paper §3): a system
// under evaluation whose executions — runs — are stored as sets of
// input parameters and result values. This package maps experiments
// onto the SQL backend: meta tables describe experiments, variables
// and access rights; each experiment has one "once" table holding the
// constant-per-run variables of every run and, faithful to §4.2 ("for
// each new run, one table is created which contains the tabular
// data"), one data table per run for the multiple-occurrence
// variables.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// Meta table names. All perfbase bookkeeping lives in pb_-prefixed
// tables of the backing database.
const (
	tblExperiments = "pb_experiments"
	tblVariables   = "pb_variables"
	tblAccess      = "pb_access"
	tblRuns        = "pb_runs"
)

// RunsTable is the run catalog: one row per run of every experiment,
// its columns exp, run_id, created, source, checksum, active and nsets.
const RunsTable = tblRuns

// validSep separates entries of a variable's valid-content list in its
// meta row.
const validSep = "\x1f"

// Store is a handle to a perfbase database (local or remote). It
// manages the meta tables shared by all experiments in the database.
type Store struct {
	q Handle

	mu   sync.Mutex
	exps map[string]*openedExp // by name: the experiment OpenExperiment last built
}

// openedExp is an experiment as OpenExperiment built it, with the meta
// rows it was built from. The experiment is never changed: the store
// hands out copies of it, so an Update on one changes that copy alone.
type openedExp struct {
	exp  *Experiment
	n    [3]int        // rows per meta read
	meta []value.Value // the rows' values, in read order
}

// newOpenedExp keeps e with the meta reads it was built from.
func newOpenedExp(e *Experiment, res []*sqldb.Result) *openedExp {
	o := &openedExp{exp: e}
	size := 0
	for i, r := range res {
		o.n[i] = len(r.Rows)
		size += len(r.Rows) * len(r.Columns)
	}
	o.meta = make([]value.Value, 0, size)
	for _, r := range res {
		for _, row := range r.Rows {
			o.meta = append(o.meta, row...)
		}
	}
	return o
}

// builtFrom reports whether the meta reads res hold exactly the rows o
// was built from, datum for datum.
func (o *openedExp) builtFrom(res []*sqldb.Result) bool {
	k := 0
	for i, r := range res {
		if len(r.Rows) != o.n[i] {
			return false
		}
		for _, row := range r.Rows {
			for _, v := range row {
				if k == len(o.meta) || v != o.meta[k] {
					return false
				}
				k++
			}
		}
	}
	return k == len(o.meta)
}

// forget drops what OpenExperiment kept of experiment name; a writer of
// its meta rows calls it, and the next open builds the experiment anew.
func (s *Store) forget(name string) {
	s.mu.Lock()
	delete(s.exps, name)
	s.mu.Unlock()
}

// Handle is what a Store needs of its database: statements, and
// pipelines of statements and typed bulk inserts (sqldb.RunPipeline).
// *sqldb.DB, *sqldb.Session, *wire.Client and *shard.Cluster are each
// one.
type Handle interface {
	sqldb.Querier
	sqldb.Pipeliner
}

// NewStore wraps a database handle. Call Init before first use of a
// fresh database.
func NewStore(q Handle) *Store {
	return &Store{q: q, exps: map[string]*openedExp{}}
}

// Querier exposes the underlying database handle.
func (s *Store) Querier() Handle { return s.q }

// initCatalog creates the perfbase meta tables and the index on
// pb_runs' checksums, which answers an import's duplicate check, where
// they do not exist yet.
var initCatalog = []sqldb.PipelineRequest{
	{SQL: `CREATE TABLE IF NOT EXISTS ` + tblExperiments + ` (
		name string, synopsis string, description string,
		project string, performer string, organization string,
		created timestamp, definition string)`},
	{SQL: `CREATE TABLE IF NOT EXISTS ` + tblVariables + ` (
		exp string, name string, is_result boolean, once boolean,
		datatype string, synopsis string, description string,
		unit string, dflt string, valids string)`},
	{SQL: `CREATE TABLE IF NOT EXISTS ` + tblAccess + ` (
		exp string, usr string, class string)`},
	{SQL: `CREATE TABLE IF NOT EXISTS ` + tblRuns + ` (
		exp string, run_id integer, created timestamp,
		source string, checksum string, active boolean, nsets integer)`},
	{SQL: `CREATE INDEX IF NOT EXISTS ON ` + tblRuns + ` (checksum)`},
}

// Init creates the perfbase meta tables and pb_runs' checksum index if
// they do not exist yet, in one pipeline. It is idempotent: against a
// database that has them it changes nothing, and writes nothing. Against
// a read-only replica the creation attempt is refused — the meta tables
// arrive there through replication — so a read-only refusal is not an
// error and the session proceeds query-only.
func (s *Store) Init() error {
	if _, err := s.q.ExecPipeline(initCatalog); err != nil && !errors.Is(err, sqldb.ErrReadOnly) {
		return fmt.Errorf("core: init meta tables: %w", err)
	}
	return nil
}

// ListExperiments returns the names of all experiments, sorted.
func (s *Store) ListExperiments() ([]string, error) {
	res, err := s.q.Exec("SELECT name FROM " + tblExperiments + " ORDER BY name")
	if err != nil {
		return nil, fmt.Errorf("core: list experiments: %w", err)
	}
	names := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		names = append(names, r[0].Str())
	}
	return names, nil
}

// CreateExperiment registers a new experiment from its definition and
// creates its storage tables: its pb_experiments row, its variables'
// and access grants' rows and its once table, in one transaction.
func (s *Store) CreateExperiment(def *pbxml.Experiment) (*Experiment, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if exists, err := s.experimentExists(def.Name); err != nil {
		return nil, err
	} else if exists {
		return nil, fmt.Errorf("core: experiment %q already exists", def.Name)
	}
	vars, err := resolveVars(def)
	if err != nil {
		return nil, err
	}
	name := value.NewString(def.Name)
	var tx txn
	tx.add(`INSERT INTO `+tblExperiments+
		` (name, synopsis, description, project, performer, organization, created, definition)
		 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
		name, value.NewString(def.Info.Synopsis),
		value.NewString(def.Info.Description), value.NewString(def.Info.Project),
		value.NewString(def.Info.PerformedBy.Name), value.NewString(def.Info.PerformedBy.Organization),
		value.NewTimestamp(time.Now().UTC()), value.NewString(""))
	for _, v := range vars {
		tx.addVarMeta(def.Name, v)
	}
	for class, users := range map[string][]string{
		"admin": def.Access.Admin, "input": def.Access.Input, "query": def.Access.Query,
	} {
		for _, u := range users {
			tx.add(`INSERT INTO `+tblAccess+` (exp, usr, class) VALUES (?, ?, ?)`,
				name, value.NewString(u), value.NewString(class))
		}
	}
	e := newExperiment(s, def.Name, def, vars)
	tx.add(e.onceTableDDL())
	if err := tx.run(s.q); err != nil {
		return nil, fmt.Errorf("core: create %s: %w", def.Name, err)
	}
	return e, nil
}

func (s *Store) experimentExists(name string) (bool, error) {
	res, err := execArgs(s.q, "SELECT COUNT(*) FROM "+tblExperiments+" WHERE name = ?",
		value.NewString(name))
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	return res.Rows[0][0].Int() > 0, nil
}

// OpenExperiment loads an existing experiment: its meta row, variables
// and access grants, read in one pipeline. When those rows are the ones
// the store last built the experiment from, it hands out a copy of that
// experiment instead of parsing the rows again.
func (s *Store) OpenExperiment(name string) (*Experiment, error) {
	lit := value.NewString(name).SQL()
	res, err := s.q.ExecPipeline([]sqldb.PipelineRequest{
		{SQL: "SELECT synopsis, description, project, performer, organization FROM " + tblExperiments +
			" WHERE name = " + lit},
		{SQL: "SELECT name, is_result, once, datatype, synopsis, description, unit, dflt, valids FROM " +
			tblVariables + " WHERE exp = " + lit + " ORDER BY name"},
		{SQL: "SELECT usr, class FROM " + tblAccess + " WHERE exp = " + lit},
	})
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", name, err)
	}
	if len(res[0].Rows) == 0 {
		s.forget(name)
		return nil, fmt.Errorf("core: no experiment %q", name)
	}
	s.mu.Lock()
	o := s.exps[name]
	s.mu.Unlock()
	if o == nil || !o.builtFrom(res) {
		e, err := s.buildExperiment(name, res)
		if err != nil {
			return nil, err
		}
		o = newOpenedExp(e, res)
		s.mu.Lock()
		s.exps[name] = o
		s.mu.Unlock()
	}
	e := *o.exp
	return &e, nil
}

// buildExperiment makes experiment name from OpenExperiment's meta reads.
func (s *Store) buildExperiment(name string, res []*sqldb.Result) (*Experiment, error) {
	meta := res[0].Rows[0]
	def := &pbxml.Experiment{Name: name}
	def.Info.Synopsis = meta[0].Str()
	def.Info.Description = meta[1].Str()
	def.Info.Project = meta[2].Str()
	def.Info.PerformedBy.Name = meta[3].Str()
	def.Info.PerformedBy.Organization = meta[4].Str()

	var vars []Var
	for _, r := range res[1].Rows {
		typ, err := value.TypeFromString(r[3].Str())
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", name, err)
		}
		u, err := units.ParseCompact(r[6].Str())
		if err != nil {
			return nil, fmt.Errorf("core: open %s: %w", name, err)
		}
		v := Var{
			Name: r[0].Str(), Result: r[1].Bool(), Once: r[2].Bool(),
			Type: typ, Synopsis: r[4].Str(), Description: r[5].Str(),
			Unit: u, DefaultText: r[7].Str(),
		}
		if r[8].Str() != "" {
			v.ValidTexts = strings.Split(r[8].Str(), validSep)
		}
		if err := v.finish(); err != nil {
			return nil, fmt.Errorf("core: open %s: %w", name, err)
		}
		vars = append(vars, v)
		xv := pbxml.Variable{
			Name: v.Name, Synopsis: v.Synopsis, Description: v.Description,
			DataType: typ.String(), Default: v.DefaultText, Valid: v.ValidTexts,
		}
		if v.Once {
			xv.Occurrence = "once"
		}
		if v.Result {
			def.Results = append(def.Results, xv)
		} else {
			def.Parameters = append(def.Parameters, xv)
		}
	}

	for _, r := range res[2].Rows {
		switch r[1].Str() {
		case "admin":
			def.Access.Admin = append(def.Access.Admin, r[0].Str())
		case "input":
			def.Access.Input = append(def.Access.Input, r[0].Str())
		case "query":
			def.Access.Query = append(def.Access.Query, r[0].Str())
		}
	}
	return newExperiment(s, name, def, vars), nil
}

// DestroyExperiment removes an experiment with all runs and meta data,
// in one transaction.
func (s *Store) DestroyExperiment(name string) error {
	defer s.forget(name)
	e, err := s.OpenExperiment(name)
	if err != nil {
		return err
	}
	runs, err := e.Runs()
	if err != nil {
		return err
	}
	var tx txn
	for _, r := range runs {
		tx.add("DROP TABLE IF EXISTS " + e.DataTable(r.ID))
	}
	lit := value.NewString(name).SQL()
	tx.add("DROP TABLE IF EXISTS " + e.OnceTable())
	tx.add("DELETE FROM " + tblRuns + " WHERE exp = " + lit)
	tx.add("DELETE FROM " + tblAccess + " WHERE exp = " + lit)
	tx.add("DELETE FROM " + tblVariables + " WHERE exp = " + lit)
	tx.add("DELETE FROM " + tblExperiments + " WHERE name = " + lit)
	if err := tx.run(s.q); err != nil {
		return fmt.Errorf("core: destroy %s: %w", name, err)
	}
	return nil
}

// txn collects the statements of one transaction, each bound to its
// arguments as it is added; run sends them as one BEGIN … COMMIT
// pipeline, so they commit together or not at all.
type txn struct {
	reqs []sqldb.PipelineRequest
	err  error // the first statement that did not bind
}

func (tx *txn) add(sql string, args ...value.Value) {
	if tx.err == nil {
		sql, tx.err = sqldb.BindArgs(sql, args...)
	}
	tx.reqs = append(tx.reqs, sqldb.PipelineRequest{SQL: sql})
}

// addVarMeta adds the INSERT of variable v's meta row in experiment exp.
func (tx *txn) addVarMeta(exp string, v Var) {
	tx.add(`INSERT INTO `+tblVariables+
		` (exp, name, is_result, once, datatype, synopsis, description, unit, dflt, valids)
		 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		value.NewString(exp), value.NewString(v.Name), value.NewBool(v.Result),
		value.NewBool(v.Once), value.NewString(v.Type.String()),
		value.NewString(v.Synopsis), value.NewString(v.Description),
		value.NewString(v.Unit.String()), value.NewString(v.DefaultText),
		value.NewString(strings.Join(v.ValidTexts, validSep)))
}

func (tx *txn) run(q Handle) error {
	if tx.err != nil {
		return tx.err
	}
	reqs := make([]sqldb.PipelineRequest, 0, len(tx.reqs)+2)
	reqs = append(reqs, sqldb.PipelineRequest{SQL: "BEGIN"})
	reqs = append(reqs, tx.reqs...)
	_, err := q.ExecPipeline(append(reqs, sqldb.PipelineRequest{SQL: "COMMIT"}))
	return err
}

// execArgs runs a parameterised statement against any Querier by
// binding the arguments textually.
func execArgs(q sqldb.Querier, sql string, args ...value.Value) (*sqldb.Result, error) {
	bound, err := sqldb.BindArgs(sql, args...)
	if err != nil {
		return nil, err
	}
	return q.Exec(bound)
}
