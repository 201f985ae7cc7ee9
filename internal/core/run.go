package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// RunInfo describes one run of an experiment.
type RunInfo struct {
	ID       int64
	Created  time.Time
	Source   string // file(s) the run was imported from
	Checksum string // import fingerprint for duplicate detection
	Active   bool
	DataSets int
}

// DataSet is one tuple of multiple-occurrence variable content, keyed
// by variable name.
type DataSet = map[string]value.Value

// NewRun is one run to store: its constant-per-run variable content,
// its data sets, and where it came from. A data set is a complete row in
// MultiVars order; CreateRuns converts its values in place.
type NewRun struct {
	Once     DataSet
	Rows     []sqldb.Row
	Source   string // file(s) the run is imported from
	Checksum string // import fingerprint for duplicate detection
}

// ErrDuplicateImport is CreateRuns' refusal of an input file a stored
// run was already imported from: without explicit confirmation,
// perfbase imports the same file only once (paper §3.2).
var ErrDuplicateImport = errors.New("core: already imported")

// maxClaims bounds how often CreateRuns resends its runs after losing
// their ids to concurrent importers.
const maxClaims = 100

// claimBackoff is the longest wait after the first lost claim; after
// the n-th it is n times as long.
const claimBackoff = 50 * time.Microsecond

// runCols are the columns of a pb_runs row, in the order CreateRuns
// writes them.
var runCols = []string{"exp", "run_id", "created", "source", "checksum", "active", "nsets"}

// CreateRun stores one run with its data sets keyed by variable name
// (see CreateRuns) and returns its id.
func (e *Experiment) CreateRun(once DataSet, sets []DataSet, source, checksum string) (int64, error) {
	rows, err := e.Rows(sets)
	if err != nil {
		return 0, fmt.Errorf("core: run 1: %w", err)
	}
	ids, err := e.CreateRuns("", []NewRun{{Once: once, Rows: rows, Source: source, Checksum: checksum}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Rows lays data sets keyed by variable name out as the rows of a
// NewRun, their content as stored (see content): a variable a data set
// has no content for takes its declared default (or NULL).
func (e *Experiment) Rows(sets []DataSet) ([]sqldb.Row, error) {
	multi := e.MultiVars()
	flat := make([]value.Value, len(sets)*len(multi))
	rows := make([]sqldb.Row, len(sets))
	for si, ds := range sets {
		rows[si] = flat[si*len(multi) : (si+1)*len(multi) : (si+1)*len(multi)]
		for vi := range multi {
			c, err := multi[vi].content(ds)
			if err != nil {
				return nil, fmt.Errorf("data set %d, %s: %w", si, multi[vi].Name, err)
			}
			rows[si][vi] = c
		}
	}
	return rows, nil
}

// CreateRuns stores the runs of one input file, all of them or none,
// and returns their ids. Every value is validated and converted before
// anything is written: variables without content take their declared
// default (or NULL), content violating a valid list is rejected.
// fingerprint, when not empty, is the file's import fingerprint; a file
// is refused with ErrDuplicateImport when a stored active run carries it
// or the checksum of one of runs (the runs of a run-separated file carry
// the fingerprint suffixed with their index).
//
// It costs two database calls, each one pipeline. A read: the highest
// run id, from the experiment's once table, and the duplicate count,
// from pb_runs through its checksum index (Store.Init). A write, one
// transaction: per run its data table (paper §4.2: one table per run)
// and its data sets as typed rows, then the once rows, then the pb_runs
// rows carrying their data-set counts. A run's once row and its pb_runs
// row are written and deleted together, so the once table holds exactly
// the catalog's run ids of the experiment, and its MAX is theirs without
// a scan of the whole catalog. The CREATE TABLEs claim the run ids: an
// id a concurrent importer took fails its CREATE with
// sqldb.ErrTableExists, or the COMMIT with sqldb.ErrTxnConflict, and
// nothing is written; the ids and the duplicate count are then read
// again and the pipeline resent (paper §4.2: several input users may
// import into one experiment). So no run commits between a claim's read
// and its commit — the first to commit after the read takes the ids it
// read — and of two importers of one file the later to commit read the
// earlier one's run, and is refused (DESIGN.md, "The duplicate check").
func (e *Experiment) CreateRuns(fingerprint string, runs []NewRun) ([]int64, error) {
	onceRows, err := e.convert(runs)
	if err != nil {
		return nil, err
	}
	next, dup, err := e.nextRunID(fingerprint, runs)
	if err != nil {
		return nil, err
	}
	if dup {
		return nil, ErrDuplicateImport
	}
	for attempt := 1; ; attempt++ {
		_, err := e.store.q.ExecPipeline(e.writeRuns(next, runs, onceRows))
		if err == nil {
			break
		}
		if !errors.Is(err, sqldb.ErrTableExists) && !errors.Is(err, sqldb.ErrTxnConflict) {
			return nil, fmt.Errorf("core: store runs: %w", err)
		}
		if attempt == maxClaims {
			return nil, fmt.Errorf("core: no free run id after %d claims: %w", attempt, err)
		}
		// Importers that lost to each other re-read and resend in
		// lockstep, and one of them can lose every round: a random wait,
		// growing with the losses, breaks the step.
		time.Sleep(rand.N(time.Duration(attempt) * claimBackoff))
		last := next
		if next, dup, err = e.nextRunID(fingerprint, runs); err != nil {
			return nil, err
		}
		if dup {
			return nil, ErrDuplicateImport
		}
		// A data table with no run (left by an older release) keeps the
		// highest run id below it: step past the ids just tried.
		next = max(next, last+1)
	}
	ids := make([]int64, len(runs))
	for i := range ids {
		ids[i] = next + int64(i)
	}
	return ids, nil
}

// convert validates the runs' content and converts it in place to the
// rows CreateRuns writes: per run its once row (run_id first, filled per
// claim), and its data rows.
func (e *Experiment) convert(runs []NewRun) ([]sqldb.Row, error) {
	onceVars, multi := e.OnceVars(), e.MultiVars()
	onceRows := make([]sqldb.Row, len(runs))
	for i := range runs {
		r := &runs[i]
		fail := func(err error) ([]sqldb.Row, error) {
			return nil, fmt.Errorf("core: run %d: %w", i+1, err)
		}
		row := make(sqldb.Row, 1+len(onceVars))
		for vi := range onceVars {
			c, err := onceVars[vi].content(r.Once)
			if err != nil {
				return fail(fmt.Errorf("value %s: %w", onceVars[vi].Name, err))
			}
			row[1+vi] = c
		}
		for name := range r.Once {
			if v, ok := e.Var(name); !ok {
				return fail(fmt.Errorf("value %s: no such variable", name))
			} else if !v.Once {
				return fail(fmt.Errorf("value %s: not a once variable", name))
			}
		}
		onceRows[i] = row
		if len(r.Rows) > 0 && len(multi) == 0 {
			return fail(fmt.Errorf("experiment %s has no multiple-occurrence variables", e.name))
		}
		for si, ds := range r.Rows {
			if len(ds) != len(multi) {
				return fail(fmt.Errorf("data set %d has %d values, want %d", si, len(ds), len(multi)))
			}
			for vi := range multi {
				c, err := multi[vi].conform(ds[vi])
				if err != nil {
					return fail(fmt.Errorf("data set %d, %s: %w", si, multi[vi].Name, err))
				}
				ds[vi] = c
			}
		}
	}
	return onceRows, nil
}

// content returns v's content in ds as stored: v's declared default when
// ds has none, else the content conformed to v.
func (v *Var) content(ds DataSet) (value.Value, error) {
	c, ok := lookupVar(ds, v.Name)
	if !ok {
		c = v.Default
	}
	return v.conform(c)
}

// conform returns content c as stored for v: converted to v's type and
// within v's valid list. A NULL stays NULL (the import layer's
// missing-content policy decides which to send).
func (v *Var) conform(c value.Value) (value.Value, error) {
	c, err := c.Convert(v.Type)
	if err != nil {
		return c, err
	}
	if !v.Accepts(c) {
		return c, fmt.Errorf("content %s not in valid list", c)
	}
	return c, nil
}

// nextRunID reads, in one pipeline, the id after the highest stored run
// — the once table's highest run_id, one integer column of this
// experiment alone — and, when fingerprint is not empty, whether an
// active run in pb_runs carries that import fingerprint or the checksum
// of one of runs.
func (e *Experiment) nextRunID(fingerprint string, runs []NewRun) (next int64, dup bool, err error) {
	reqs := []sqldb.PipelineRequest{{SQL: "SELECT MAX(run_id) FROM " + e.OnceTable()}}
	if fingerprint != "" {
		sums := []string{value.NewString(fingerprint).SQL()}
		for _, r := range runs {
			if r.Checksum != "" && r.Checksum != fingerprint {
				sums = append(sums, value.NewString(r.Checksum).SQL())
			}
		}
		reqs = append(reqs, sqldb.PipelineRequest{SQL: "SELECT COUNT(*) FROM " + tblRuns +
			" WHERE exp = " + value.NewString(e.name).SQL() +
			" AND checksum IN (" + strings.Join(sums, ", ") + ") AND active"})
	}
	res, err := e.store.q.ExecPipeline(reqs)
	if err != nil {
		return 0, false, fmt.Errorf("core: read run ids: %w", err)
	}
	next = 1
	if rows := res[0].Rows; len(rows) > 0 && !rows[0][0].IsNull() {
		next = rows[0][0].Int() + 1
	}
	return next, fingerprint != "" && res[1].Rows[0][0].Int() > 0, nil
}

// writeRuns builds the write pipeline storing runs under the ids from
// first on, in one transaction: per run its data table and data rows,
// then every once row, then the pb_runs rows, last, with their final
// data-set counts.
func (e *Experiment) writeRuns(first int64, runs []NewRun, onceRows []sqldb.Row) []sqldb.PipelineRequest {
	multi, onceVars := e.MultiVars(), e.OnceVars()
	dataCols := make([]string, len(multi))
	defs := make([]string, len(multi))
	for i, v := range multi {
		dataCols[i], defs[i] = v.Name, v.Name+" "+v.Type.String()
	}
	if len(defs) == 0 {
		defs = append(defs, "pb_empty integer")
	}
	def := " (" + strings.Join(defs, ", ") + ")"
	onceCols := make([]string, 1+len(onceVars))
	onceCols[0] = "run_id"
	for i, v := range onceVars {
		onceCols[1+i] = v.Name
	}

	now := value.NewTimestamp(time.Now().UTC())
	catalog := make([]sqldb.Row, len(runs))
	reqs := make([]sqldb.PipelineRequest, 0, 2*len(runs)+4)
	reqs = append(reqs, sqldb.PipelineRequest{SQL: "BEGIN"})
	for i := range runs {
		id := value.NewInt(first + int64(i))
		table := e.DataTable(first + int64(i))
		reqs = append(reqs, sqldb.PipelineRequest{SQL: "CREATE TABLE " + table + def})
		if len(runs[i].Rows) > 0 {
			reqs = append(reqs, sqldb.PipelineRequest{Bulk: true, Table: table, Cols: dataCols, Rows: runs[i].Rows})
		}
		onceRows[i][0] = id
		catalog[i] = sqldb.Row{value.NewString(e.name), id, now, value.NewString(runs[i].Source),
			value.NewString(runs[i].Checksum), value.NewBool(true), value.NewInt(int64(len(runs[i].Rows)))}
	}
	return append(reqs,
		sqldb.PipelineRequest{Bulk: true, Table: e.OnceTable(), Cols: onceCols, Rows: onceRows},
		sqldb.PipelineRequest{Bulk: true, Table: tblRuns, Cols: runCols, Rows: catalog},
		sqldb.PipelineRequest{SQL: "COMMIT"})
}

// lookupVar finds name in a DataSet case-insensitively.
func lookupVar(ds DataSet, name string) (value.Value, bool) {
	if v, ok := ds[name]; ok {
		return v, true
	}
	for k, v := range ds {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return value.Value{}, false
}

// Runs lists all active runs of the experiment, oldest first.
func (e *Experiment) Runs() ([]RunInfo, error) {
	res, err := execArgs(e.store.q, `SELECT run_id, created, source, checksum, active, nsets
		FROM `+tblRuns+` WHERE exp = ? AND active ORDER BY run_id`, value.NewString(e.name))
	if err != nil {
		return nil, fmt.Errorf("core: list runs: %w", err)
	}
	runs := make([]RunInfo, 0, len(res.Rows))
	for _, r := range res.Rows {
		runs = append(runs, RunInfo{
			ID: r[0].Int(), Created: r[1].Time(), Source: r[2].Str(),
			Checksum: r[3].Str(), Active: r[4].Bool(), DataSets: int(r[5].Int()),
		})
	}
	return runs, nil
}

// Run returns the bookkeeping record of one run.
func (e *Experiment) Run(id int64) (RunInfo, error) {
	res, err := execArgs(e.store.q, `SELECT run_id, created, source, checksum, active, nsets
		FROM `+tblRuns+` WHERE exp = ? AND run_id = ?`, value.NewString(e.name), value.NewInt(id))
	if err != nil {
		return RunInfo{}, fmt.Errorf("core: run %d: %w", id, err)
	}
	if len(res.Rows) == 0 {
		return RunInfo{}, fmt.Errorf("core: no run %d in experiment %s", id, e.name)
	}
	r := res.Rows[0]
	return RunInfo{
		ID: r[0].Int(), Created: r[1].Time(), Source: r[2].Str(),
		Checksum: r[3].Str(), Active: r[4].Bool(), DataSets: int(r[5].Int()),
	}, nil
}

// RunOnce returns the constant-per-run variable content of a run.
func (e *Experiment) RunOnce(id int64) (DataSet, error) {
	res, err := execArgs(e.store.q, "SELECT * FROM "+e.OnceTable()+" WHERE run_id = ?",
		value.NewInt(id))
	if err != nil {
		return nil, fmt.Errorf("core: run %d once values: %w", id, err)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("core: no run %d in experiment %s", id, e.name)
	}
	ds := DataSet{}
	for i, c := range res.Columns {
		if strings.EqualFold(c.Name, "run_id") {
			continue
		}
		ds[c.Name] = res.Rows[0][i]
	}
	return ds, nil
}

// RunData returns all data sets of a run as a result table.
func (e *Experiment) RunData(id int64) (*sqldb.Result, error) {
	if _, err := e.Run(id); err != nil {
		return nil, err
	}
	res, err := e.store.q.Exec("SELECT * FROM " + e.DataTable(id))
	if err != nil {
		return nil, fmt.Errorf("core: run %d data: %w", id, err)
	}
	return res, nil
}

// DeleteRun removes a run with its data table, in one transaction.
func (e *Experiment) DeleteRun(id int64) error {
	if _, err := e.Run(id); err != nil {
		return err
	}
	if _, err := e.store.q.ExecPipeline([]sqldb.PipelineRequest{
		{SQL: "BEGIN"},
		{SQL: "DROP TABLE IF EXISTS " + e.DataTable(id)},
		{SQL: "DELETE FROM " + e.OnceTable() + " WHERE run_id = " + value.NewInt(id).SQL()},
		{SQL: "DELETE FROM " + tblRuns + " WHERE exp = " + value.NewString(e.name).SQL() +
			" AND run_id = " + value.NewInt(id).SQL()},
		{SQL: "COMMIT"},
	}); err != nil {
		return fmt.Errorf("core: delete run %d: %w", id, err)
	}
	return nil
}
