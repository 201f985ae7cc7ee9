package core

import (
	"errors"
	"fmt"
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

// CreateRun stores a new run: its constant-per-run variable content
// plus bookkeeping. Missing once-variables take their declared default
// (or NULL); content violating a valid-list is rejected.
//
// Run ids are claimed by creating the per-run data table, which is a
// single atomic statement even against a shared remote server;
// concurrent importers that collide on an id simply retry with the
// next one (paper §4.2: multiple input users may import into the same
// experiment).
func (e *Experiment) CreateRun(once DataSet, source, checksum string) (int64, error) {
	// Validate and complete the once values before claiming anything.
	onceVars := e.OnceVars()
	cols := []string{"run_id"}
	vals := []value.Value{value.Null(value.Integer)} // run_id filled after the claim
	used := map[string]bool{}
	for i := range onceVars {
		v := &onceVars[i]
		content, ok := lookupVar(once, v.Name)
		if !ok {
			// Absent variables take their declared default; an
			// explicitly passed NULL stays NULL (the import layer's
			// missing-content policy decides which to send).
			content = v.Default
		} else if content.IsNull() {
			content = value.Null(v.Type)
		} else {
			c, err := content.Convert(v.Type)
			if err != nil {
				return 0, fmt.Errorf("core: run value %s: %w", v.Name, err)
			}
			content = c
		}
		if !v.Accepts(content) {
			return 0, fmt.Errorf("core: run value %s: content %s not in valid list", v.Name, content)
		}
		cols = append(cols, v.Name)
		vals = append(vals, content)
		used[strings.ToLower(v.Name)] = true
	}
	for name := range once {
		if !used[strings.ToLower(name)] {
			if _, ok := e.Var(name); !ok {
				return 0, fmt.Errorf("core: run value %s: no such variable", name)
			}
			return 0, fmt.Errorf("core: run value %s: not a once variable", name)
		}
	}

	id, err := e.claimRunID()
	if err != nil {
		return 0, err
	}
	vals[0] = value.NewInt(id)
	fail := func(err error) (int64, error) {
		// Release the claimed data table on a later failure.
		e.store.q.Exec("DROP TABLE IF EXISTS " + e.DataTable(id)) //nolint:errcheck
		return 0, err
	}

	placeholders := strings.TrimRight(strings.Repeat("?, ", len(vals)), ", ")
	if _, err := execArgs(e.store.q,
		"INSERT INTO "+e.onceTable()+" ("+strings.Join(cols, ", ")+") VALUES ("+placeholders+")",
		vals...); err != nil {
		return fail(fmt.Errorf("core: store run: %w", err))
	}

	if _, err := execArgs(e.store.q, `INSERT INTO `+tblRuns+
		` (exp, run_id, created, source, checksum, active, nsets) VALUES (?, ?, ?, ?, ?, TRUE, 0)`,
		value.NewString(e.name), value.NewInt(id),
		value.NewTimestamp(time.Now().UTC()),
		value.NewString(source), value.NewString(checksum)); err != nil {
		return fail(fmt.Errorf("core: register run: %w", err))
	}
	return id, nil
}

// claimRunID atomically claims the next free run id by creating the
// per-run data table (paper §4.2: one table per run). CREATE TABLE is
// a single statement, so the claim is race-free even against a shared
// remote server; on a collision the next id is probed.
func (e *Experiment) claimRunID() (int64, error) {
	res, err := execArgs(e.store.q, "SELECT MAX(run_id) FROM "+tblRuns+" WHERE exp = ?",
		value.NewString(e.name))
	if err != nil {
		return 0, fmt.Errorf("core: allocate run id: %w", err)
	}
	var id int64 = 1
	if len(res.Rows) > 0 && !res.Rows[0][0].IsNull() {
		id = res.Rows[0][0].Int() + 1
	}

	multi := e.MultiVars()
	dataCols := make([]string, 0, len(multi))
	for _, v := range multi {
		dataCols = append(dataCols, v.Name+" "+v.Type.String())
	}
	if len(dataCols) == 0 {
		dataCols = append(dataCols, "pb_empty integer")
	}
	def := " (" + strings.Join(dataCols, ", ") + ")"

	const maxProbes = 10000
	for probe := 0; probe < maxProbes; probe++ {
		_, err := e.store.q.Exec("CREATE TABLE " + e.DataTable(id) + def)
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, sqldb.ErrTableExists) {
			return 0, fmt.Errorf("core: create run data table: %w", err)
		}
		id++ // concurrent importer (or stale table) holds this id
	}
	return 0, fmt.Errorf("core: could not claim a run id after %d probes", maxProbes)
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

// AppendDataSets adds data tuples to a run. Missing variables take
// their default (or NULL); valid-lists are enforced.
func (e *Experiment) AppendDataSets(runID int64, sets []DataSet) error {
	if len(sets) == 0 {
		return nil
	}
	multi := e.MultiVars()
	if len(multi) == 0 {
		return fmt.Errorf("core: experiment %s has no multiple-occurrence variables", e.name)
	}
	cols := make([]string, len(multi))
	for i, v := range multi {
		cols[i] = v.Name
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(e.DataTable(runID))
	sb.WriteString(" (")
	sb.WriteString(strings.Join(cols, ", "))
	sb.WriteString(") VALUES ")
	for si, ds := range sets {
		if si > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for vi := range multi {
			v := &multi[vi]
			content, ok := lookupVar(ds, v.Name)
			if !ok {
				content = v.Default
			} else if content.IsNull() {
				content = value.Null(v.Type)
			} else {
				c, err := content.Convert(v.Type)
				if err != nil {
					return fmt.Errorf("core: data set %d, %s: %w", si, v.Name, err)
				}
				content = c
			}
			if !v.Accepts(content) {
				return fmt.Errorf("core: data set %d, %s: content %s not in valid list", si, v.Name, content)
			}
			if vi > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(content.SQL())
		}
		sb.WriteString(")")
	}
	if _, err := e.store.q.Exec(sb.String()); err != nil {
		return fmt.Errorf("core: append data sets: %w", err)
	}
	if _, err := execArgs(e.store.q,
		"UPDATE "+tblRuns+" SET nsets = nsets + ? WHERE exp = ? AND run_id = ?",
		value.NewInt(int64(len(sets))), value.NewString(e.name), value.NewInt(runID)); err != nil {
		return fmt.Errorf("core: update run stats: %w", err)
	}
	return nil
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
	res, err := execArgs(e.store.q, "SELECT * FROM "+e.onceTable()+" WHERE run_id = ?",
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

// DeleteRun removes a run with its data table.
func (e *Experiment) DeleteRun(id int64) error {
	if _, err := e.Run(id); err != nil {
		return err
	}
	for _, stmt := range []string{
		"DROP TABLE IF EXISTS " + e.DataTable(id),
		"DELETE FROM " + e.onceTable() + " WHERE run_id = " + value.NewInt(id).SQL(),
		"DELETE FROM " + tblRuns + " WHERE exp = " + value.NewString(e.name).SQL() +
			" AND run_id = " + value.NewInt(id).SQL(),
	} {
		if _, err := e.store.q.Exec(stmt); err != nil {
			return fmt.Errorf("core: delete run %d: %w", id, err)
		}
	}
	return nil
}

// HasImport reports whether a run with the given import checksum
// already exists. perfbase refuses to import the same input file twice
// without explicit confirmation (paper §3.2).
func (e *Experiment) HasImport(checksum string) (bool, error) {
	if checksum == "" {
		return false, nil
	}
	res, err := execArgs(e.store.q,
		"SELECT COUNT(*) FROM "+tblRuns+" WHERE exp = ? AND checksum = ? AND active",
		value.NewString(e.name), value.NewString(checksum))
	if err != nil {
		return false, fmt.Errorf("core: checksum lookup: %w", err)
	}
	return res.Rows[0][0].Int() > 0, nil
}
