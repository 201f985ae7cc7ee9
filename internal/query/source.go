package query

import (
	"fmt"
	"strings"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// paramConstraint is one resolved parameter filter of a source.
type paramConstraint struct {
	v     *core.Var
	runID bool // synthetic run_id pseudo-parameter
	op    string
	val   value.Value
	has   bool // filter has a constraining value
}

// sqlCol renders the parameter for the once table's SELECT: a NULL
// takes the variable's declared default.
func (pc paramConstraint) sqlCol() string {
	switch {
	case pc.runID:
		return "run_id"
	case pc.v.Default.IsNull():
		return pc.v.Name
	}
	return "COALESCE(" + pc.v.Name + ", " + pc.v.Default.SQL() + ")"
}

// valSel is one selected result value with an optional unit
// conversion (factor ≠ 1).
type valSel struct {
	v      *core.Var
	factor float64
	unit   units.Unit
}

// col builds the output column metadata of the selection.
func (vs valSel) col() ColumnMeta {
	typ := vs.v.Type
	if vs.factor != 1 {
		typ = value.Float
	}
	return ColumnMeta{
		Name: vs.v.Name, Type: typ, Unit: vs.unit, Synopsis: vs.v.Synopsis,
	}
}

// sqlSel renders the selection for a SELECT list.
func (vs valSel) sqlSel() string {
	if vs.factor == 1 {
		return vs.v.Name
	}
	return fmt.Sprintf("(%s * %v) AS %s", vs.v.Name, vs.factor, vs.v.Name)
}

// execSource runs a source element: it reads the runs matching the run
// filter and the once-parameter constraints with one SELECT through
// src, its own (selectRuns), then pours the matching data sets of all
// of them into the output temp table with one request — a pour step
// (sqldb.PipelineRequest.From): one SELECT read off every matching
// run's data table, the run's once values in front — tagging every
// tuple with the included parameters (paper §3.3.1: "each data tuple
// consists of the input parameters by which the database access was
// filtered and the result values that were specified"). Nothing of the
// pour is statement text but the SELECT, which is the same for every
// query of the source's shape.
func (r *PlanRun) execSource(spec *pbxml.SourceElem, placement core.Handle, src sqldb.Querier) (*Vector, error) {
	en := r.en
	exp := en.exp

	// Resolve parameter filters.
	var once, multi []paramConstraint
	for _, pf := range spec.Parameters {
		pc := paramConstraint{op: pf.Op}
		if pc.op == "" {
			pc.op = "="
		}
		switch pc.op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return nil, fmt.Errorf("query: source %s: bad operator %q", spec.ID, pf.Op)
		}
		if strings.EqualFold(pf.Name, "run_id") {
			pc.runID = true
			if pf.Value != "" && pf.Value != "*" {
				v, err := value.Parse(value.Integer, pf.Value)
				if err != nil {
					return nil, fmt.Errorf("query: source %s: run_id filter: %w", spec.ID, err)
				}
				pc.val, pc.has = v, true
			}
			once = append(once, pc)
			continue
		}
		v, ok := exp.Var(pf.Name)
		if !ok {
			return nil, fmt.Errorf("query: source %s: unknown parameter %q", spec.ID, pf.Name)
		}
		if v.Result {
			return nil, fmt.Errorf("query: source %s: %q is a result value, not a parameter", spec.ID, pf.Name)
		}
		pc.v = v
		if pf.Value != "" && pf.Value != "*" {
			pv, err := value.Parse(v.Type, pf.Value)
			if err != nil {
				return nil, fmt.Errorf("query: source %s: filter %s: %w", spec.ID, pf.Name, err)
			}
			pc.val, pc.has = pv, true
		}
		if v.Once {
			once = append(once, pc)
		} else {
			multi = append(multi, pc)
		}
	}

	// Resolve requested result values. Once-occurrence results (one
	// scalar per run, like a benchmark's total score) come from the
	// once table; the rest from the per-run data tables. A unit
	// attribute converts values into a compatible unit on the way out.
	var onceVals, multiVals []valSel
	for _, vr := range spec.Values {
		v, ok := exp.Var(vr.Name)
		if !ok {
			return nil, fmt.Errorf("query: source %s: unknown value %q", spec.ID, vr.Name)
		}
		if !v.Result {
			return nil, fmt.Errorf("query: source %s: %q is a parameter, not a result value", spec.ID, vr.Name)
		}
		vs := valSel{v: v, factor: 1, unit: v.Unit}
		if vr.Unit != "" {
			if !v.Type.Numeric() {
				return nil, fmt.Errorf("query: source %s: unit conversion of non-numeric value %q", spec.ID, v.Name)
			}
			target, err := units.ParseCompact(vr.Unit)
			if err != nil {
				return nil, fmt.Errorf("query: source %s: value %s: %w", spec.ID, v.Name, err)
			}
			factor, err := units.ConversionFactor(v.Unit, target)
			if err != nil {
				return nil, fmt.Errorf("query: source %s: value %s: %w", spec.ID, v.Name, err)
			}
			vs.factor = factor
			vs.unit = target
		}
		if v.Once {
			onceVals = append(onceVals, vs)
		} else {
			multiVals = append(multiVals, vs)
		}
	}

	// Output schema: once parameters, once values, multi parameters,
	// multi values — the order row construction below follows.
	var cols []ColumnMeta
	for _, pc := range once {
		cols = append(cols, sourceParamCol(pc))
	}
	for _, vs := range onceVals {
		cols = append(cols, vs.col())
	}
	for _, pc := range multi {
		cols = append(cols, sourceParamCol(pc))
	}
	for _, vs := range multiVals {
		cols = append(cols, vs.col())
	}
	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols, FromSource: true}

	// The runs the source selects, each its id, then its once columns.
	runs, err := selectRuns(exp, src, spec.Run, once, onceVals)
	if err != nil {
		return nil, fmt.Errorf("query: source %s: %w", spec.ID, err)
	}

	// The pour: the SELECT every run's data table is read with — the same
	// text for every query of this shape — and, per matching run, its
	// table and its once values as constants. With no multi column there
	// is no data table to read: one tuple per run, the constants alone.
	pour := sqldb.PipelineRequest{Table: out.Table, Cols: colNames(cols)}
	var items, conds []string
	for _, pc := range multi {
		items = append(items, pc.v.Name)
		if pc.has {
			conds = append(conds, pc.v.Name+" "+pc.op+" "+pc.val.SQL())
		}
	}
	for _, vs := range multiVals {
		items = append(items, vs.sqlSel())
	}
	if len(items) > 0 {
		pour.SQL = "SELECT " + strings.Join(items, ", ")
		if len(conds) > 0 {
			pour.SQL += " WHERE " + strings.Join(conds, " AND ")
		}
		pour.From = []string{}
	}

	// pinned means reads go to a snapshot (or a replica), not the live
	// primary.
	pinned := src != en.primary
	hasTable, _ := src.(interface{ HasTable(string) bool })
	for _, run := range runs {
		if pour.From != nil {
			table := exp.DataTable(run[0].Int())
			if hasTable != nil && !hasTable.HasTable(table) {
				// Run committed between the once row and the snapshot only
				// in part: its data table is not in the pinned state yet.
				continue
			}
			pour.From = append(pour.From, table)
		}
		pour.Rows = append(pour.Rows, run[1:])
	}

	// One request moves every matching run. When the vector lives on the
	// database that holds the run tables and reads are not pinned, the
	// vector's creation and the pour travel together and the tuples never
	// leave the database; otherwise — a pour is a mutation and would read
	// the live state, not the pinned one — they are read through src and
	// bulk-inserted.
	switch {
	case pour.From == nil:
		err = out.fill(pour.Rows)
	case placement == en.primary && !pinned:
		err = out.build(out.create(), pour)
	default:
		res := &sqldb.Result{}
		var sel string
		if _, sel, err = sqldb.RenderPour(pour); err == nil && sel != "" {
			res, err = src.Exec(sel)
		}
		if err == nil {
			err = out.fill(res.Rows)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("query: source %s: %w", spec.ID, err)
	}
	return out, nil
}

func sourceParamCol(pc paramConstraint) ColumnMeta {
	// Only equality filters pin a parameter to one value; range
	// filters leave it a sweep dimension.
	pinned := pc.has && pc.op == "="
	if pc.runID {
		return ColumnMeta{Name: "run_id", Type: value.Integer, Synopsis: "run index",
			Unit: units.Dimensionless, IsParam: true, Pinned: pinned}
	}
	return ColumnMeta{
		Name: pc.v.Name, Type: pc.v.Type, Unit: pc.v.Unit,
		Synopsis: pc.v.Synopsis, IsParam: true, Pinned: pinned,
	}
}

// selectRuns reads the runs a source selects through src, oldest first:
// per run its id, then the source's once parameters and once values, in
// output order. The once table is the experiment's run registry — a
// run's once row commits and goes with its catalog row and data table —
// so the once constraints and the run filter (paper §3.3.1: sources are
// limited "by the time stamp or index of a run") are the WHERE of one
// SELECT of it. Only a from, to or last filter also reads the run
// catalog: from and to bound a run's import time, and last counts runs
// before the once constraints apply.
func selectRuns(exp *core.Experiment, src sqldb.Querier, rf *pbxml.RunFilter, once []paramConstraint, onceVals []valSel) ([]sqldb.Row, error) {
	items := []string{"run_id"}
	var conds []string
	for _, pc := range once {
		col := pc.sqlCol()
		items = append(items, col)
		if pc.has {
			conds = append(conds, col+" "+pc.op+" "+pc.val.SQL())
		}
	}
	for _, vs := range onceVals {
		items = append(items, vs.sqlSel())
	}
	var inIndex string
	if rf != nil && rf.Index != "" {
		var ids []string
		for _, part := range strings.Split(rf.Index, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			v, err := value.Parse(value.Integer, part)
			if err != nil {
				return nil, fmt.Errorf("run index %q: %w", part, err)
			}
			ids = append(ids, v.SQL())
		}
		if len(ids) == 0 {
			return nil, nil
		}
		inIndex = "run_id IN (" + strings.Join(ids, ", ") + ")"
		conds = append(conds, inIndex)
	}
	var keep map[int64]bool
	if rf != nil && (rf.From != "" || rf.To != "" || rf.Last > 0) {
		var err error
		if keep, err = catalogRuns(exp, src, rf, inIndex); err != nil {
			return nil, err
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM " + exp.OnceTable()
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	res, err := src.Exec(sql + " ORDER BY run_id")
	if err != nil {
		return nil, fmt.Errorf("once table: %w", err)
	}
	if keep == nil {
		return res.Rows, nil
	}
	runs := res.Rows[:0]
	for _, row := range res.Rows {
		if keep[row[0].Int()] {
			runs = append(runs, row)
		}
	}
	return runs, nil
}

// catalogRuns reads from the run catalog, through src, the ids of the
// runs a from, to or last filter keeps; inIndex is the filter's index
// condition, if any, which last counts after.
func catalogRuns(exp *core.Experiment, src sqldb.Querier, rf *pbxml.RunFilter, inIndex string) (map[int64]bool, error) {
	conds := []string{"exp = " + value.NewString(exp.Name()).SQL(), "active"}
	if inIndex != "" {
		conds = append(conds, inIndex)
	}
	for _, b := range []struct{ attr, op, text string }{{"from", ">=", rf.From}, {"to", "<=", rf.To}} {
		if b.text == "" {
			continue
		}
		t, err := value.Parse(value.Timestamp, b.text)
		if err != nil {
			return nil, fmt.Errorf("run filter %s: %w", b.attr, err)
		}
		conds = append(conds, "created "+b.op+" "+t.SQL())
	}
	sql := "SELECT run_id FROM " + core.RunsTable + " WHERE " + strings.Join(conds, " AND ")
	if rf.Last > 0 {
		sql += fmt.Sprintf(" ORDER BY run_id DESC LIMIT %d", rf.Last)
	}
	res, err := src.Exec(sql)
	if err != nil {
		return nil, fmt.Errorf("run catalog: %w", err)
	}
	keep := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		keep[row[0].Int()] = true
	}
	return keep, nil
}
