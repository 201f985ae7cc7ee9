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
	pos   int  // once parameters: column of the value in the once rows
}

// valSel is one selected result value with an optional unit
// conversion (factor ≠ 1).
type valSel struct {
	v      *core.Var
	factor float64
	unit   units.Unit
	pos    int // once values: column of the value in the once rows
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

// execSource runs a source element: it selects the runs matching the
// run filter and the once-parameter constraints, then pours the
// matching data sets of all of them into the output temp table with
// one request — a pour step (sqldb.PipelineRequest.From): one SELECT
// read off every matching run's data table, the run's once values in
// front — tagging every tuple with the included parameters (paper
// §3.3.1: "each data tuple consists of the input parameters by which
// the database access was filtered and the result values that were
// specified"). Nothing of it is statement text but the SELECT, which is
// the same for every query of the source's shape.
func (r *PlanRun) execSource(spec *pbxml.SourceElem, placement core.Handle, src sqldb.Querier) (*Vector, error) {
	en := r.en
	exp := en.exp

	// Resolve parameter filters. onceCols lists the once-table columns
	// the source filters on or outputs; the once rows are read with
	// exactly these columns, after run_id.
	var once, multi []paramConstraint
	var onceCols []string
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
			onceCols = append(onceCols, v.Name)
			pc.pos = len(onceCols)
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
			onceCols = append(onceCols, v.Name)
			vs.pos = len(onceCols)
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

	// Select candidate runs and read their once rows; both are shared
	// with the other sources of this plan run.
	runs, err := r.selectRuns(spec.Run)
	if err != nil {
		return nil, err
	}
	onceByRun, err := r.onceRows(src, onceCols)
	if err != nil {
		return nil, err
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

	// Per run: check the once constraints, then add the run to the pour.
	// pinned means reads go to a snapshot (or a replica), not the live
	// primary.
	pinned := src != en.primary
	hasTable, _ := src.(interface{ HasTable(string) bool })
	for _, run := range runs {
		runOnce, ok := onceByRun[run.ID]
		if !ok {
			if pinned {
				// The run was registered after the snapshot was taken;
				// a consistent view simply excludes it.
				continue
			}
			return nil, fmt.Errorf("query: source %s: run %d has no once row", spec.ID, run.ID)
		}
		match := true
		onceOut := make(sqldb.Row, 0, len(once)+len(onceVals))
		for _, pc := range once {
			var have value.Value
			if pc.runID {
				have = value.NewInt(run.ID)
			} else {
				have = runOnce[pc.pos]
				if have.IsNull() && !pc.v.Default.IsNull() {
					have = pc.v.Default
				}
			}
			if pc.has && !cmpOK(pc.op, have, pc.val) {
				match = false
				break
			}
			onceOut = append(onceOut, have)
		}
		if !match {
			continue
		}
		for _, vs := range onceVals {
			have := runOnce[vs.pos]
			if vs.factor != 1 && !have.IsNull() {
				have = value.NewFloat(have.Float() * vs.factor)
			}
			onceOut = append(onceOut, have)
		}
		if pour.From != nil {
			table := exp.DataTable(run.ID)
			if hasTable != nil && !hasTable.HasTable(table) {
				// Run committed between the once row and the snapshot only
				// in part: its data table is not in the pinned state yet.
				continue
			}
			pour.From = append(pour.From, table)
		}
		pour.Rows = append(pour.Rows, onceOut)
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

// selectRuns applies the run filter of a source (paper §3.3.1: sources
// are limited "by the time stamp or index of a run").
func (r *PlanRun) selectRuns(rf *pbxml.RunFilter) ([]core.RunInfo, error) {
	runs, err := r.allRuns()
	if err != nil {
		return nil, err
	}
	if rf == nil {
		return runs, nil
	}
	if rf.Index != "" {
		wanted := map[int64]bool{}
		for _, part := range strings.Split(rf.Index, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			v, err := value.Parse(value.Integer, part)
			if err != nil {
				return nil, fmt.Errorf("query: run index %q: %w", part, err)
			}
			wanted[v.Int()] = true
		}
		kept := runs[:0:0]
		for _, r := range runs {
			if wanted[r.ID] {
				kept = append(kept, r)
			}
		}
		runs = kept
	}
	if rf.From != "" {
		from, err := value.Parse(value.Timestamp, rf.From)
		if err != nil {
			return nil, fmt.Errorf("query: run filter from: %w", err)
		}
		kept := runs[:0:0]
		for _, r := range runs {
			if !r.Created.Before(from.Time()) {
				kept = append(kept, r)
			}
		}
		runs = kept
	}
	if rf.To != "" {
		to, err := value.Parse(value.Timestamp, rf.To)
		if err != nil {
			return nil, fmt.Errorf("query: run filter to: %w", err)
		}
		kept := runs[:0:0]
		for _, r := range runs {
			if !r.Created.After(to.Time()) {
				kept = append(kept, r)
			}
		}
		runs = kept
	}
	if rf.Last > 0 && len(runs) > rf.Last {
		runs = runs[len(runs)-rf.Last:]
	}
	return runs, nil
}
