package query

import (
	"fmt"
	"strings"

	"perfbase/internal/expr"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// execOperator runs an operator element. Per paper §3.3.2, the mode is
// differentiated automatically by the number and origin of the inputs
// and the operator type:
//
//   - a statistical/reduction operator on one vector that stems from a
//     source element performs data set aggregation: values are reduced
//     over tuples with identical parameter sets;
//   - the same operator on one non-source vector reduces the whole
//     vector into a single element;
//   - applied to several input vectors it reduces element-wise across
//     the vectors;
//   - diff/div/percentof/above/below relate exactly two vectors;
//   - eval/scale/offset compute arithmetic per tuple.
func (en *Engine) execOperator(spec *pbxml.OperatorElem, inputs []*Vector, placement sqldb.Querier) (*Vector, error) {
	typ := strings.ToLower(spec.Type)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("query: operator %s has no inputs", spec.ID)
	}
	// All inputs must be local to the placement database.
	local := make([]*Vector, len(inputs))
	for i, in := range inputs {
		lv, err := Materialize(in, placement)
		if err != nil {
			return nil, err
		}
		local[i] = lv
	}

	// The statistical operators are the engine's aggregates, by name.
	if _, isStat := sqldb.AggResultType(typ, value.Float); isStat {
		switch {
		case len(local) == 1 && local[0].FromSource:
			return en.aggregateDataSets(spec, typ, local[0], placement)
		case len(local) == 1:
			return en.reduceVector(spec, typ, local[0], placement)
		default:
			return en.reduceElementwise(spec, typ, local, placement)
		}
	}
	switch typ {
	case "scale", "offset":
		return en.linear(spec, typ, local, placement)
	case "eval":
		return en.eval(spec, local, placement)
	case "diff", "div", "percentof", "above", "below":
		if len(local) != 2 {
			return nil, fmt.Errorf("query: operator %s (%s) needs exactly two inputs, got %d",
				spec.ID, typ, len(local))
		}
		return en.relate(spec, typ, local[0], local[1], placement)
	}
	return nil, fmt.Errorf("query: unknown operator type %q", spec.Type)
}

// targetValues picks the value columns an operator works on.
func targetValues(spec *pbxml.OperatorElem, v *Vector) ([]ColumnMeta, error) {
	if spec.Variable == "" {
		vals := v.Values()
		if len(vals) == 0 {
			return nil, fmt.Errorf("query: operator %s: input has no value columns", spec.ID)
		}
		return vals, nil
	}
	c, ok := v.Col(spec.Variable)
	if !ok || c.IsParam {
		return nil, fmt.Errorf("query: operator %s: no value column %q in input", spec.ID, spec.Variable)
	}
	return []ColumnMeta{c}, nil
}

// aggUnit is the column unit after aggregation (count drops the unit).
func aggUnit(op string, in units.Unit) units.Unit {
	if op == "count" {
		return units.Dimensionless
	}
	return in
}

// aggColumn is value column vc after aggregation by statistical operator
// typ, of the type the engine gives that aggregate's result, and the
// SELECT item that computes it.
func aggColumn(typ string, vc ColumnMeta) (ColumnMeta, string) {
	rt, _ := sqldb.AggResultType(typ, vc.Type)
	return ColumnMeta{
		Name: vc.Name, Type: rt, Unit: aggUnit(typ, vc.Unit),
		Synopsis: typ + " of " + synopsisOr(vc),
	}, strings.ToUpper(typ) + "(" + vc.Name + ") AS " + vc.Name
}

// aggregateDataSets implements data set aggregation: one SQL GROUP BY
// over all parameter columns (paper footnote 4: "in most cases, it
// makes sense to reduce the data from a source element via data set
// aggregation before processing it further").
func (en *Engine) aggregateDataSets(spec *pbxml.OperatorElem, typ string, in *Vector, placement sqldb.Querier) (*Vector, error) {
	vals, err := targetValues(spec, in)
	if err != nil {
		return nil, err
	}
	params := in.Params()
	var cols []ColumnMeta
	cols = append(cols, params...)
	var sel []string
	for _, p := range params {
		sel = append(sel, p.Name)
	}
	for _, vc := range vals {
		col, item := aggColumn(typ, vc)
		cols, sel = append(cols, col), append(sel, item)
	}
	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols}
	stmt := "CREATE TEMP TABLE " + out.Table + " AS SELECT " + strings.Join(sel, ", ") +
		" FROM " + in.Table
	if len(params) > 0 {
		var keys []string
		for _, p := range params {
			keys = append(keys, p.Name)
		}
		stmt += " GROUP BY " + strings.Join(keys, ", ") + " ORDER BY " + strings.Join(keys, ", ")
	}
	if _, err := placement.Exec(stmt); err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
	}
	return out, nil
}

func synopsisOr(c ColumnMeta) string {
	if c.Synopsis != "" {
		return c.Synopsis
	}
	return c.Name
}

// reduceVector collapses a whole vector into a single element.
func (en *Engine) reduceVector(spec *pbxml.OperatorElem, typ string, in *Vector, placement sqldb.Querier) (*Vector, error) {
	vals, err := targetValues(spec, in)
	if err != nil {
		return nil, err
	}
	var cols []ColumnMeta
	var sel []string
	for _, vc := range vals {
		col, item := aggColumn(typ, vc)
		cols, sel = append(cols, col), append(sel, item)
	}
	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols}
	stmt := "CREATE TEMP TABLE " + out.Table + " AS SELECT " + strings.Join(sel, ", ") +
		" FROM " + in.Table
	if _, err := placement.Exec(stmt); err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
	}
	return out, nil
}

// matchKeys returns the parameter columns shared by all vectors and
// pinned in none of them — the sweep dimensions on which tuples of
// different vectors correspond.
func matchKeys(vs ...*Vector) []ColumnMeta {
	var keys []ColumnMeta
	for _, p := range vs[0].Params() {
		if p.Pinned {
			continue
		}
		ok := true
		for _, v := range vs[1:] {
			c, found := v.Col(p.Name)
			if !found || !c.IsParam || c.Pinned {
				ok = false
				break
			}
		}
		if ok {
			keys = append(keys, p)
		}
	}
	return keys
}

// reduceElementwise reduces N vectors into one, matching tuples on the
// shared unpinned parameter columns.
func (en *Engine) reduceElementwise(spec *pbxml.OperatorElem, typ string, ins []*Vector, placement sqldb.Querier) (*Vector, error) {
	// Union all inputs into one table, then aggregate by parameters.
	first := ins[0]
	vals, err := targetValues(spec, first)
	if err != nil {
		return nil, err
	}
	params := matchKeys(ins...)
	for _, in := range ins[1:] {
		for _, vc := range vals {
			if _, ok := in.Col(vc.Name); !ok {
				return nil, fmt.Errorf("query: operator %s: input %s lacks value %q",
					spec.ID, in.Table, vc.Name)
			}
		}
	}
	var names []string
	for _, p := range params {
		names = append(names, p.Name)
	}
	for _, vc := range vals {
		names = append(names, vc.Name)
	}
	union := &Vector{DB: placement, Table: tempName(spec.ID + "_u"), Cols: append(append([]ColumnMeta{}, params...), vals...)}
	if err := createVectorTable(placement, union.Table, union.Cols); err != nil {
		return nil, err
	}
	defer DropVector(union)
	for _, in := range ins {
		stmt := "INSERT INTO " + union.Table + " (" + strings.Join(names, ", ") + ") SELECT " +
			strings.Join(names, ", ") + " FROM " + in.Table
		if _, err := placement.Exec(stmt); err != nil {
			return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
		}
	}
	u2 := *union
	u2.FromSource = true // aggregate by parameter groups
	return en.aggregateDataSets(spec, typ, &u2, placement)
}

// linear applies scale (multiply) or offset (add) to the value columns.
func (en *Engine) linear(spec *pbxml.OperatorElem, typ string, ins []*Vector, placement sqldb.Querier) (*Vector, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("query: operator %s (%s) takes exactly one input", spec.ID, typ)
	}
	in := ins[0]
	vals, err := targetValues(spec, in)
	if err != nil {
		return nil, err
	}
	isTarget := map[string]bool{}
	for _, vc := range vals {
		isTarget[strings.ToLower(vc.Name)] = true
	}
	factor := spec.Factor
	if typ == "scale" && factor == 0 {
		factor = 1 // an unset factor scales by identity rather than zeroing data
	}
	var sel []string
	var cols []ColumnMeta
	for _, c := range in.Cols {
		if c.IsParam || !isTarget[strings.ToLower(c.Name)] {
			sel = append(sel, c.Name)
			cols = append(cols, c)
			continue
		}
		nc := c
		nc.Type = value.Float
		cols = append(cols, nc)
		if typ == "scale" {
			sel = append(sel, fmt.Sprintf("%s * %v AS %s", c.Name, factor, c.Name))
		} else {
			sel = append(sel, fmt.Sprintf("%s + %v AS %s", c.Name, spec.Offset, c.Name))
		}
	}
	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols, FromSource: in.FromSource}
	stmt := "CREATE TEMP TABLE " + out.Table + " AS SELECT " + strings.Join(sel, ", ") +
		" FROM " + in.Table
	if _, err := placement.Exec(stmt); err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
	}
	return out, nil
}

// eval computes an arbitrary arithmetic expression per tuple. The
// expression references the input's column names; its result becomes a
// new value column named after the element (or spec.Variable). This is
// the scripted path — deliberately row-by-row in the host language,
// mirroring the paper's observation that SQL-side operators beat
// script-side processing (§4.2).
func (en *Engine) eval(spec *pbxml.OperatorElem, ins []*Vector, placement sqldb.Querier) (*Vector, error) {
	// §3.3.2: eval "can be applied to any number of input vectors".
	// Multiple inputs are merged combiner-style first (matching on the
	// shared sweep parameters, value collisions renamed _2, _3, …), so
	// the expression can reference all value columns.
	in := ins[0]
	for i, next := range ins[1:] {
		merged, err := en.combine(fmt.Sprintf("%s_m%d", spec.ID, i), in, next, placement)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			DropVector(in) // intermediate merge result
		}
		in = merged
	}
	e, err := expr.Compile(spec.Expression)
	if err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
	}
	colName := spec.Variable
	if colName == "" {
		colName = spec.ID
	}
	params := in.Params()
	cols := append([]ColumnMeta{}, params...)
	cols = append(cols, ColumnMeta{
		Name: colName, Type: value.Float, Synopsis: spec.Expression,
	})
	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols, FromSource: in.FromSource}
	if err := createVectorTable(placement, out.Table, cols); err != nil {
		return nil, err
	}
	res, err := in.Fetch()
	if err != nil {
		return nil, err
	}
	scope := make(map[string]value.Value, len(in.Cols))
	var rows []sqldb.Row
	for _, row := range res.Rows {
		for i, c := range in.Cols {
			scope[c.Name] = row[i]
		}
		v, err := e.Eval(expr.MapResolver(scope))
		if err != nil {
			return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
		}
		outRow := make(sqldb.Row, 0, len(cols))
		for i, c := range in.Cols {
			if c.IsParam {
				outRow = append(outRow, row[i])
			}
		}
		fv, err := v.Convert(value.Float)
		if err != nil {
			return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
		}
		outRow = append(outRow, fv)
		rows = append(rows, outRow)
	}
	if err := bulkInsert(placement, out.Table, colNames(cols), rows); err != nil {
		return nil, err
	}
	return out, nil
}

// relate implements the two-vector comparisons. The vectors are joined
// on their shared parameter columns; each shared value column yields
// one output column:
//
//	diff       a - b
//	div        a / b
//	percentof  a / b * 100
//	above      (a - b) / b * 100   (how far a lies above b, in %)
//	below      (b - a) / b * 100   (how far a lies below b, in %)
func (en *Engine) relate(spec *pbxml.OperatorElem, typ string, a, b *Vector, placement sqldb.Querier) (*Vector, error) {
	// Shared unpinned parameters become the join key; parameters that a
	// source filter pinned to a single value differ between the inputs
	// by construction (that difference is what is being compared) and
	// do not participate.
	keys := matchKeys(a, b)
	// Shared value columns (or the selected one).
	var vals []ColumnMeta
	if spec.Variable != "" {
		c, ok := a.Col(spec.Variable)
		if !ok || c.IsParam {
			return nil, fmt.Errorf("query: operator %s: no value column %q", spec.ID, spec.Variable)
		}
		if _, ok := b.Col(spec.Variable); !ok {
			return nil, fmt.Errorf("query: operator %s: second input lacks %q", spec.ID, spec.Variable)
		}
		vals = []ColumnMeta{c}
	} else {
		for _, vc := range a.Values() {
			if bc, ok := b.Col(vc.Name); ok && !bc.IsParam {
				vals = append(vals, vc)
			}
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("query: operator %s: inputs share no value columns", spec.ID)
		}
	}

	var cols []ColumnMeta
	var sel []string
	for _, k := range keys {
		cols = append(cols, k)
		sel = append(sel, "a."+k.Name+" AS "+k.Name)
	}
	for _, vc := range vals {
		unit := vc.Unit
		switch typ {
		case "div":
			unit = units.Dimensionless
		case "percentof", "above", "below":
			unit = units.Base("percent")
		}
		cols = append(cols, ColumnMeta{
			Name: vc.Name, Type: value.Float, Unit: unit,
			Synopsis: typ + " of " + synopsisOr(vc),
		})
		var exprSQL string
		av, bv := "a."+vc.Name, "b."+vc.Name
		switch typ {
		case "diff":
			exprSQL = fmt.Sprintf("%s - %s", av, bv)
		case "div":
			exprSQL = fmt.Sprintf("%s / %s", av, bv)
		case "percentof":
			exprSQL = fmt.Sprintf("%s / %s * 100", av, bv)
		case "above":
			exprSQL = fmt.Sprintf("(%s - %s) / %s * 100", av, bv, bv)
		case "below":
			exprSQL = fmt.Sprintf("(%s - %s) / %s * 100", bv, av, bv)
		}
		sel = append(sel, exprSQL+" AS "+vc.Name)
	}

	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols}
	var stmt strings.Builder
	stmt.WriteString("CREATE TEMP TABLE " + out.Table + " AS SELECT " + strings.Join(sel, ", "))
	stmt.WriteString(" FROM " + a.Table + " a JOIN " + b.Table + " b ON ")
	if len(keys) == 0 {
		stmt.WriteString("1 = 1")
	} else {
		for i, k := range keys {
			if i > 0 {
				stmt.WriteString(" AND ")
			}
			stmt.WriteString("a." + k.Name + " = b." + k.Name)
		}
	}
	if len(keys) > 0 {
		var order []string
		for _, k := range keys {
			order = append(order, "a."+k.Name)
		}
		stmt.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	if _, err := placement.Exec(stmt.String()); err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
	}
	return out, nil
}

// execCombiner merges two vectors (paper §3.3.3): all value columns of
// both inputs pass to the output, joined on the shared parameter
// columns (duplicate parameters are removed). Value-name collisions
// get a _2 suffix.
func (en *Engine) execCombiner(spec *pbxml.CombinerElem, inputs []*Vector, placement sqldb.Querier) (*Vector, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("query: combiner %s needs exactly two inputs", spec.ID)
	}
	return en.combine(spec.ID, inputs[0], inputs[1], placement)
}

// combine implements the merge of two vectors, shared by the combiner
// element and multi-input eval operators.
func (en *Engine) combine(id string, ia, ib *Vector, placement sqldb.Querier) (*Vector, error) {
	a, err := Materialize(ia, placement)
	if err != nil {
		return nil, err
	}
	b, err := Materialize(ib, placement)
	if err != nil {
		return nil, err
	}
	keys := matchKeys(a, b)
	keyName := map[string]bool{}
	for _, k := range keys {
		keyName[strings.ToLower(k.Name)] = true
	}
	var cols []ColumnMeta
	var sel []string
	for _, k := range keys {
		cols = append(cols, k)
		sel = append(sel, "a."+k.Name+" AS "+k.Name)
	}
	// Non-shared parameters of either side survive as parameters;
	// shared pinned parameters (constant but different per side) are
	// the duplicates that §3.3.3 removes.
	for _, p := range a.Params() {
		if _, shared := b.Col(p.Name); !shared && !keyName[strings.ToLower(p.Name)] {
			cols = append(cols, p)
			sel = append(sel, "a."+p.Name+" AS "+p.Name)
		}
	}
	for _, p := range b.Params() {
		if _, shared := a.Col(p.Name); !shared && !keyName[strings.ToLower(p.Name)] {
			cols = append(cols, p)
			sel = append(sel, "b."+p.Name+" AS "+p.Name)
		}
	}
	taken := map[string]bool{}
	for _, c := range cols {
		taken[strings.ToLower(c.Name)] = true
	}
	for _, vc := range a.Values() {
		cols = append(cols, vc)
		sel = append(sel, "a."+vc.Name+" AS "+vc.Name)
		taken[strings.ToLower(vc.Name)] = true
	}
	for _, vc := range b.Values() {
		name := vc.Name
		if taken[strings.ToLower(name)] {
			name += "_2"
		}
		nc := vc
		nc.Name = name
		cols = append(cols, nc)
		sel = append(sel, "b."+vc.Name+" AS "+name)
		taken[strings.ToLower(name)] = true
	}

	out := &Vector{DB: placement, Table: tempName(id), Cols: cols}
	var stmt strings.Builder
	stmt.WriteString("CREATE TEMP TABLE " + out.Table + " AS SELECT " + strings.Join(sel, ", "))
	stmt.WriteString(" FROM " + a.Table + " a JOIN " + b.Table + " b ON ")
	if len(keys) == 0 {
		stmt.WriteString("1 = 1")
	} else {
		for i, k := range keys {
			if i > 0 {
				stmt.WriteString(" AND ")
			}
			stmt.WriteString("a." + k.Name + " = b." + k.Name)
		}
	}
	if _, err := placement.Exec(stmt.String()); err != nil {
		return nil, fmt.Errorf("query: combine %s: %w", id, err)
	}
	return out, nil
}
