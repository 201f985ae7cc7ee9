package query

import (
	"fmt"
	"strings"

	"perfbase/internal/core"
	"perfbase/internal/expr"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// execOperator runs an operator element on inputs that live on its
// placement. Per paper §3.3.2, the mode is differentiated automatically
// by the number and origin of the inputs and the operator type:
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
func (en *Engine) execOperator(spec *pbxml.OperatorElem, inputs []*Vector, placement core.Handle) (*Vector, error) {
	typ := strings.ToLower(spec.Type)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("query: operator %s has no inputs", spec.ID)
	}
	// The statistical operators are the engine's aggregates, by name.
	if _, isStat := sqldb.AggResultType(typ, value.Float); isStat {
		return en.reduce(spec, typ, inputs, placement)
	}
	switch typ {
	case "scale", "offset":
		return en.linear(spec, typ, inputs, placement)
	case "eval":
		return en.eval(spec, inputs, placement)
	case "diff", "div", "percentof", "above", "below":
		if len(inputs) != 2 {
			return nil, fmt.Errorf("query: operator %s (%s) needs exactly two inputs, got %d",
				spec.ID, typ, len(inputs))
		}
		return en.relate(spec, typ, inputs[0], inputs[1], placement)
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

func synopsisOr(c ColumnMeta) string {
	if c.Synopsis != "" {
		return c.Synopsis
	}
	return c.Name
}

// createAs is the statement building a temp table from a SELECT.
func createAs(table string, items []string, from string) string {
	return "CREATE TEMP TABLE " + table + " AS SELECT " + strings.Join(items, ", ") + " FROM " + from
}

// joinOn is the FROM clause pairing the tuples of vectors a and b that
// agree on keys; with no keys every tuple pairs with every other.
func joinOn(a, b *Vector, keys []ColumnMeta) string {
	on := "1 = 1"
	if len(keys) > 0 {
		conds := make([]string, len(keys))
		for i, k := range keys {
			conds[i] = "a." + k.Name + " = b." + k.Name
		}
		on = strings.Join(conds, " AND ")
	}
	return a.Table + " a JOIN " + b.Table + " b ON " + on
}

// reduce runs a statistical operator as one GROUP BY whose keys are the
// mode: every parameter of a vector straight from a source (data set
// aggregation; paper footnote 4: "in most cases, it makes sense to
// reduce the data from a source element via data set aggregation before
// processing it further"), none of any other single vector (the whole
// vector becomes one element), and the parameters several vectors share
// unpinned (element-wise reduction, over the union of their tuples).
func (en *Engine) reduce(spec *pbxml.OperatorElem, typ string, ins []*Vector, placement core.Handle) (*Vector, error) {
	in := ins[0]
	vals, err := targetValues(spec, in)
	if err != nil {
		return nil, err
	}
	var keys []ColumnMeta
	var steps []sqldb.PipelineRequest
	switch {
	case len(ins) > 1:
		keys = matchKeys(ins...)
		union := &Vector{DB: placement, Table: tempName(spec.ID + "_u"), Cols: append(append([]ColumnMeta{}, keys...), vals...)}
		names := strings.Join(colNames(union.Cols), ", ")
		steps = append(steps, union.create())
		for _, v := range ins {
			for _, vc := range vals {
				if _, ok := v.Col(vc.Name); !ok {
					return nil, fmt.Errorf("query: operator %s: input %s lacks value %q", spec.ID, v.Table, vc.Name)
				}
			}
			steps = append(steps, sqldb.PipelineRequest{SQL: "INSERT INTO " + union.Table + " (" + names + ") SELECT " + names + " FROM " + v.Table})
		}
		in = union
	case in.FromSource:
		keys = in.Params()
	}
	cols := append([]ColumnMeta{}, keys...)
	sel := colNames(keys)
	for _, vc := range vals {
		col, item := aggColumn(typ, vc)
		cols, sel = append(cols, col), append(sel, item)
	}
	out := &Vector{DB: placement, Table: tempName(spec.ID), Cols: cols}
	stmt := createAs(out.Table, sel, in.Table)
	if len(keys) > 0 {
		k := strings.Join(colNames(keys), ", ")
		stmt += " GROUP BY " + k + " ORDER BY " + k
	}
	steps = append(steps, sqldb.PipelineRequest{SQL: stmt})
	if in != ins[0] {
		steps = append(steps, sqldb.PipelineRequest{SQL: "DROP TABLE " + in.Table})
	}
	if err := out.build(steps...); err != nil {
		if in != ins[0] {
			DropVector(in)
		}
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

// linear applies scale (multiply) or offset (add) to the value columns.
func (en *Engine) linear(spec *pbxml.OperatorElem, typ string, ins []*Vector, placement core.Handle) (*Vector, error) {
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
	if err := out.build(sqldb.PipelineRequest{SQL: createAs(out.Table, sel, in.Table)}); err != nil {
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
func (en *Engine) eval(spec *pbxml.OperatorElem, ins []*Vector, placement core.Handle) (*Vector, error) {
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
		defer DropVector(merged)
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
	if err := out.fill(rows); err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
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
func (en *Engine) relate(spec *pbxml.OperatorElem, typ string, a, b *Vector, placement core.Handle) (*Vector, error) {
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
	stmt := createAs(out.Table, sel, joinOn(a, b, keys))
	if len(keys) > 0 {
		stmt += " ORDER BY a." + strings.Join(colNames(keys), ", a.")
	}
	if err := out.build(sqldb.PipelineRequest{SQL: stmt}); err != nil {
		return nil, fmt.Errorf("query: operator %s: %w", spec.ID, err)
	}
	return out, nil
}

// execCombiner merges two vectors (paper §3.3.3): all value columns of
// both inputs pass to the output, joined on the shared parameter
// columns (duplicate parameters are removed). Value-name collisions
// get a _2 suffix.
func (en *Engine) execCombiner(spec *pbxml.CombinerElem, inputs []*Vector, placement core.Handle) (*Vector, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("query: combiner %s needs exactly two inputs", spec.ID)
	}
	return en.combine(spec.ID, inputs[0], inputs[1], placement)
}

// combine implements the merge of two vectors on placement, shared by
// the combiner element and multi-input eval operators.
func (en *Engine) combine(id string, a, b *Vector, placement core.Handle) (*Vector, error) {
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
	if err := out.build(sqldb.PipelineRequest{SQL: createAs(out.Table, sel, joinOn(a, b, keys))}); err != nil {
		return nil, fmt.Errorf("query: combine %s: %w", id, err)
	}
	return out, nil
}
