package sqldb

import (
	"strings"

	"perfbase/internal/value"
)

// This file is the sqldb side of distributed query execution (see
// internal/shard). The shard coordinator works on parsed statements —
// routing DML by partition key, scattering SELECTs — but every AST
// type below Statement is unexported, so the inspection, rendering and
// partial-aggregate planning it needs live here, exported as plain
// functions.
//
// The centrepiece is PlanDistributedSelect: given a single-table
// SELECT, it produces per-shard partial SQL plus a merge query that
// combines the gathered partials — COUNT merges as SUM, AVG splits
// into SUM/COUNT partials and is finalized in Go with exactly the
// aggregate semantics of aggregate.go, so a merged result is
// byte-identical to running the query on one node holding all rows.
// Queries the planner declines (joins, DISTINCT, holistic aggregates
// like MEDIAN, HAVING) fall back to whole-table gather in the
// coordinator, which preserves correctness at higher cost.

// ReferencedTables returns the lower-cased tables a statement reads or
// writes.
func ReferencedTables(st Statement) []string {
	return referencedTables(st)
}

// RenderInsertRows renders a typed row batch as one INSERT statement —
// the textual form of the BulkInserter fast path, used by the shard
// coordinator to forward partitioned batches and to journal them for
// two-phase-commit redo.
func RenderInsertRows(table string, cols []string, rows []Row) string {
	return synthInsertSQL(table, cols, rows)
}

// RenderCreateTable renders a CREATE TABLE statement for a schema,
// used to rebuild gather tables on a merge database.
func RenderCreateTable(name string, schema Schema) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(name)
	sb.WriteString(" (")
	for i, c := range schema {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteString(" ")
		sb.WriteString(c.Type.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// LiteralRows evaluates an INSERT ... VALUES statement's rows, which
// must be constant expressions. It reports false when the statement
// inserts from a SELECT or any row is non-constant.
func LiteralRows(st *InsertStmt) ([]Row, bool) {
	if st.From != nil || len(st.Rows) == 0 {
		return nil, false
	}
	ec := newEvalCtx(nil)
	out := make([]Row, len(st.Rows))
	for ri, exprs := range st.Rows {
		row := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := e.eval(ec)
			if err != nil {
				return nil, false
			}
			row[i] = v
		}
		out[ri] = row
	}
	return out, true
}

// KeyEqualityLiteral walks a WHERE expression's top-level AND conjuncts
// for `col = literal` (or `literal = col`) and returns the literal.
// The shard coordinator uses it to route key-filtered statements to
// the owning shard alone.
func KeyEqualityLiteral(e sqlExpr, col string) (value.Value, bool) {
	if e == nil {
		return value.Value{}, false
	}
	b, ok := e.(*binExpr)
	if !ok {
		return value.Value{}, false
	}
	switch b.Op {
	case "and":
		if v, ok := KeyEqualityLiteral(b.L, col); ok {
			return v, true
		}
		return KeyEqualityLiteral(b.R, col)
	case "=":
		if c, ok := b.L.(*colExpr); ok && lower(c.Name) == lower(col) {
			if l, ok := b.R.(*litExpr); ok {
				return l.v, true
			}
		}
		if c, ok := b.R.(*colExpr); ok && lower(c.Name) == lower(col) {
			if l, ok := b.L.(*litExpr); ok {
				return l.v, true
			}
		}
	}
	return value.Value{}, false
}

// UpdateSetsColumn reports whether an UPDATE assigns the named column.
// Rewriting a row's partition key would require moving it between
// shards, which the coordinator rejects.
func UpdateSetsColumn(st *UpdateStmt, col string) bool {
	for _, a := range st.Set {
		if lower(a.Col) == lower(col) {
			return true
		}
	}
	return false
}

// ------------------------------------------------- expression render

// renderExpr renders an expression back to SQL, fully parenthesized.
// It reports false for node types it does not cover; callers treat
// that as "not distributable" and fall back. Table qualifiers are
// dropped: rendered expressions always run against a single table.
func renderExpr(e sqlExpr, sb *strings.Builder) bool {
	switch t := e.(type) {
	case *litExpr:
		sb.WriteString(t.v.SQL())
	case *colExpr:
		sb.WriteString(t.Name)
	case *binExpr:
		sb.WriteString("(")
		if !renderExpr(t.L, sb) {
			return false
		}
		sb.WriteString(" " + strings.ToUpper(t.Op) + " ")
		if !renderExpr(t.R, sb) {
			return false
		}
		sb.WriteString(")")
	case *unaryExpr:
		sb.WriteString("(")
		sb.WriteString(strings.ToUpper(t.Op) + " ")
		if !renderExpr(t.E, sb) {
			return false
		}
		sb.WriteString(")")
	case *isNullExpr:
		sb.WriteString("(")
		if !renderExpr(t.E, sb) {
			return false
		}
		if t.Negate {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
	case *inExpr:
		sb.WriteString("(")
		if !renderExpr(t.E, sb) {
			return false
		}
		if t.Negate {
			sb.WriteString(" NOT IN (")
		} else {
			sb.WriteString(" IN (")
		}
		for i, le := range t.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			if !renderExpr(le, sb) {
				return false
			}
		}
		sb.WriteString("))")
	case *betweenExpr:
		sb.WriteString("(")
		if !renderExpr(t.E, sb) {
			return false
		}
		if t.Negate {
			sb.WriteString(" NOT BETWEEN ")
		} else {
			sb.WriteString(" BETWEEN ")
		}
		if !renderExpr(t.Lo, sb) {
			return false
		}
		sb.WriteString(" AND ")
		if !renderExpr(t.Hi, sb) {
			return false
		}
		sb.WriteString(")")
	case *funcExpr:
		sb.WriteString(strings.ToUpper(t.Name) + "(")
		for i, a := range t.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			if !renderExpr(a, sb) {
				return false
			}
		}
		sb.WriteString(")")
	case *castExpr:
		sb.WriteString("CAST(")
		if !renderExpr(t.E, sb) {
			return false
		}
		sb.WriteString(" AS " + t.To.String() + ")")
	case *aggExpr:
		sb.WriteString(strings.ToUpper(t.Name) + "(")
		if t.Distinct {
			sb.WriteString("DISTINCT ")
		}
		if t.Star {
			sb.WriteString("*")
		} else if !renderExpr(t.Arg, sb) {
			return false
		}
		sb.WriteString(")")
	default:
		return false
	}
	return true
}

// RenderExpr renders an expression to SQL text, reporting false for
// unsupported node types.
func RenderExpr(e sqlExpr) (string, bool) {
	var sb strings.Builder
	if !renderExpr(e, &sb) {
		return "", false
	}
	return sb.String(), true
}

// ---------------------------------------------- distributed planning

// DistPlan is a scatter-gather plan for a single-table SELECT:
// PartialSQL runs on every shard, the results load into a gather table
// on a scratch database in shard-index order, and MergeSQL (plus AVG
// finalization) produces the final rows.
type DistPlan struct {
	Table       string // lower-cased source table
	PartialSQL  string
	PartialCols Schema // gather-table schema, in partial projection order
	MergeSQL    string
	// avgAt marks merged-output column indexes that are AVG sums whose
	// COUNT partner is the following column; Merge divides and drops
	// the partner.
	avgAt map[int]bool
}

const gatherTable = "_dist_part"

// mergeAgg maps a distributive aggregate to the function that combines
// its shard partials.
var mergeAgg = map[string]string{
	"count": "SUM",
	"sum":   "SUM",
	"min":   "MIN",
	"max":   "MAX",
}

// PlanDistributedSelect builds a scatter-gather plan for st over a
// table with the given schema. It reports false when the query shape
// is not distributable this way (compound selects, joins, DISTINCT,
// holistic aggregates, HAVING, subqueries, non-column aggregate
// arguments …); the caller then falls back to whole-table gather. The plan preserves the exact
// aggregate semantics of a single node: COUNT partials merge by SUM,
// SUM/MIN/MAX merge by themselves (NULL partials from empty shards are
// skipped, matching empty-input semantics), and AVG travels as a
// SUM/COUNT pair finalized in Go as sum/float64(count) — the same
// float division aggregate.go performs, though over an integer column
// the pair's SUM is the wrapping integer where a single node sums
// floats, so the two can part past 2^53 (DESIGN.md §11).
func PlanDistributedSelect(st *SelectStmt, schema Schema) (*DistPlan, bool) {
	if len(st.Union) > 0 || len(st.From) != 1 || len(st.Joins) > 0 || st.Distinct || st.Having != nil {
		return nil, false
	}
	table := lower(st.From[0].Table)
	hasAgg := false
	for _, it := range st.Items {
		if it.Star {
			continue
		}
		var aggs []*aggExpr
		collectAggs(it.E, &aggs)
		if len(aggs) > 0 {
			hasAgg = true
		}
	}
	if !hasAgg && len(st.GroupBy) == 0 {
		return planSimpleSelect(st, table, schema)
	}
	return planAggSelect(st, table, schema)
}

// outName computes the engine's output column name for a projection
// item before duplicate-suffix rewriting (projectionSchema applies the
// same `_N` dedup to the merge query, so pre-dedup names reproduce the
// single-node schema exactly).
func outName(it selectItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ce, ok := it.E.(*colExpr); ok {
		return ce.Name
	}
	if ae, ok := it.E.(*aggExpr); ok {
		return ae.Name
	}
	return "col" + itoa(idx+1)
}

// planSimpleSelect distributes a projection-only SELECT: each shard
// filters and projects its rows; the merge re-sorts and applies
// LIMIT/OFFSET. A LIMIT pushes down as ORDER BY ... LIMIT offset+limit
// per shard (distributed top-k: the global top k is contained in the
// union of per-shard top k).
func planSimpleSelect(st *SelectStmt, table string, schema Schema) (*DistPlan, bool) {
	if st.Limit >= 0 && len(st.OrderBy) == 0 {
		// LIMIT without a total order depends on physical row order,
		// which sharding does not preserve.
		return nil, false
	}
	var items []string
	var gather Schema
	if len(st.Items) == 1 && st.Items[0].Star && st.Items[0].Table == "" {
		items = append(items, "*")
		for _, c := range schema {
			gather = append(gather, Column{Name: c.Name, Type: c.Type})
		}
	} else {
		ec := newEvalCtx(schema)
		for i, it := range st.Items {
			if it.Star {
				return nil, false
			}
			txt, ok := RenderExpr(it.E)
			if !ok {
				return nil, false
			}
			name := outName(it, i)
			items = append(items, txt+" AS "+name)
			gather = append(gather, Column{Name: name, Type: exprType(it.E, ec)})
		}
	}
	seen := map[string]bool{}
	for _, c := range gather {
		if seen[lower(c.Name)] {
			return nil, false // duplicate output names cannot form a gather table
		}
		seen[lower(c.Name)] = true
	}
	// ORDER BY keys must be gather columns so the merge can re-sort.
	var orderBy []string
	for _, oi := range st.OrderBy {
		ce, ok := oi.E.(*colExpr)
		if !ok || !seen[lower(ce.Name)] {
			return nil, false
		}
		dir := ""
		if oi.Desc {
			dir = " DESC"
		}
		orderBy = append(orderBy, ce.Name+dir)
	}
	var part strings.Builder
	part.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + table)
	if st.Where != nil {
		w, ok := RenderExpr(st.Where)
		if !ok {
			return nil, false
		}
		part.WriteString(" WHERE " + w)
	}
	if st.Limit >= 0 {
		part.WriteString(" ORDER BY " + strings.Join(orderBy, ", "))
		part.WriteString(" LIMIT " + itoa(st.Limit+st.Offset))
	}

	var merge strings.Builder
	merge.WriteString("SELECT * FROM " + gatherTable)
	if len(orderBy) > 0 {
		merge.WriteString(" ORDER BY " + strings.Join(orderBy, ", "))
	}
	if st.Limit >= 0 {
		merge.WriteString(" LIMIT " + itoa(st.Limit))
	}
	if st.Offset > 0 {
		merge.WriteString(" OFFSET " + itoa(st.Offset))
	}
	return &DistPlan{
		Table:       table,
		PartialSQL:  part.String(),
		PartialCols: gather,
		MergeSQL:    merge.String(),
	}, true
}

// planAggSelect distributes a grouped/aggregated SELECT.
func planAggSelect(st *SelectStmt, table string, schema Schema) (*DistPlan, bool) {
	colType := func(name string) (value.Type, bool) {
		for _, c := range schema {
			if lower(c.Name) == lower(name) {
				return c.Type, true
			}
		}
		return 0, false
	}

	// Group-by keys must be plain column references.
	type gkey struct {
		col   string
		gname string // gather/merge column name ("" until bound to an item)
	}
	gkeys := make([]gkey, len(st.GroupBy))
	for i, ge := range st.GroupBy {
		ce, ok := ge.(*colExpr)
		if !ok {
			return nil, false
		}
		gkeys[i] = gkey{col: ce.Name}
	}
	findGKey := func(name string) int {
		for i := range gkeys {
			if lower(gkeys[i].col) == lower(name) {
				return i
			}
		}
		return -1
	}

	var partItems []string
	var gather Schema
	var mergeItems []string
	avgAt := map[int]bool{}
	nagg := 0
	// itemMergeExpr maps projection item index → the item's output
	// name in the merge query (for ORDER BY rewriting: the engine
	// binds ORDER BY keys against the output schema, so the merge
	// ORDER BY references names, never re-spelled aggregates). AVG
	// items stay "" — their merge output is the raw SUM, which would
	// order wrongly.
	itemMergeExpr := make([]string, len(st.Items))
	mergeOut := 0

	for i, it := range st.Items {
		if it.Star {
			return nil, false
		}
		name := outName(it, i)
		if ce, ok := it.E.(*colExpr); ok {
			gi := findGKey(ce.Name)
			if gi < 0 {
				return nil, false // bare column outside GROUP BY
			}
			typ, ok := colType(ce.Name)
			if !ok {
				return nil, false
			}
			partItems = append(partItems, ce.Name+" AS "+name)
			gather = append(gather, Column{Name: name, Type: typ})
			mergeItems = append(mergeItems, name)
			gkeys[gi].gname = name
			itemMergeExpr[i] = name
			mergeOut++
			continue
		}
		ae, ok := it.E.(*aggExpr)
		if !ok || ae.Distinct {
			return nil, false
		}
		var argType value.Type
		var argSQL string
		if ae.Star {
			if ae.Name != "count" {
				return nil, false
			}
		} else {
			ce, ok := ae.Arg.(*colExpr)
			if !ok {
				return nil, false
			}
			argType, ok = colType(ce.Name)
			if !ok {
				return nil, false
			}
			argSQL = ce.Name
		}
		pcol := "_a" + itoa(nagg)
		nagg++
		switch ae.Name {
		case "count":
			arg := "*"
			if !ae.Star {
				arg = argSQL
			}
			partItems = append(partItems, "COUNT("+arg+") AS "+pcol)
			gather = append(gather, Column{Name: pcol, Type: value.Integer})
			mergeItems = append(mergeItems, "SUM("+pcol+") AS "+name)
			itemMergeExpr[i] = name
			mergeOut++
		case "sum", "min", "max":
			typ := argType
			if ae.Name == "sum" && typ != value.Integer {
				typ = value.Float
			}
			partItems = append(partItems, strings.ToUpper(ae.Name)+"("+argSQL+") AS "+pcol)
			gather = append(gather, Column{Name: pcol, Type: typ})
			m := mergeAgg[ae.Name]
			mergeItems = append(mergeItems, m+"("+pcol+") AS "+name)
			itemMergeExpr[i] = name
			mergeOut++
		case "avg":
			styp := value.Float
			if argType == value.Integer {
				styp = value.Integer
			}
			partItems = append(partItems,
				"SUM("+argSQL+") AS "+pcol+"s",
				"COUNT("+argSQL+") AS "+pcol+"c")
			gather = append(gather,
				Column{Name: pcol + "s", Type: styp},
				Column{Name: pcol + "c", Type: value.Integer})
			mergeItems = append(mergeItems,
				"SUM("+pcol+"s) AS "+name,
				"SUM("+pcol+"c) AS "+pcol+"c")
			avgAt[mergeOut] = true
			itemMergeExpr[i] = "" // AVG cannot be referenced post-merge
			mergeOut += 2
		default:
			return nil, false // holistic aggregates do not decompose
		}
	}

	// Group keys not bound to any projection item still need to travel.
	for i := range gkeys {
		if gkeys[i].gname != "" {
			continue
		}
		typ, ok := colType(gkeys[i].col)
		if !ok {
			return nil, false
		}
		g := "_g" + itoa(i)
		partItems = append(partItems, gkeys[i].col+" AS "+g)
		gather = append(gather, Column{Name: g, Type: typ})
		gkeys[i].gname = g
	}

	// ORDER BY: group-key columns, item aliases, or aggregates that
	// structurally match a projected (non-AVG) aggregate.
	gkPairs := make([][2]string, len(gkeys))
	for i := range gkeys {
		gkPairs[i] = [2]string{gkeys[i].col, gkeys[i].gname}
	}
	var orderBy []string
	for _, oi := range st.OrderBy {
		txt, ok := renderMergeOrderKey(oi.E, st.Items, itemMergeExpr, gkPairs)
		if !ok {
			return nil, false
		}
		if oi.Desc {
			txt += " DESC"
		}
		orderBy = append(orderBy, txt)
	}

	var part strings.Builder
	part.WriteString("SELECT " + strings.Join(partItems, ", ") + " FROM " + table)
	if st.Where != nil {
		w, ok := RenderExpr(st.Where)
		if !ok {
			return nil, false
		}
		part.WriteString(" WHERE " + w)
	}
	if len(gkeys) > 0 {
		var gs []string
		for i := range gkeys {
			gs = append(gs, gkeys[i].col)
		}
		part.WriteString(" GROUP BY " + strings.Join(gs, ", "))
	}

	var merge strings.Builder
	merge.WriteString("SELECT " + strings.Join(mergeItems, ", ") + " FROM " + gatherTable)
	if len(gkeys) > 0 {
		var gs []string
		for i := range gkeys {
			gs = append(gs, gkeys[i].gname)
		}
		merge.WriteString(" GROUP BY " + strings.Join(gs, ", "))
	}
	if len(orderBy) > 0 {
		merge.WriteString(" ORDER BY " + strings.Join(orderBy, ", "))
	}
	if st.Limit >= 0 {
		merge.WriteString(" LIMIT " + itoa(st.Limit))
	}
	if st.Offset > 0 {
		merge.WriteString(" OFFSET " + itoa(st.Offset))
	}
	return &DistPlan{
		Table:       table,
		PartialSQL:  part.String(),
		PartialCols: gather,
		MergeSQL:    merge.String(),
		avgAt:       avgAt,
	}, true
}

// renderMergeOrderKey rewrites one ORDER BY key against the merge
// query: a column reference resolves to a group key's gather column or
// an item alias; an aggregate resolves to its merged form when it
// structurally matches a projected aggregate.
func renderMergeOrderKey(e sqlExpr, items []selectItem, itemMergeExpr []string, gkeys [][2]string) (string, bool) {
	if ce, ok := e.(*colExpr); ok {
		for _, g := range gkeys {
			if lower(g[0]) == lower(ce.Name) && g[1] != "" {
				return g[1], true
			}
		}
		for i, it := range items {
			if it.Alias != "" && lower(it.Alias) == lower(ce.Name) && itemMergeExpr[i] != "" {
				return itemMergeExpr[i], true
			}
		}
		return "", false
	}
	if _, ok := e.(*aggExpr); ok {
		want, ok := RenderExpr(e)
		if !ok {
			return "", false
		}
		for i, it := range items {
			if it.Star || itemMergeExpr[i] == "" {
				continue
			}
			got, ok := RenderExpr(it.E)
			if ok && got == want {
				return itemMergeExpr[i], true
			}
		}
	}
	return "", false
}

// Merge combines gathered shard partials into the final result. The
// partials must be supplied in shard-index order — that (plus the
// order-insensitive merge aggregates) is what makes distributed
// results deterministic at any shard count.
func (p *DistPlan) Merge(partials []*Result) (*Result, error) {
	mdb := NewMemory()
	if _, err := mdb.Exec(RenderCreateTable(gatherTable, p.PartialCols)); err != nil {
		return nil, err
	}
	cols := make([]string, len(p.PartialCols))
	for i, c := range p.PartialCols {
		cols[i] = c.Name
	}
	for _, r := range partials {
		if r == nil {
			continue
		}
		if len(r.Rows) > 0 {
			if _, err := mdb.InsertRows(gatherTable, cols, r.Rows); err != nil {
				return nil, err
			}
		}
	}
	res, err := mdb.Exec(p.MergeSQL)
	if err != nil {
		return nil, err
	}
	if len(p.avgAt) == 0 {
		return res, nil
	}
	return p.finalizeAvg(res)
}

// finalizeAvg turns each AVG's merged (sum, count) column pair into
// the final average column: NewFloat(sum/count), NULL for an empty
// input — aggregate.go's opAvg division.
func (p *DistPlan) finalizeAvg(res *Result) (*Result, error) {
	var keep []int
	for i := 0; i < len(res.Columns); i++ {
		keep = append(keep, i)
		if p.avgAt[i] {
			i++ // skip the count partner
		}
	}
	out := &Result{Affected: res.Affected}
	for _, i := range keep {
		c := res.Columns[i]
		if p.avgAt[i] {
			c.Type = value.Float
		}
		out.Columns = append(out.Columns, c)
	}
	for _, row := range res.Rows {
		nr := make(Row, 0, len(keep))
		for _, i := range keep {
			if !p.avgAt[i] {
				nr = append(nr, row[i])
				continue
			}
			sum, cnt := row[i], row[i+1]
			if cnt.IsNull() || cnt.Int() == 0 || sum.IsNull() {
				nr = append(nr, value.Null(value.Float))
			} else {
				nr = append(nr, value.NewFloat(sum.Float()/float64(cnt.Int())))
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}
