package sqldb

import (
	"cmp"
	"fmt"
	"slices"

	"perfbase/internal/value"
)

// This file holds the row back end of the expression compiler
// (expr.go) and the planner of a SELECT. The row back end lowers a
// typed expression to closures over one row: column references are row
// offsets already, operators dispatch once at compile time, a constant
// LIKE pattern is a compiled regexp, and the hottest shape — a column
// against a literal — compares the row slot in place. The closures are
// immutable and safe for concurrent executions; all per-execution state
// lives in execCtx.

// execCtx is the per-execution mutable state a compiled expression
// reads: the current row and, after grouping, the aggregate results.
type execCtx struct {
	row  Row
	aggs map[*aggExpr]value.Value
}

// compiledExpr evaluates an expression against the row in ctx with all
// name resolution already done.
type compiledExpr func(ctx *execCtx) (value.Value, error)

// errExpr defers a compile-time failure (an unresolved reference) to
// evaluation time: a bad reference in a filter over zero rows is never
// reported.
func errExpr(err error) compiledExpr {
	return func(*execCtx) (value.Value, error) { return value.Value{}, err }
}

// compile types e against ec's schema and lowers it to the row back end.
func (ec *evalCtx) compile(e sqlExpr) compiledExpr { return rowExpr(ec.typed(e)) }

// rowExpr lowers n to the row back end.
func rowExpr(n *texpr) compiledExpr {
	switch n.kind {
	case tLit:
		v := n.v
		return func(*execCtx) (value.Value, error) { return v, nil }
	case tCol:
		i := n.col
		return func(ctx *execCtx) (value.Value, error) { return ctx.row[i], nil }
	case tErr:
		return errExpr(n.err)
	case tBin:
		return rowBin(n)
	case tIn:
		sub := rowExpr(n.l)
		list := make([]compiledExpr, len(n.list))
		for i, item := range n.list {
			list[i] = rowExpr(item)
		}
		negate := n.negate
		return func(ctx *execCtx) (value.Value, error) {
			v, err := sub(ctx)
			if err != nil {
				return value.Value{}, err
			}
			if v.IsNull() {
				return nullBoolV, nil
			}
			// No match beside a NULL item is NULL: the item might have
			// matched.
			sawNull := false
			for _, item := range list {
				iv, err := item(ctx)
				if err != nil {
					return value.Value{}, err
				}
				if iv.IsNull() {
					sawNull = true
				} else if value.Equal(v, iv) {
					return value.NewBool(!negate), nil
				}
			}
			if sawNull {
				return nullBoolV, nil
			}
			return value.NewBool(negate), nil
		}
	case tBetween:
		sub, lo, hi := rowExpr(n.l), rowExpr(n.r), rowExpr(n.x)
		negate := n.negate
		return func(ctx *execCtx) (value.Value, error) {
			v, err := sub(ctx)
			if err != nil {
				return value.Value{}, err
			}
			lv, err := lo(ctx)
			if err != nil {
				return value.Value{}, err
			}
			hv, err := hi(ctx)
			if err != nil {
				return value.Value{}, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return nullBoolV, nil
			}
			in := value.Compare(v, lv) >= 0 && value.Compare(v, hv) <= 0
			return value.NewBool(in != negate), nil
		}
	case tFunc:
		args := make([]compiledExpr, len(n.list))
		for i, a := range n.list {
			args[i] = rowExpr(a)
		}
		name := n.op
		if name == "if" && len(args) == 3 {
			return rowIf(args[0], args[1], args[2])
		}
		return func(ctx *execCtx) (value.Value, error) {
			buf := make([]value.Value, len(args))
			for i, a := range args {
				v, err := a(ctx)
				if err != nil {
					return value.Value{}, err
				}
				buf[i] = v
			}
			return applyFunc(name, buf)
		}
	case tAgg:
		a := n.agg
		return func(ctx *execCtx) (value.Value, error) {
			if ctx.aggs == nil {
				return value.Value{}, errorf("aggregate %s used outside grouped query", a.Name)
			}
			v, ok := ctx.aggs[a]
			if !ok {
				return value.Value{}, errorf("internal: aggregate %s not computed", a.Name)
			}
			return v, nil
		}
	}
	// One operand: -, NOT, IS [NOT] NULL, CAST.
	sub, kind, negate, to := rowExpr(n.l), n.kind, n.negate, n.typ
	return func(ctx *execCtx) (value.Value, error) {
		v, err := sub(ctx)
		switch {
		case err != nil:
			return value.Value{}, err
		case kind == tNeg:
			return value.Neg(v)
		case kind == tIsNull:
			return value.NewBool(v.IsNull() != negate), nil
		case kind == tCast:
			return v.Convert(to)
		case v.IsNull():
			return v, nil
		case v.Type() != value.Boolean:
			return value.Value{}, errorf("NOT applied to %s", v.Type())
		}
		return value.NewBool(!v.Bool()), nil
	}
}

// rowBin lowers a binary operator.
func rowBin(n *texpr) compiledExpr {
	if col, lit, ok, is := n.cmpColLit(); is {
		return colLitFn(col, lit, ok, nullBoolV, boolTrueV, boolFalseV)
	}
	l, r := rowExpr(n.l), rowExpr(n.r)
	switch n.op {
	case "and", "or":
		return rowLogic(l, r, n.op)
	case "+":
		return rowArith(l, r, value.Add)
	case "-":
		return rowArith(l, r, value.Sub)
	case "*":
		return rowArith(l, r, value.Mul)
	case "/":
		return rowArith(l, r, value.Div)
	case "%":
		return rowArith(l, r, value.Mod)
	case "||":
		return rowArith(l, r, func(lv, rv value.Value) (value.Value, error) {
			ls, err := lv.Convert(value.String)
			if err != nil {
				return value.Value{}, err
			}
			rs, err := rv.Convert(value.String)
			if err != nil {
				return value.Value{}, err
			}
			return value.Add(ls, rs)
		})
	case "like":
		// A constant pattern (the overwhelmingly common case) compiles
		// its regexp once here instead of consulting the pattern cache
		// per row.
		if n.r.kind == tLit && !n.r.v.IsNull() {
			re, err := likePattern(n.r.v.Str())
			if err != nil {
				return errExpr(err)
			}
			return func(ctx *execCtx) (value.Value, error) {
				lv, err := l(ctx)
				if err != nil {
					return value.Value{}, err
				}
				if lv.IsNull() {
					return nullBoolV, nil
				}
				s, err := lv.Convert(value.String)
				if err != nil {
					return value.Value{}, err
				}
				return value.NewBool(re.MatchString(s.Str())), nil
			}
		}
		return rowArith(l, r, evalLike)
	}
	ok := cmpOps[n.op]
	return rowArith(l, r, func(lv, rv value.Value) (value.Value, error) {
		if lv.IsNull() || rv.IsNull() {
			return nullBoolV, nil
		}
		return value.NewBool(ok[value.ComparePtr(&lv, &rv)+1]), nil
	})
}

// rowIf lowers IF(c, a, b) to evaluate only the argument c picks
// (applyFunc's IF, made lazy).
func rowIf(c, a, b compiledExpr) compiledExpr {
	return func(ctx *execCtx) (value.Value, error) {
		cv, err := c(ctx)
		if err != nil {
			return value.Value{}, err
		}
		yes, err := ifTrue(cv)
		switch {
		case err != nil:
			return value.Value{}, err
		case yes:
			return a(ctx)
		}
		return b(ctx)
	}
}

// rowLogic lowers AND and OR. An operand that is neither NULL nor a
// Boolean is an error, as under NOT; a NULL counts as not true, so
// neither operator yields NULL (vecLogic relies on it). The right operand
// is not evaluated when the left one decides.
func rowLogic(l, r compiledExpr, op string) compiledExpr {
	and, name := op == "and", "OR"
	if and {
		name = "AND"
	}
	return func(ctx *execCtx) (value.Value, error) {
		lv, err := logicOperand(name, l, ctx)
		switch {
		case err != nil:
			return value.Value{}, err
		case and && boolFalse(lv):
			return boolFalseV, nil
		case !and && boolTrue(lv):
			return boolTrueV, nil
		}
		rv, err := logicOperand(name, r, ctx)
		if err != nil {
			return value.Value{}, err
		}
		// The left operand is TRUE or NULL under AND, FALSE or NULL under OR.
		if boolTrue(rv) && (boolTrue(lv) || !and) {
			return boolTrueV, nil
		}
		return boolFalseV, nil
	}
}

// logicOperand evaluates an operand of the logical operator name.
func logicOperand(name string, e compiledExpr, ctx *execCtx) (value.Value, error) {
	v, err := e(ctx)
	if err == nil && !v.IsNull() && v.Type() != value.Boolean {
		err = errorf("%s applied to %s", name, v.Type())
	}
	return v, err
}

func rowArith(l, r compiledExpr, op func(a, b value.Value) (value.Value, error)) compiledExpr {
	return func(ctx *execCtx) (value.Value, error) {
		lv, err := l(ctx)
		if err != nil {
			return value.Value{}, err
		}
		rv, err := r(ctx)
		if err != nil {
			return value.Value{}, err
		}
		return op(lv, rv)
	}
}

// Shared result values for the comparison hot path: returning a
// prebuilt Value skips per-row construction work.
var (
	boolTrueV  = value.NewBool(true)
	boolFalseV = value.NewBool(false)
	nullBoolV  = value.Null(value.Boolean)
)

// colLitFn compares a row's column with a literal in place, the shape of
// nearly every filter, and answers null, yes or no: boxed Values for the
// row back end, plain booleans for rowFilter. The literal is unpacked
// once; a Float against a number that is a Float exactly, and an
// Integer against an Integer, compare without a call.
func colLitFn[R any](col int, lit value.Value, ok [3]bool, null, yes, no R) func(*execCtx) (R, error) {
	if lit.IsNull() {
		return func(*execCtx) (R, error) { return null, nil }
	}
	isInt, litI, litF := lit.Type() == value.Integer, lit.Int(), lit.Float()
	exactF := lit.Type().Numeric() && !inexactFloat(lit)
	return func(ctx *execCtx) (R, error) {
		c := &ctx.row[col]
		if c.IsNull() {
			return null, nil
		}
		var cv int
		switch t := c.Type(); {
		case isInt && t == value.Integer:
			cv = cmp.Compare(c.Int(), litI)
		case exactF && t == value.Float:
			cv = cmp.Compare(c.Float(), litF)
		default:
			cv = value.ComparePtr(c, &lit)
		}
		if ok[cv+1] {
			return yes, nil
		}
		return no, nil
	}
}

// rowFilter lowers a WHERE clause: a row passes when the clause is true,
// false and NULL alike reject it. A column-vs-literal comparison answers
// unboxed.
func rowFilter(n *texpr) func(*execCtx) (bool, error) {
	if col, lit, ok, is := n.cmpColLit(); is {
		return colLitFn(col, lit, ok, false, true, false)
	}
	e := rowExpr(n)
	return func(ctx *execCtx) (bool, error) {
		v, err := e(ctx)
		return err == nil && boolTrue(v), err
	}
}

// ------------------------------------------------------ select plans

// compiledSelect is the compiled form of one SELECT: every expression
// lowered against the source schema, projection layout resolved. A
// plan depends only on the schemas of the referenced tables, so the
// plan cache can reuse it until a DDL bumps a table version. It holds
// no per-execution state and is safe for concurrent runs.
type compiledSelect struct {
	srcSchema Schema
	where     func(*execCtx) (bool, error) // rowFilter of the WHERE clause; nil when there is none

	// Grouped plans (GROUP BY or any aggregate) run through a groupTable
	// — see aggregate.go, which reads the fields below.
	grouped bool
	aggs    []aggSpec
	groupBy []compiledExpr
	having  compiledExpr // nil when no HAVING clause
	// keyCols holds, per GROUP BY item, the source column it names, or -1
	// for an expression. A group table keys a column by its datum and an
	// expression by its value's value.AppendKey bytes; only addRow, which
	// evaluates groupBy, groups under an expression.
	keyCols []int

	outSchema Schema
	// items and srcCols are aligned with st.Items. An item that copies
	// source columns — a star, or a bare reference to one column — has
	// them in srcCols and a computed one its evaluator in items; an item
	// that is a bare literal has neither — projection reads its value from
	// the statement being run, so that branches of a compound that differ
	// in such constants can share this plan (planSelect).
	items   []compiledExpr
	srcCols [][]int

	orderOut []compiledExpr // ORDER BY keys against the output schema
	orderSrc []compiledExpr // ORDER BY keys against the source schema

	// vec is the vectorized form of this plan when the statement shape
	// qualifies (see planVec in vector.go); nil means the row engine
	// runs the scan. Cached and invalidated together with the plan.
	vec *vecPlan

	// vecJoin is the vectorized form of a single equi-join (see
	// planVecJoin in vecjoin.go); nil means the row engine joins.
	// Mutually exclusive with vec, which declines joined sources.
	vecJoin *vecJoinPlan

	// union, for a compound select, holds the plan of every branch in
	// order — consecutive branches of one shape share theirs, see
	// planSelect; outSchema is then the reconciled schema and no other
	// field is set.
	union []*compiledSelect
}

// planSelect compiles st against the snapshot's catalog. Snapshots
// are immutable, so no locking is involved. A compound select compiles
// to one plan per branch under a plan that carries only the reconciled
// output schema: column names come from the first branch, integer and
// float reconcile to float, a bare NULL literal takes the type of the
// other branches, and any other disagreement is an ErrCompound.
//
// A branch that is the same statement as the one the previous plan was
// compiled from, read off another table with the same columns, runs on
// that plan (sameShape, scanCols; DESIGN.md "Compound select"). A plan
// therefore holds nothing of its table but the columns: the table and
// the literals a branch projects are read from its statement when it
// runs. Nothing outlives the statement.
func (sn *snapshot) planSelect(st *SelectStmt) (*compiledSelect, error) {
	if len(st.Union) == 0 {
		return sn.planBranch(st)
	}
	u := &compiledSelect{union: make([]*compiledSelect, len(st.Union))}
	var untyped []bool   // output columns every branch so far gave as NULL
	var lead *SelectStmt // the branch u.union[bi-1] was compiled from
	var leadCols Schema  // and the columns of the table it scans
	for bi, b := range st.Union {
		var bp *compiledSelect
		cols := sn.scanCols(b)
		if cols != nil && slices.Equal(cols, leadCols) && sameShape(lead, b) {
			bp = u.union[bi-1]
		} else {
			var err error
			if bp, err = sn.planBranch(b); err != nil {
				return nil, err
			}
			lead, leadCols = b, cols
		}
		u.union[bi] = bp
		if bi == 0 {
			u.outSchema = bp.outSchema.clone()
			untyped = make([]bool, len(u.outSchema))
			for ci := range untyped {
				untyped[ci] = nullLiteralCol(b, bp, ci)
			}
			continue
		}
		if len(bp.outSchema) != len(u.outSchema) {
			return nil, fmt.Errorf("%w: branch %d has %d columns, branch 1 has %d",
				ErrCompound, bi+1, len(bp.outSchema), len(u.outSchema))
		}
		for ci := range u.outSchema {
			have, got := u.outSchema[ci].Type, bp.outSchema[ci].Type
			switch {
			case have == got && !untyped[ci]:
			case nullLiteralCol(b, bp, ci):
			case untyped[ci]:
				u.outSchema[ci].Type, untyped[ci] = got, false
			case have.Numeric() && got.Numeric():
				u.outSchema[ci].Type = value.Float
			default:
				return nil, fmt.Errorf("%w: column %d is %s in branch 1 and %s in branch %d",
					ErrCompound, ci+1, have, got, bi+1)
			}
		}
	}
	return u, nil
}

// scanCols returns the columns of the table b reads if a scan of that
// table is all its FROM clause can mean — one table, no index to probe —
// and nil otherwise.
func (sn *snapshot) scanCols(b *SelectStmt) Schema {
	if len(b.From) == 1 && len(b.Joins) == 0 {
		if t, ok := sn.table(b.From[0].Table); ok && !t.indexed() {
			return t.schema
		}
	}
	return nil
}

// sameShape reports whether two plain SELECTs are the same statement but
// for the table they read — one, under its own name — and the values of
// the literals they project, whose types agree. The comparison is over
// the syntax trees: spelling the parser does not normalise tells two
// statements apart, which only costs the second its own plan.
func sameShape(a, b *SelectStmt) bool {
	// ORDER BY is there for completeness: a compound's branch has none.
	return len(a.From) == 1 && len(b.From) == 1 && a.From[0].Alias == "" && b.From[0].Alias == "" &&
		len(a.Joins) == 0 && len(b.Joins) == 0 && len(a.OrderBy) == 0 && len(b.OrderBy) == 0 &&
		a.Distinct == b.Distinct && a.Partial == b.Partial && a.Limit == b.Limit && a.Offset == b.Offset &&
		slices.EqualFunc(a.Items, b.Items, sameItem) && slices.EqualFunc(a.GroupBy, b.GroupBy, sameExpr) &&
		sameExpr(a.Where, b.Where) && sameExpr(a.Having, b.Having)
}

func sameItem(a, b selectItem) bool {
	if a.Star != b.Star || a.Table != "" || b.Table != "" || a.Alias != b.Alias {
		return false
	}
	la, aLit := a.E.(*litExpr)
	lb, bLit := b.E.(*litExpr)
	if aLit && bLit {
		return la.v.Type() == lb.v.Type() && la.v.IsNull() == lb.v.IsNull()
	}
	return sameExpr(a.E, b.E)
}

// sameExpr reports whether two expressions are the same tree: same
// operators, same unqualified column names, same literal values. A
// table-qualified column equals nothing, not even itself — under another
// branch's table it would name a different column or none.
func sameExpr(a, b sqlExpr) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *litExpr:
		y, ok := b.(*litExpr)
		return ok && x.v == y.v
	case *colExpr:
		y, ok := b.(*colExpr)
		return ok && x.Table == "" && y.Table == "" && x.Name == y.Name
	case *binExpr:
		y, ok := b.(*binExpr)
		return ok && x.Op == y.Op && sameExpr(x.L, y.L) && sameExpr(x.R, y.R)
	case *unaryExpr:
		y, ok := b.(*unaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.E, y.E)
	case *isNullExpr:
		y, ok := b.(*isNullExpr)
		return ok && x.Negate == y.Negate && sameExpr(x.E, y.E)
	case *inExpr:
		y, ok := b.(*inExpr)
		return ok && x.Negate == y.Negate && sameExpr(x.E, y.E) && slices.EqualFunc(x.List, y.List, sameExpr)
	case *betweenExpr:
		y, ok := b.(*betweenExpr)
		return ok && x.Negate == y.Negate && sameExpr(x.E, y.E) && sameExpr(x.Lo, y.Lo) && sameExpr(x.Hi, y.Hi)
	case *funcExpr:
		y, ok := b.(*funcExpr)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Args, y.Args, sameExpr)
	case *aggExpr:
		y, ok := b.(*aggExpr)
		return ok && x.Name == y.Name && x.Star == y.Star && x.Distinct == y.Distinct && sameExpr(x.Arg, y.Arg)
	case *castExpr:
		y, ok := b.(*castExpr)
		return ok && x.To == y.To && sameExpr(x.E, y.E)
	}
	return false
}

// nullLiteralCol reports whether output column ci of a branch is a
// bare NULL literal, which has no type of its own.
func nullLiteralCol(st *SelectStmt, p *compiledSelect, ci int) bool {
	for i, it := range st.Items {
		if n := len(p.srcCols[i]); it.Star {
			if ci < n {
				return false
			}
			ci -= n
			continue
		}
		if ci == 0 {
			lit, ok := it.E.(*litExpr)
			return ok && lit.v.IsNull()
		}
		ci--
	}
	return false
}

// planBranch compiles one plain SELECT: compileBranch over the source
// schema the snapshot's catalog gives, then the vectorized planners,
// which need the snapshot's tables.
func (sn *snapshot) planBranch(st *SelectStmt) (*compiledSelect, error) {
	src, err := sn.selectSourceSchema(st)
	if err != nil {
		return nil, err
	}
	ec := newEvalCtx(src)
	defer ec.free()
	p, where, err := compileBranch(st, ec)
	if err != nil {
		return nil, err
	}
	p.vec = sn.planVec(st, p, where)
	p.vecJoin = sn.planVecJoin(st, p, where)
	return p, nil
}

// compileBranch is the part of planning that needs no snapshot: an
// evaluation context over the source schema in, plan out. A shard
// coordinator, which holds schemas and no tables, plans a distributed
// SELECT with it (distrib.go). The one context types every expression
// and the projection; the typed WHERE clause is returned for the
// vectorized planners, and lives as long as the context.
func compileBranch(st *SelectStmt, ec *evalCtx) (*compiledSelect, *texpr, error) {
	src := ec.schema
	p := &compiledSelect{srcSchema: src}
	var where *texpr
	if st.Where != nil {
		where = ec.typed(st.Where)
		p.where = rowFilter(where)
	}
	var aggs []*aggExpr
	for _, it := range st.Items {
		if it.E != nil {
			collectAggs(it.E, &aggs)
		}
	}
	if st.Having != nil {
		collectAggs(st.Having, &aggs)
	}
	if len(aggs) > 0 || len(st.GroupBy) > 0 {
		// A grouped statement may order by an aggregate it does not
		// project; an ungrouped one is not made grouped by its ORDER BY.
		for _, ob := range st.OrderBy {
			collectAggs(ob.E, &aggs)
		}
	}
	for _, a := range aggs {
		p.aggs = append(p.aggs, newAggSpec(a, ec))
	}
	p.grouped = len(st.GroupBy) > 0 || len(p.aggs) > 0
	for _, g := range st.GroupBy {
		n := ec.typed(g)
		p.groupBy = append(p.groupBy, rowExpr(n))
		ci := -1
		if n.kind == tCol {
			ci = n.col
		}
		p.keyCols = append(p.keyCols, ci)
	}
	if st.Having != nil {
		p.having = ec.compile(st.Having)
	}
	var err error
	p.outSchema, p.srcCols, p.items, err = projectionSchema(st, ec)
	if err != nil {
		return nil, nil, err
	}
	if len(st.OrderBy) > 0 {
		oec := newEvalCtx(p.outSchema)
		defer oec.free()
		for _, ob := range st.OrderBy {
			p.orderOut = append(p.orderOut, oec.compile(ob.E))
			p.orderSrc = append(p.orderSrc, ec.compile(ob.E))
		}
	}
	return p, where, nil
}

// selectSourceSchema derives the schema a SELECT's expressions resolve
// against — the concatenation of all FROM and JOIN table schemas with
// alias qualification — without touching any rows.
func (sn *snapshot) selectSourceSchema(st *SelectStmt) (Schema, error) {
	if len(st.From) == 0 {
		return nil, nil
	}
	var src Schema
	for _, fi := range st.From {
		s, err := sn.scanSchema(fi)
		if err != nil {
			return nil, err
		}
		src = append(src, s...)
	}
	for _, jc := range st.Joins {
		s, err := sn.scanSchema(jc.Right)
		if err != nil {
			return nil, err
		}
		src = append(src, s...)
	}
	return src, nil
}

// keep applies the WHERE clause to the row in ctx.
func (p *compiledSelect) keep(ctx *execCtx) (bool, error) {
	if p.where == nil {
		return true, nil
	}
	return p.where(ctx)
}

// projectRow materializes one output row of st, the statement p is
// running for, for the group or row whose state is in ctx (rep is the
// representative source row stars copy from).
func (p *compiledSelect) projectRow(st *SelectStmt, ctx *execCtx, rep Row) (Row, error) {
	row := make(Row, 0, len(p.outSchema))
	for i, item := range p.items {
		switch {
		case item != nil:
			v, err := item(ctx)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		case p.srcCols[i] != nil:
			for _, ci := range p.srcCols[i] {
				row = append(row, rep[ci])
			}
		default:
			row = append(row, st.Items[i].E.(*litExpr).v)
		}
	}
	return row, nil
}
