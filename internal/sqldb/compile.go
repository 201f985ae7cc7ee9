package sqldb

import (
	"fmt"
	"regexp"
	"slices"
	"strings"

	"perfbase/internal/value"
)

// This file implements the compiled expression executor. Instead of
// re-resolving column names against a map and re-dispatching on
// operator strings for every row (the interpreter in eval.go, still
// used for one-shot INSERT ... VALUES lists), a SELECT/UPDATE/DELETE
// compiles each expression once: column references become integer row
// offsets, operators become type-specialized closures, and constant
// LIKE patterns become precompiled regexps. The resulting closures are
// immutable and safe for concurrent executions; all per-execution
// state lives in execCtx.

// execCtx is the per-execution mutable state a compiled expression
// reads: the current row and, after grouping, the aggregate results.
type execCtx struct {
	row  Row
	aggs map[*aggExpr]value.Value
}

// compiledExpr evaluates an expression against the row in ctx with all
// name resolution already done.
type compiledExpr func(ctx *execCtx) (value.Value, error)

// errExpr defers a compile-time failure (unknown column, unknown
// function) to evaluation time. This preserves interpreter semantics:
// a bad reference in a filter over zero rows is never reported.
func errExpr(err error) compiledExpr {
	return func(*execCtx) (value.Value, error) { return value.Value{}, err }
}

// compileExpr lowers e against the schema captured in ec.
func compileExpr(e sqlExpr, ec *evalCtx) compiledExpr {
	switch t := e.(type) {
	case *litExpr:
		v := t.v
		return func(*execCtx) (value.Value, error) { return v, nil }
	case *colExpr:
		i, err := ec.lookup(t.Table, t.Name)
		if err != nil {
			return errExpr(err)
		}
		return func(ctx *execCtx) (value.Value, error) { return ctx.row[i], nil }
	case *binExpr:
		return compileBin(t, ec)
	case *unaryExpr:
		sub := compileExpr(t.E, ec)
		if t.Op == "-" {
			return func(ctx *execCtx) (value.Value, error) {
				v, err := sub(ctx)
				if err != nil {
					return value.Value{}, err
				}
				return value.Neg(v)
			}
		}
		if t.Op == "not" {
			return func(ctx *execCtx) (value.Value, error) {
				v, err := sub(ctx)
				if err != nil {
					return value.Value{}, err
				}
				if v.IsNull() {
					return v, nil
				}
				if v.Type() != value.Boolean {
					return value.Value{}, errorf("NOT applied to %s", v.Type())
				}
				return value.NewBool(!v.Bool()), nil
			}
		}
		op := t.Op
		return errExpr(errorf("unknown unary operator %q", op))
	case *isNullExpr:
		sub := compileExpr(t.E, ec)
		negate := t.Negate
		return func(ctx *execCtx) (value.Value, error) {
			v, err := sub(ctx)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(v.IsNull() != negate), nil
		}
	case *inExpr:
		sub := compileExpr(t.E, ec)
		list := make([]compiledExpr, len(t.List))
		for i, item := range t.List {
			list[i] = compileExpr(item, ec)
		}
		negate := t.Negate
		return func(ctx *execCtx) (value.Value, error) {
			v, err := sub(ctx)
			if err != nil {
				return value.Value{}, err
			}
			if v.IsNull() {
				return value.Null(value.Boolean), nil
			}
			found := false
			for _, item := range list {
				iv, err := item(ctx)
				if err != nil {
					return value.Value{}, err
				}
				if !iv.IsNull() && value.Equal(v, iv) {
					found = true
					break
				}
			}
			return value.NewBool(found != negate), nil
		}
	case *betweenExpr:
		sub := compileExpr(t.E, ec)
		lo := compileExpr(t.Lo, ec)
		hi := compileExpr(t.Hi, ec)
		negate := t.Negate
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
				return value.Null(value.Boolean), nil
			}
			in := value.Compare(v, lv) >= 0 && value.Compare(v, hv) <= 0
			return value.NewBool(in != negate), nil
		}
	case *funcExpr:
		return compileFunc(t, ec)
	case *aggExpr:
		return func(ctx *execCtx) (value.Value, error) {
			if ctx.aggs == nil {
				return value.Value{}, errorf("aggregate %s used outside grouped query", t.Name)
			}
			v, ok := ctx.aggs[t]
			if !ok {
				return value.Value{}, errorf("internal: aggregate %s not computed", t.Name)
			}
			return v, nil
		}
	case *castExpr:
		sub := compileExpr(t.E, ec)
		to := t.To
		return func(ctx *execCtx) (value.Value, error) {
			v, err := sub(ctx)
			if err != nil {
				return value.Value{}, err
			}
			return v.Convert(to)
		}
	}
	return errExpr(errorf("unknown expression %T", e))
}

// compileBin lowers a binary operator, dispatching on the operator
// string once at compile time instead of once per row.
func compileBin(e *binExpr, ec *evalCtx) compiledExpr {
	l := compileExpr(e.L, ec)
	r := compileExpr(e.R, ec)
	switch e.Op {
	case "and":
		return func(ctx *execCtx) (value.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return value.Value{}, err
			}
			if boolFalse(lv) {
				return value.NewBool(false), nil
			}
			rv, err := r(ctx)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(boolTrue(lv) && boolTrue(rv)), nil
		}
	case "or":
		return func(ctx *execCtx) (value.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return value.Value{}, err
			}
			if boolTrue(lv) {
				return value.NewBool(true), nil
			}
			rv, err := r(ctx)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(boolTrue(lv) || boolTrue(rv)), nil
		}
	case "+":
		return compileArith(l, r, value.Add)
	case "-":
		return compileArith(l, r, value.Sub)
	case "*":
		return compileArith(l, r, value.Mul)
	case "/":
		return compileArith(l, r, value.Div)
	case "%":
		return compileArith(l, r, value.Mod)
	case "||":
		return func(ctx *execCtx) (value.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return value.Value{}, err
			}
			rv, err := r(ctx)
			if err != nil {
				return value.Value{}, err
			}
			ls, err := lv.Convert(value.String)
			if err != nil {
				return value.Value{}, err
			}
			rs, err := rv.Convert(value.String)
			if err != nil {
				return value.Value{}, err
			}
			return value.Add(ls, rs)
		}
	case "=":
		return compileCmp(e, ec, l, r, func(c int) bool { return c == 0 })
	case "<>":
		return compileCmp(e, ec, l, r, func(c int) bool { return c != 0 })
	case "<":
		return compileCmp(e, ec, l, r, func(c int) bool { return c < 0 })
	case "<=":
		return compileCmp(e, ec, l, r, func(c int) bool { return c <= 0 })
	case ">":
		return compileCmp(e, ec, l, r, func(c int) bool { return c > 0 })
	case ">=":
		return compileCmp(e, ec, l, r, func(c int) bool { return c >= 0 })
	case "like":
		// A constant pattern (the overwhelmingly common case) compiles
		// its regexp once here instead of consulting the pattern cache
		// per row.
		if lit, ok := e.R.(*litExpr); ok && !lit.v.IsNull() {
			re, err := likePattern(lit.v.Str())
			if err != nil {
				return errExpr(err)
			}
			return func(ctx *execCtx) (value.Value, error) {
				lv, err := l(ctx)
				if err != nil {
					return value.Value{}, err
				}
				if lv.IsNull() {
					return value.Null(value.Boolean), nil
				}
				s, err := lv.Convert(value.String)
				if err != nil {
					return value.Value{}, err
				}
				return value.NewBool(re.MatchString(s.Str())), nil
			}
		}
		return func(ctx *execCtx) (value.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return value.Value{}, err
			}
			rv, err := r(ctx)
			if err != nil {
				return value.Value{}, err
			}
			return evalLike(lv, rv)
		}
	}
	op := e.Op
	return errExpr(errorf("unknown operator %q", op))
}

func compileArith(l, r compiledExpr, op func(a, b value.Value) (value.Value, error)) compiledExpr {
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

func compileCmp(e *binExpr, ec *evalCtx, l, r compiledExpr, ok func(int) bool) compiledExpr {
	// column <op> literal (either operand order): compare the row slot
	// against the captured literal in place, with no Value copies.
	// This is the shape of nearly every benchmark filter.
	if ce, isCol := e.L.(*colExpr); isCol {
		if le, isLit := e.R.(*litExpr); isLit {
			if i, err := ec.lookup(ce.Table, ce.Name); err == nil {
				return cmpColLit(i, le.v, ok, false)
			}
		}
	}
	if ce, isCol := e.R.(*colExpr); isCol {
		if le, isLit := e.L.(*litExpr); isLit {
			if i, err := ec.lookup(ce.Table, ce.Name); err == nil {
				return cmpColLit(i, le.v, ok, true)
			}
		}
	}
	return func(ctx *execCtx) (value.Value, error) {
		lv, err := l(ctx)
		if err != nil {
			return value.Value{}, err
		}
		rv, err := r(ctx)
		if err != nil {
			return value.Value{}, err
		}
		if lv.IsNull() || rv.IsNull() {
			return value.Null(value.Boolean), nil
		}
		return value.NewBool(ok(value.ComparePtr(&lv, &rv))), nil
	}
}

// Shared result values for the comparison hot path: returning a
// prebuilt Value skips per-row construction work.
var (
	boolTrueV  = value.NewBool(true)
	boolFalseV = value.NewBool(false)
	nullBoolV  = value.Null(value.Boolean)
)

// cmpColLit compares row column i against a literal. swapped means the
// literal was the left operand (`5 < col`), so the comparison result
// is negated relative to Compare(col, lit). The comparison outcome
// table (ok at -1/0/1) is precomputed and numeric literals are
// unpacked once, so the per-row closure runs without further calls in
// the numeric case.
func cmpColLit(i int, lit value.Value, ok func(int) bool, swapped bool) compiledExpr {
	if lit.IsNull() {
		return func(*execCtx) (value.Value, error) { return nullBoolV, nil }
	}
	var okLUT [3]bool // indexed by cv+1
	for cv := -1; cv <= 1; cv++ {
		r := cv
		if swapped {
			r = -r
		}
		okLUT[cv+1] = ok(r)
	}
	litNumeric := lit.Type().Numeric()
	litIsInt := lit.Type() == value.Integer
	litI, litF := lit.Int(), lit.Float()
	return func(ctx *execCtx) (value.Value, error) {
		c := &ctx.row[i]
		if c.IsNull() {
			return nullBoolV, nil
		}
		var cv int
		t := c.Type()
		if litIsInt && t == value.Integer {
			if ci := c.Int(); ci < litI {
				cv = -1
			} else if ci > litI {
				cv = 1
			}
		} else if litNumeric && t.Numeric() {
			if cf := c.Float(); cf < litF {
				cv = -1
			} else if cf > litF {
				cv = 1
			}
		} else {
			cv = value.ComparePtr(c, &lit)
		}
		if okLUT[cv+1] {
			return boolTrueV, nil
		}
		return boolFalseV, nil
	}
}

// compileWherePred builds the unboxed filter for compiledSelect's
// wherePred — see that field's comment. Returns nil when the clause
// is not a plain `column <op> literal` comparison.
func compileWherePred(e sqlExpr, ec *evalCtx) func(Row) (bool, error) {
	be, isBin := e.(*binExpr)
	if !isBin {
		return nil
	}
	var ok func(int) bool
	switch be.Op {
	case "=":
		ok = func(c int) bool { return c == 0 }
	case "<>":
		ok = func(c int) bool { return c != 0 }
	case "<":
		ok = func(c int) bool { return c < 0 }
	case "<=":
		ok = func(c int) bool { return c <= 0 }
	case ">":
		ok = func(c int) bool { return c > 0 }
	case ">=":
		ok = func(c int) bool { return c >= 0 }
	default:
		return nil
	}
	if ce, isCol := be.L.(*colExpr); isCol {
		if le, isLit := be.R.(*litExpr); isLit {
			if i, err := ec.lookup(ce.Table, ce.Name); err == nil {
				return cmpColLitPred(i, le.v, ok, false)
			}
		}
	}
	if ce, isCol := be.R.(*colExpr); isCol {
		if le, isLit := be.L.(*litExpr); isLit {
			if i, err := ec.lookup(ce.Table, ce.Name); err == nil {
				return cmpColLitPred(i, le.v, ok, true)
			}
		}
	}
	return nil
}

// cmpColLitPred is cmpColLit without the Value boxing: NULL on either
// side yields false (not-true), which is exactly the top-level WHERE
// semantics.
func cmpColLitPred(i int, lit value.Value, ok func(int) bool, swapped bool) func(Row) (bool, error) {
	if lit.IsNull() {
		return func(Row) (bool, error) { return false, nil }
	}
	var okLUT [3]bool // indexed by cv+1
	for cv := -1; cv <= 1; cv++ {
		r := cv
		if swapped {
			r = -r
		}
		okLUT[cv+1] = ok(r)
	}
	litNumeric := lit.Type().Numeric()
	litIsInt := lit.Type() == value.Integer
	litI, litF := lit.Int(), lit.Float()
	return func(row Row) (bool, error) {
		c := &row[i]
		if c.IsNull() {
			return false, nil
		}
		var cv int
		t := c.Type()
		if litIsInt && t == value.Integer {
			if ci := c.Int(); ci < litI {
				cv = -1
			} else if ci > litI {
				cv = 1
			}
		} else if litNumeric && t.Numeric() {
			if cf := c.Float(); cf < litF {
				cv = -1
			} else if cf > litF {
				cv = 1
			}
		} else {
			cv = value.ComparePtr(c, &lit)
		}
		return okLUT[cv+1], nil
	}
}

// likePattern translates a SQL LIKE pattern to a compiled regexp,
// sharing the interpreter's cache.
func likePattern(p string) (*regexp.Regexp, error) {
	if re := likeCache.get(p); re != nil {
		return re, nil
	}
	var sb strings.Builder
	sb.WriteString("(?is)^")
	for _, r := range p {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, errorf("bad LIKE pattern %q: %v", p, err)
	}
	likeCache.put(p, re)
	return re, nil
}

// compileFunc lowers a scalar function call, resolving the function
// and checking arity once. Unknown names defer the error to runtime
// (matching the interpreter, which only reports them when a row is
// actually evaluated).
func compileFunc(e *funcExpr, ec *evalCtx) compiledExpr {
	args := make([]compiledExpr, len(e.Args))
	for i, a := range e.Args {
		args[i] = compileExpr(a, ec)
	}
	// The application funnels through the interpreter's function
	// switch, but with arguments produced by compiled sub-expressions;
	// resolving the function name per call is cheap next to the work
	// the functions themselves do.
	return func(ctx *execCtx) (value.Value, error) {
		buf := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a(ctx)
			if err != nil {
				return value.Value{}, err
			}
			buf[i] = v
		}
		return applyFunc(e, buf)
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
	where     compiledExpr // nil when no WHERE clause
	// wherePred is an unboxed form of the WHERE filter, compiled when
	// the clause has the ubiquitous `column <op> literal` shape. At the
	// top level of a WHERE, SQL's three-valued logic degenerates to
	// "NULL is not true", so the scan loop can use a plain boolean
	// closure and skip Value boxing per row. nil when unavailable;
	// where remains valid either way.
	wherePred func(Row) (bool, error)

	// Grouped plans (GROUP BY or any aggregate) run through a groupTable
	// — see aggregate.go, which reads the fields below.
	grouped bool
	aggs    []aggSpec
	groupBy []compiledExpr
	having  compiledExpr // nil when no HAVING clause
	// keyKind says how groups are identified. keyCols holds the grouping
	// columns when every GROUP BY item is a plain column of any type but
	// Timestamp (whose datum is a pointer, so value identity is not
	// group identity), nil otherwise: a single such column is keyed on
	// directly (keyNum, keyStr), several are what addBatch encodes a
	// composite key from, and without them only addRow, which evaluates
	// groupBy, can group.
	keyKind keyKind
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
	p, ec, err := compileBranch(st, src)
	if err != nil {
		return nil, err
	}
	p.vec = sn.planVec(st, p, ec)
	p.vecJoin = sn.planVecJoin(st, p, ec)
	return p, nil
}

// compileBranch is the part of planning that needs no snapshot: source
// schema in, plan out. A shard coordinator, which holds schemas and no
// tables, plans a distributed SELECT with it (distrib.go). One
// evaluation context over the source schema serves every expression and
// the projection's types, and is returned for the vectorized planners.
func compileBranch(st *SelectStmt, src Schema) (*compiledSelect, *evalCtx, error) {
	p := &compiledSelect{srcSchema: src}
	ec := newEvalCtx(src)
	if st.Where != nil {
		p.where = compileExpr(st.Where, ec)
		p.wherePred = compileWherePred(st.Where, ec)
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
		p.groupBy = append(p.groupBy, compileExpr(g, ec))
		if ce, isCol := g.(*colExpr); isCol {
			if i, err := ec.lookup(ce.Table, ce.Name); err == nil && src[i].Type != value.Timestamp {
				p.keyCols = append(p.keyCols, i)
			}
		}
	}
	switch {
	case len(st.GroupBy) == 0:
		p.keyKind = keyNone
	case len(p.keyCols) != len(st.GroupBy):
		p.keyKind, p.keyCols = keyComposite, nil
	case len(p.keyCols) > 1:
		p.keyKind = keyComposite
	case src[p.keyCols[0]].Type == value.String || src[p.keyCols[0]].Type == value.Version:
		p.keyKind = keyStr
	default:
		p.keyKind = keyNum
	}
	if st.Having != nil {
		p.having = compileExpr(st.Having, ec)
	}
	var err error
	p.outSchema, p.srcCols, err = projectionSchema(st, ec)
	if err != nil {
		return nil, nil, err
	}
	p.items = make([]compiledExpr, len(st.Items))
	for i, it := range st.Items {
		switch e := it.E.(type) {
		case nil, *litExpr: // a star, whose columns projectionSchema listed, or a constant
		case *colExpr:
			if ci, err := ec.lookup(e.Table, e.Name); err == nil {
				p.srcCols[i] = []int{ci}
				break
			}
			p.items[i] = compileExpr(e, ec) // reports the reference per row
		default:
			p.items[i] = compileExpr(e, ec)
		}
	}
	if len(st.OrderBy) > 0 {
		oec := newEvalCtx(p.outSchema)
		for _, ob := range st.OrderBy {
			p.orderOut = append(p.orderOut, compileExpr(ob.E, oec))
			p.orderSrc = append(p.orderSrc, compileExpr(ob.E, ec))
		}
	}
	return p, ec, nil
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
	if p.wherePred != nil {
		return p.wherePred(ctx.row)
	}
	if p.where == nil {
		return true, nil
	}
	v, err := p.where(ctx)
	return err == nil && boolTrue(v), err
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

// resolvable reports whether every column reference and function in e
// resolves against ec's schema, i.e. whether compileExpr produced a
// fully compiled evaluator rather than one with deferred errors.
// EXPLAIN uses this to label plan steps "compiled" vs "interpreted".
func resolvable(e sqlExpr, ec *evalCtx) bool {
	switch t := e.(type) {
	case nil:
		return true
	case *litExpr:
		return true
	case *colExpr:
		_, err := ec.lookup(t.Table, t.Name)
		return err == nil
	case *binExpr:
		return resolvable(t.L, ec) && resolvable(t.R, ec)
	case *unaryExpr:
		return resolvable(t.E, ec)
	case *isNullExpr:
		return resolvable(t.E, ec)
	case *inExpr:
		if !resolvable(t.E, ec) {
			return false
		}
		for _, item := range t.List {
			if !resolvable(item, ec) {
				return false
			}
		}
		return true
	case *betweenExpr:
		return resolvable(t.E, ec) && resolvable(t.Lo, ec) && resolvable(t.Hi, ec)
	case *funcExpr:
		for _, a := range t.Args {
			if !resolvable(a, ec) {
				return false
			}
		}
		return true
	case *aggExpr:
		return t.Star || resolvable(t.Arg, ec)
	case *castExpr:
		return resolvable(t.E, ec)
	}
	return false
}
