package sqldb

import (
	"slices"
	"sort"
	"strings"

	"perfbase/internal/value"
)

// relation is an intermediate result during SELECT execution. Its
// schema carries qualified column names ("alias.col") so references
// resolve unambiguously across joins. Rows are held in chunks so that
// a base-table scan can walk the table's version chunks directly
// without materializing a flat copy; derived relations (joins, index
// probes) hold a single chunk.
type relation struct {
	schema Schema
	chunks [][]Row
	nrows  int
}

func singleChunk(schema Schema, rows []Row) *relation {
	return &relation{schema: schema, chunks: [][]Row{rows}, nrows: len(rows)}
}

// scanSchema derives the schema a table contributes to a SELECT,
// qualifying columns with the alias (or table name).
func (sn *snapshot) scanSchema(fi fromItem) (Schema, error) {
	t, ok := sn.table(fi.Table)
	if !ok {
		return nil, errorf("no such table %q", fi.Table)
	}
	return fi.qualify(t.schema), nil
}

// qualify names a table's columns "alias.col" (the table's name without
// an alias), the form a SELECT's source schema holds them in.
func (fi fromItem) qualify(cols Schema) Schema {
	alias := fi.Alias
	if alias == "" {
		alias = fi.Table
	}
	schema := make(Schema, len(cols))
	for i, c := range cols {
		schema[i] = Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	return schema
}

// scan produces a relation from a stored table. The relation shares
// the table version's (immutable) chunks — no row copying. Inside a
// read-tracked transaction the whole table joins the read set. The
// relation carries no schema: the plan resolved every column already,
// and only the row-engine joins, which concatenate schemas to find
// their ON columns, ask for one (scanQualified).
func (sn *snapshot) scan(fi fromItem) (*relation, error) {
	t, ok := sn.table(fi.Table)
	if !ok {
		return nil, errorf("no such table %q", fi.Table)
	}
	if sn.reads != nil {
		sn.reads.addFull(t.key)
	}
	chunks, err := t.chunks()
	if err != nil {
		return nil, err
	}
	return &relation{chunks: chunks, nrows: t.nrows}, nil
}

// scanQualified is scan for one side of a row-engine join.
func (sn *snapshot) scanQualified(fi fromItem) (*relation, error) {
	rel, err := sn.scan(fi)
	if err == nil {
		rel.schema, err = sn.scanSchema(fi)
	}
	return rel, err
}

// joinKeys is an ON condition as a hash join runs it: l and r pair
// the columns of its col = col conjuncts that name one column of each
// side, of one key class (sameKeyClass); filtered says other conjuncts
// remain, which every key-matched pair must also pass.
type joinKeys struct {
	l, r     []int
	filtered bool
}

// hashJoinCols splits an ON condition, a conjunction, into join keys
// and the rest. ok is false when no conjunct is a key, or when the
// condition has more than keys and may fail, which the nested loop,
// evaluating it on every pair, would raise: the caller must then take
// that loop. A cross-class pair compares by display form
// (value.Compare), which no key encodes, so it stays a filter.
func hashJoinCols(on sqlExpr, a, b Schema) (k joinKeys, ok bool) {
	aec, bec := newEvalCtx(a), newEvalCtx(b)
	defer func() { aec.free(); bec.free() }()
	var split func(e sqlExpr)
	split = func(e sqlExpr) {
		be, _ := e.(*binExpr)
		if l, r, is := keyPair(be, aec, bec); is && sameKeyClass(a[l].Type, b[r].Type) {
			k.l, k.r = append(k.l, l), append(k.r, r)
		} else if be != nil && be.Op == "and" {
			split(be.L)
			split(be.R)
		} else {
			k.filtered = true
		}
	}
	split(on)
	if len(k.l) == 0 {
		return k, false
	}
	if k.filtered {
		jec := newEvalCtx(append(a.clone(), b...))
		defer jec.free()
		return k, jec.typed(on).total
	}
	return k, true
}

// keyPair resolves be, when it is an equality of two column references,
// to one column of each side, in either operand order.
func keyPair(be *binExpr, aec, bec *evalCtx) (l, r int, ok bool) {
	if be == nil || be.Op != "=" {
		return 0, 0, false
	}
	lc, lok := be.L.(*colExpr)
	rc, rok := be.R.(*colExpr)
	if !lok || !rok {
		return 0, 0, false
	}
	for _, p := range [2][2]*colExpr{{lc, rc}, {rc, lc}} {
		l, lerr := aec.lookup(p[0].Table, p[0].Name)
		r, rerr := bec.lookup(p[1].Table, p[1].Name)
		if lerr == nil && rerr == nil {
			return l, r, true
		}
	}
	return 0, 0, false
}

// sameKeyClass reports whether values of types a and b compare equal
// exactly when their value.AppendKey keys are equal: the numbers form
// one class, every other type its own.
func sameKeyClass(a, b value.Type) bool { return a == b || a.Numeric() && b.Numeric() }

// appendJoinKey appends the key of row's columns cols; ok is false when
// one is NULL, which never equi-joins.
func appendJoinKey(dst []byte, row Row, cols []int) (key []byte, ok bool) {
	for _, ci := range cols {
		if row[ci].IsNull() {
			return dst, false
		}
		dst = value.AppendKey(dst, row[ci])
	}
	return dst, true
}

// join applies an INNER or LEFT join with an ON condition, or with a
// nil one a cross join: a hash join on the value.AppendKey encoding of
// the condition's keys (hashJoinCols), filtering each key-matched pair by
// the whole condition when it has more than keys. Without keys — a
// cross-class or same-side condition like ON a.x = a.y, or one that may
// fail — every pair shares the one empty key and the condition filters
// them all: the nested loop. Either way a left row's matches come in
// right-side order.
func join(a, b *relation, on sqlExpr, left bool) (*relation, error) {
	schema := append(a.schema.clone(), b.schema...)
	var k joinKeys // a cross join's: every pair, unfiltered
	if on != nil {
		var hashed bool
		if k, hashed = hashJoinCols(on, a.schema, b.schema); !hashed {
			k = joinKeys{filtered: true}
		}
	}
	var cond compiledExpr
	if k.filtered {
		cond = newEvalCtx(schema).compile(on)
	}
	ht := make(map[string][]Row)
	var kb []byte
	for _, cb := range b.chunks {
		for _, rb := range cb {
			var ok bool
			if kb, ok = appendJoinKey(kb[:0], rb, k.r); ok {
				ht[string(kb)] = append(ht[string(kb)], rb)
			}
		}
	}
	ctx := &execCtx{}
	rows := make([]Row, 0, a.nrows)
	for _, ca := range a.chunks {
		for _, ra := range ca {
			var matches []Row
			var ok bool
			if kb, ok = appendJoinKey(kb[:0], ra, k.l); ok {
				matches = ht[string(kb)]
			}
			matched := false
			for _, rb := range matches {
				row := append(append(make(Row, 0, len(schema)), ra...), rb...)
				if k.filtered {
					ctx.row = row
					if v, err := cond(ctx); err != nil {
						return nil, err
					} else if !boolTrue(v) {
						continue
					}
				}
				rows = append(rows, row)
				matched = true
			}
			if left && !matched {
				row := append(make(Row, 0, len(schema)), ra...)
				for _, c := range b.schema {
					row = append(row, value.Null(c.Type))
				}
				rows = append(rows, row)
			}
		}
	}
	return singleChunk(schema, rows), nil
}

// probeCand is a conjunct of a WHERE clause that pins a column to
// literals: `col = lit`, or `col IN (lit, …)`, whose items in holds.
type probeCand struct {
	col string // lower-cased
	lit value.Value
	in  []sqlExpr
}

// equalityCandidates appends to out the top-level conjuncts of e that
// pin a column to literals, in the clause's order; the scan uses them to
// probe hash indexes.
func equalityCandidates(e sqlExpr, out []probeCand) []probeCand {
	switch x := e.(type) {
	case *binExpr:
		switch x.Op {
		case "and":
			return equalityCandidates(x.R, equalityCandidates(x.L, out))
		case "=":
			c, ok := x.L.(*colExpr)
			l, lok := x.R.(*litExpr)
			if !ok || !lok {
				c, ok = x.R.(*colExpr)
				l, lok = x.L.(*litExpr)
			}
			if ok && lok {
				return append(out, probeCand{col: lower(c.Name), lit: l.v})
			}
		}
	case *inExpr:
		c, ok := x.E.(*colExpr)
		if !ok || x.Negate {
			return out
		}
		for _, item := range x.List {
			if _, ok := item.(*litExpr); !ok {
				return out
			}
		}
		return append(out, probeCand{col: lower(c.Name), in: x.List})
	}
	return out
}

// indexProbe finds the first conjunct of where that pins an indexed
// column of t to literals of the column's key class, which the column's
// hash index answers, and returns the column and the keys to look up.
// A literal of another class compares by display form (value.Compare),
// which no key encodes, and leaves the conjunct unprobed.
func indexProbe(t *table, where sqlExpr) (col string, keys []value.Value, ok bool) {
	if where == nil || !t.indexed() {
		return "", nil, false
	}
	var buf [4]probeCand
	for _, c := range equalityCandidates(where, buf[:0]) {
		ci := t.schema.Index(c.col)
		if ci < 0 || !t.hasIndex(c.col) {
			continue
		}
		if keys, ok = c.keys(t.schema[ci].Type); ok && len(keys) > 0 {
			return c.col, keys, true
		}
	}
	return "", nil, false
}

// keys returns the literals to look up in the index of a column of type
// typ: all but the NULLs, which match no row. ok is false when one is of
// another key class.
func (c probeCand) keys(typ value.Type) (keys []value.Value, ok bool) {
	if c.in == nil {
		switch {
		case c.lit.IsNull():
			return nil, true
		case !sameKeyClass(c.lit.Type(), typ):
			return nil, false
		}
		return []value.Value{c.lit}, true
	}
	keys = make([]value.Value, 0, len(c.in))
	for _, item := range c.in {
		switch v := item.(*litExpr).v; {
		case v.IsNull():
		case !sameKeyClass(v.Type(), typ):
			return nil, false
		default:
			keys = append(keys, v)
		}
	}
	return keys, true
}

// indexedScan serves a single-table FROM through a hash index when the
// WHERE clause pins an indexed column to literals (indexProbe): the rows
// of every key, in position order. The full WHERE still runs
// afterwards, so this is purely a row pre-filter. A nil relation means no
// index serves the query.
func (sn *snapshot) indexedScan(fi fromItem, where sqlExpr) (*relation, error) {
	t, ok := sn.table(fi.Table)
	if !ok {
		return nil, nil
	}
	col, keys, ok := indexProbe(t, where)
	if !ok {
		return nil, nil
	}
	idx, err := t.index(col)
	if err != nil {
		return nil, err
	}
	positions := idx.lookup(keys[0])
	if len(keys) > 1 {
		// The union of the keys' rows: a key listed twice finds its rows
		// twice.
		positions = slices.Clone(positions)
		for _, k := range keys[1:] {
			positions = append(positions, idx.lookup(k)...)
		}
		slices.Sort(positions)
		positions = slices.Compact(positions)
	}
	rows := t.rowsAt(positions)
	if sn.reads != nil {
		// A point read joins the read set as a probe per key, not a full
		// scan: commit validation re-probes the key and passes if the
		// matched rows are unchanged, so transactions touching different
		// keys of the same table don't conflict.
		for _, k := range keys {
			kr := rows
			if len(keys) > 1 {
				kr = t.rowsAt(idx.lookup(k))
			}
			sn.reads.addPoint(lower(fi.Table), pointRead{col: col, key: k, fp: fingerprintRows(kr)})
		}
	}
	return singleChunk(nil, rows), nil
}

// sourceRelation builds the input rows of a SELECT: the FROM clause
// (or a single synthetic row for table-less SELECT), cross joins, and
// explicit JOINs, with an index probe for the single-table case.
func (sn *snapshot) sourceRelation(st *SelectStmt) (*relation, error) {
	if len(st.From) == 0 {
		return singleChunk(nil, []Row{{}}), nil
	}
	if len(st.From) == 1 && len(st.Joins) == 0 {
		if r, err := sn.indexedScan(st.From[0], st.Where); r != nil || err != nil {
			return r, err
		}
		return sn.scan(st.From[0])
	}
	rel, err := sn.scanQualified(st.From[0])
	if err != nil {
		return nil, err
	}
	for _, fi := range st.From[1:] {
		r2, err := sn.scanQualified(fi)
		if err != nil {
			return nil, err
		}
		if rel, err = join(rel, r2, nil, false); err != nil {
			return nil, err
		}
	}
	for _, jc := range st.Joins {
		r2, err := sn.scanQualified(jc.Right)
		if err != nil {
			return nil, err
		}
		rel, err = join(rel, r2, jc.On, jc.Left)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// runSelect executes a SELECT with an already-compiled plan. Scan,
// filter and project/aggregate are fused into a single pass over the
// source rows — no intermediate filtered relation is materialized. A
// compound's branches run in order against this one snapshot, each
// appending its rows, coerced to the reconciled schema, to the result.
func (sn *snapshot) runSelect(st *SelectStmt, p *compiledSelect) (*Result, error) {
	if p.union != nil {
		out := &Result{Columns: p.outSchema}
		for bi, bp := range p.union {
			res, err := sn.runSelect(st.Union[bi], bp)
			if err != nil {
				return nil, err
			}
			// projectRow builds result rows afresh on every execution, so
			// coercing in place cannot reach table storage.
			for ci, c := range p.outSchema {
				if bp.outSchema[ci].Type == c.Type {
					continue
				}
				for _, row := range res.Rows {
					if row[ci], err = reconcile(row[ci], c); err != nil {
						return nil, err
					}
				}
			}
			out.Rows = append(out.Rows, res.Rows...)
		}
		return out, nil
	}
	res, rel, err := sn.source(st, p)
	if res != nil || err != nil {
		return res, err
	}
	if p.grouped {
		t := newGroupTable(st, p)
		for _, chunk := range rel.chunks {
			for _, row := range chunk {
				if err := t.addRow(row); err != nil {
					return nil, err
				}
			}
		}
		return t.render()
	}

	ctx := &execCtx{}
	var outRows []Row
	// For ORDER BY fallback resolution, the source row behind each
	// output row. DISTINCT breaks the alignment, so ordering then uses
	// output columns only.
	needReps := len(st.OrderBy) > 0 && !st.Distinct
	var reps []Row
	for _, chunk := range rel.chunks {
		for _, row := range chunk {
			ctx.row = row
			keep, err := p.keep(ctx)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			out, err := p.projectRow(st, ctx, row)
			if err != nil {
				return nil, err
			}
			outRows = append(outRows, out)
			if needReps {
				reps = append(reps, row)
			}
		}
	}
	return p.finish(st, outRows, reps, nil)
}

// reconcile converts a branch's value to the type the compound gave its
// column.
func reconcile(v value.Value, c Column) (value.Value, error) {
	cv, err := v.Convert(c.Type)
	if err != nil {
		return cv, errorf("UNION ALL column %q: %v", c.Name, err)
	}
	return cv, nil
}

// source runs a plain SELECT up to its row loops: a vectorized path
// (vector.go, vecjoin.go) that carried the statement to its end hands
// back the result; otherwise — the vectorized join stopped at the join,
// the path declined at run time, or the plan never qualified — the
// caller gets the relation to loop over.
func (sn *snapshot) source(st *SelectStmt, p *compiledSelect) (*Result, *relation, error) {
	if sn.reads != nil && (p.vec != nil || p.vecJoin != nil) {
		// The vectorized engines read column projections without going
		// through scan(), so record their inputs as full table reads up
		// front (conservative if one declines and the row path then
		// serves an index probe instead).
		for _, fi := range st.From {
			sn.reads.addFull(lower(fi.Table))
		}
		for _, jc := range st.Joins {
			sn.reads.addFull(lower(jc.Right.Table))
		}
	}
	if p.vec != nil {
		if res, ok, err := sn.runVecSelect(st, p); ok || err != nil {
			return res, nil, err
		}
	}
	if p.vecJoin != nil {
		res, rel, ok, err := sn.runVecJoin(st, p)
		if err != nil || ok {
			// res: the fused join+aggregate path completed. rel: the join
			// was done columnar and the row loops finish the query.
			return res, rel, err
		}
	}
	rel, err := sn.sourceRelation(st)
	return nil, rel, err
}

// pours reports whether st's rows can go to their destination one by
// one as the scan keeps them: nothing groups, reorders, dedups or cuts
// them afterwards.
func (p *compiledSelect) pours(st *SelectStmt) bool {
	return !p.grouped && !st.Distinct && len(st.OrderBy) == 0 && st.Limit < 0 && st.Offset == 0
}

// pourSelect runs a SELECT, compound or plain, into a table sink, in
// branch order then scan order: as one columnar chunk (pourVec), or —
// when a branch groups, reorders, dedups, cuts or joins its rows — branch
// by branch, each run as the SELECT it is and its result rows added.
func (sn *snapshot) pourSelect(st *SelectStmt, p *compiledSelect, k *tableSink) error {
	if ok, err := sn.pourVec(st, p, k); ok || err != nil {
		return err
	}
	sts, plans := branches(st, p)
	for bi, b := range sts {
		res, err := sn.runSelect(b, plans[bi])
		if err != nil {
			return err
		}
		k.branch, k.out = plans[bi].outSchema, p.outSchema
		if err := k.addRows(res.Rows); err != nil {
			return err
		}
	}
	return nil
}

// finish applies the statement tail — DISTINCT, ORDER BY, OFFSET and
// LIMIT — to the rows a scan produced (row engine or vectorized path;
// both funnel through here, so the tail semantics cannot diverge).
// reps, when non-nil, carries the source row behind each output row
// for ORDER BY fallback resolution, and aggVs the aggregate results
// behind each output row of a grouped statement (nil for an ungrouped
// one).
func (p *compiledSelect) finish(st *SelectStmt, outRows []Row, reps []Row, aggVs []map[*aggExpr]value.Value) (*Result, error) {
	// DISTINCT.
	if st.Distinct {
		seen := map[string]bool{}
		kept := outRows[:0:0]
		var k []byte
		for _, row := range outRows {
			k = k[:0]
			for _, v := range row {
				k = value.AppendKey(k, v)
			}
			if !seen[string(k)] {
				seen[string(k)] = true
				kept = append(kept, row)
			}
		}
		outRows = kept
	}

	// ORDER BY: keys may reference output aliases or source columns;
	// the plan carries both compiled forms.
	if len(st.OrderBy) > 0 {
		keys := make([][]value.Value, len(outRows))
		octx := &execCtx{}
		sctx := &execCtx{}
		for ri, row := range outRows {
			keys[ri] = make([]value.Value, len(st.OrderBy))
			for oi := range st.OrderBy {
				octx.row = row
				v, err := p.orderOut[oi](octx)
				if err != nil && reps != nil {
					sctx.row = reps[ri]
					if aggVs != nil {
						sctx.aggs = aggVs[ri]
					}
					v, err = p.orderSrc[oi](sctx)
				}
				if err != nil {
					return nil, err
				}
				keys[ri][oi] = v
			}
		}
		less := func(a, b int) bool {
			for oi, ob := range st.OrderBy {
				c := value.Compare(keys[a][oi], keys[b][oi])
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		}
		var idx []int
		if k := st.Offset + st.Limit; st.Limit >= 0 && k < len(outRows) {
			// Top-K: only the first Offset+Limit sorted rows survive the
			// tail, so keep a bounded heap instead of sorting everything.
			// topKIndices is tie-stable, so the kept prefix is identical
			// to a full stable sort's.
			idx = topKIndices(len(outRows), k, less)
		} else {
			idx = make([]int, len(outRows))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		}
		sorted := make([]Row, len(idx))
		for i, j := range idx {
			sorted[i] = outRows[j]
		}
		outRows = sorted
	}

	// OFFSET / LIMIT. A PARTIAL statement's rows are one shard's share of
	// the window: it skips nothing and keeps OFFSET + LIMIT rows, among
	// which the coordinator's finish finds the window itself.
	offset, limit := st.Offset, st.Limit
	if st.Partial {
		offset = 0
		if limit >= 0 {
			limit += st.Offset
		}
	}
	if offset > 0 {
		if offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[offset:]
		}
	}
	if limit >= 0 && limit < len(outRows) {
		outRows = outRows[:limit]
	}

	return &Result{Columns: p.outSchema, Rows: outRows}, nil
}

// projectionSchema derives the output schema of a SELECT, each item
// typed against ec's schema, and how each item is projected (aligned
// with the items): the source columns a star or a bare column reference
// copies, or the evaluator of a computed item. A bare literal has
// neither — projection reads it from the statement being run, so that
// branches of a compound that differ in such constants can share a plan
// (planSelect).
func projectionSchema(st *SelectStmt, ec *evalCtx) (Schema, [][]int, []compiledExpr, error) {
	var out Schema
	srcCols := make([][]int, len(st.Items))
	items := make([]compiledExpr, len(st.Items))
	for i, it := range st.Items {
		if it.Star {
			var cols []int
			for ci, c := range ec.schema {
				if it.Table != "" {
					prefix := lower(it.Table) + "."
					if !strings.HasPrefix(lower(c.Name), prefix) {
						continue
					}
				}
				cols = append(cols, ci)
				out = append(out, Column{Name: bareName(c.Name), Type: c.Type})
			}
			if len(cols) == 0 {
				return nil, nil, nil, errorf("star expansion of %q matched no columns", it.Table)
			}
			srcCols[i] = cols
			continue
		}
		name := it.Alias
		if name == "" {
			if ce, ok := it.E.(*colExpr); ok {
				name = ce.Name
			} else if ae, ok := it.E.(*aggExpr); ok {
				name = ae.Name
			} else {
				name = "col" + itoa(len(out)+1)
			}
		}
		n := ec.typed(it.E)
		out = append(out, Column{Name: name, Type: n.typ})
		switch _, lit := it.E.(*litExpr); {
		case lit:
		case n.kind == tCol:
			srcCols[i] = []int{n.col}
		default:
			items[i] = rowExpr(n)
		}
	}
	// De-duplicate bare names that collide after qualification strip.
	seen := map[string]int{}
	for i := range out {
		k := lower(out[i].Name)
		seen[k]++
		if seen[k] > 1 {
			out[i].Name = out[i].Name + "_" + itoa(seen[k])
		}
	}
	return out, srcCols, items, nil
}

func bareName(qualified string) string {
	if d := lastDot(qualified); d >= 0 {
		return qualified[d+1:]
	}
	return qualified
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
