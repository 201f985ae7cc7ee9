package sqldb

import (
	"slices"
	"strconv"
	"strings"

	"perfbase/internal/value"
)

// A pour is the pipeline step a query's source element sends: one
// SELECT, read off many tables, each with constants of its own in front
// of the items, into one destination table (PipelineRequest.From). A
// session builds the compound INSERT ... SELECT it stands for straight
// from the step — the SELECT is parsed once, through the plan cache, and
// every branch reuses its items and WHERE, adding only its table and its
// constants — so nothing of it goes through the lexer. Everything after
// the syntax tree is the text statement's: the same plan sharing
// between same-shaped branches, the same pour into one columnar chunk
// (pourVec below), the same errors. A handle that routes text (a shard
// coordinator, a read-only server) runs the statement RenderPour prints.

// checkPourSelect returns the SELECT of a pour step, parsed: a plain SELECT
// of items and at most a WHERE clause.
func checkPourSelect(st Statement, sql string) (*SelectStmt, error) {
	sel, ok := st.(*SelectStmt)
	if !ok || sel.Union != nil || len(sel.From) > 0 || sel.Distinct || sel.Partial ||
		len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || sel.Limit >= 0 || sel.Offset > 0 {
		return nil, errorf("pour: %q is not a SELECT of items with an optional WHERE and no FROM", sql)
	}
	return sel, nil
}

// checkPourRows checks that a pour has one row of constants per table,
// all of one width, or none at all.
func checkPourRows(r *PipelineRequest) error {
	if len(r.Rows) == 0 {
		return nil
	}
	if len(r.Rows) != len(r.From) {
		return errorf("pour into %s: %d rows of constants for %d tables", r.Table, len(r.Rows), len(r.From))
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Rows[0]) {
			return errorf("pour into %s: table %d has %d constants, table 1 has %d", r.Table, i+1, len(row), len(r.Rows[0]))
		}
	}
	return nil
}

// pourStmt builds the INSERT ... SELECT a pour stands for from its
// parsed SELECT. The branches, their items, tables and literals are
// carved from one allocation each, so a pour over n tables costs the
// same handful of allocations whatever n is.
func pourStmt(r *PipelineRequest, sel *SelectStmt) *InsertStmt {
	n, w, k := len(r.From), 0, len(sel.Items)
	if len(r.Rows) > 0 {
		w = len(r.Rows[0])
	}
	branches := make([]SelectStmt, n)
	union := make([]*SelectStmt, n)
	from := make([]fromItem, n)
	items := make([]selectItem, n*(w+k))
	lits := make([]litExpr, n*w)
	for i, table := range r.From {
		it := items[i*(w+k) : (i+1)*(w+k) : (i+1)*(w+k)]
		for j := 0; j < w; j++ {
			lit := &lits[i*w+j]
			lit.v = literal(r.Rows[i][j])
			it[j] = selectItem{E: lit}
		}
		copy(it[w:], sel.Items)
		from[i] = fromItem{Table: table}
		branches[i] = SelectStmt{Items: it, From: from[i : i+1 : i+1], Where: sel.Where, Limit: -1}
		union[i] = &branches[i]
	}
	st := &InsertStmt{Table: r.Table, Cols: r.Cols, From: union[0]}
	if n > 1 {
		st.From = &SelectStmt{Limit: -1, Union: union}
	}
	return st
}

// literal returns the constant the parser reads back from v.SQL(), so
// that a pour projects what the statement RenderPour prints for it
// projects, with the same type: NULL is the parser's untyped NULL,
// timestamps and versions are the quoted strings they are written as,
// and a float written without a point or an exponent is an integer.
func literal(v value.Value) value.Value {
	switch {
	case v.IsNull():
		return value.Null(value.String)
	case v.Type() == value.Timestamp, v.Type() == value.Version:
		return value.NewString(v.String())
	case v.Type() == value.Float:
		var buf [32]byte
		text := strconv.AppendFloat(buf[:0], v.Float(), 'g', -1, 64)
		for _, c := range text {
			if c != '-' && (c < '0' || c > '9') {
				return v
			}
		}
		return value.NewInt(int64(v.Float()))
	}
	return v
}

// RenderPour prints a pour step as the SQL it stands for: the INSERT
// ... SELECT that fills r.Table, and the compound SELECT on its own, for
// a caller that reads the rows through one handle and writes them
// through another. Branch i is r.SQL with the constants r.Rows[i] in
// front of its items, each written as value.SQL writes it, and FROM
// r.From[i] in front of its WHERE. A pour over no table prints as two
// empty strings: there is nothing to run.
func RenderPour(r PipelineRequest) (insert, sel string, err error) {
	st, err := Parse(r.SQL)
	if err != nil {
		return "", "", err
	}
	if _, err := checkPourSelect(st, r.SQL); err != nil {
		return "", "", err
	}
	if err := checkPourRows(&r); err != nil {
		return "", "", err
	}
	if len(r.From) == 0 {
		return "", "", nil
	}
	items, where, err := splitPour(r.SQL)
	if err != nil {
		return "", "", err
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(r.Table)
	if len(r.Cols) > 0 {
		sb.WriteString(" (")
		sb.WriteString(strings.Join(r.Cols, ", "))
		sb.WriteString(")")
	}
	sb.WriteString(" ")
	head := sb.Len()
	for i, table := range r.From {
		if i > 0 {
			sb.WriteString(" UNION ALL ")
		}
		sb.WriteString("SELECT ")
		if len(r.Rows) > 0 {
			for _, v := range r.Rows[i] {
				sb.WriteString(v.SQL())
				sb.WriteString(", ")
			}
		}
		sb.WriteString(items)
		sb.WriteString(" FROM ")
		sb.WriteString(table)
		sb.WriteString(where)
	}
	insert = sb.String()
	return insert, insert[head:], nil
}

// splitPour cuts a pour's SELECT text into its items and its WHERE
// clause (with a leading blank, or empty).
func splitPour(sql string) (items, where string, err error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return "", "", err
	}
	end := len(sql)
	for _, t := range toks[1:] {
		if t.keyword("where") {
			end = t.pos
			break
		}
	}
	items = strings.TrimSpace(sql[toks[0].pos+len("select") : end])
	if end < len(sql) {
		where = " " + strings.TrimRight(strings.TrimSpace(sql[end:]), ";")
	}
	return items, where, nil
}

// pour runs a pour step on the session: inside its open transaction, or
// as a transaction of its own.
func (s *Session) pour(r *PipelineRequest) (*Result, error) {
	if err := s.db.hookReentry(); err != nil {
		return nil, err
	}
	cp, err := s.db.sharedPlan(r.SQL)
	if err != nil {
		return nil, err
	}
	sel, err := checkPourSelect(cp.st, r.SQL)
	if err != nil {
		return nil, err
	}
	if err := checkPourRows(r); err != nil {
		return nil, err
	}
	if len(r.From) == 0 {
		return &Result{}, nil
	}
	st := pourStmt(r, sel)
	s.mu.Lock()
	if tx := s.tx.Load(); tx != nil {
		defer s.mu.Unlock()
		return s.db.pourTxn(tx, r, st)
	}
	s.mu.Unlock()
	var res *Result
	err = s.db.runOne(func(tx *sessionTxn) (err error) {
		res, err = s.db.pourTxn(tx, r, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pourTxn executes a pour's statement inside tx. A durable destination
// logs the INSERT RenderPour prints for it, as insertTxnRows logs the
// INSERT a bulk insert stands for; a temp destination logs nothing.
func (db *DB) pourTxn(tx *sessionTxn, r *PipelineRequest, st *InsertStmt) (*Result, error) {
	raw := ""
	if db.replicates() {
		if t, ok := tx.over.table(r.Table); ok && !t.temp {
			var err error
			if raw, _, err = RenderPour(*r); err != nil {
				return nil, err
			}
		}
	}
	return db.execTxnStmt(tx, st, raw)
}

// pourVec pours st into k's table as one columnar chunk (schema.go): every
// statement whose branches are all single-table SELECTs that pour
// (compiledSelect.pours). ok is false, and nothing is done, for any other
// statement, whose branches pourSelect runs as the SELECTs they are.
//
// Branch by branch, in scan order: a branch whose items are constants
// and columns of exactly their destination's type, with no WHERE clause
// or one the batch back end takes (vecPlan.pred), is gathered from its
// table's vectors — a columnar chunk's own, a checkpointed chunk's
// blocks', a resident chunk's cached ones, or else its rows — and
// leaves a cold table cold. Any other branch reads rows (pourRows). A
// constant is converted once a branch, on its first kept row. So the
// values, the errors and their order are those of projecting each row
// and inserting it.
func (sn *snapshot) pourVec(st *SelectStmt, p *compiledSelect, k *tableSink) (ok bool, err error) {
	sts, plans := branches(st, p)
	total, known := 0, true // the rows, known when no branch filters them
	tabs := make([]*table, len(sts))
	for bi, b := range sts {
		bp := plans[bi]
		if bp.union != nil || len(b.From) != 1 || len(b.Joins) != 0 || !bp.pours(b) {
			return false, nil
		}
		t, _ := sn.table(b.From[0].Table) // the plan found it
		tabs[bi] = t
		total += t.nrows
		known = known && b.Where == nil
	}
	if !known {
		total = 0 // grown as the rows come
	}

	// The table's vectors, and the scratch every branch shares: its
	// table's vectors, the row put converts values into, and a window's
	// mask and selection.
	env, dst := sn.env, k.t
	w := len(dst.schema)
	k.cols = make([]colVec, w)
	for ci, c := range dst.schema {
		v := &k.cols[ci]
		v.typ = c.Type
		switch c.Type {
		case value.Integer, value.Boolean, value.Timestamp:
			v.ints = make([]int64, 0, total)
		case value.Float:
			v.floats = make([]float64, 0, total)
		default:
			v.strs = make([]string, 0, total)
		}
	}
	var cv []*colVec
	var mask []bool
	var sel []int32
	var m morsel
	row := make(Row, w)
	zoneOn := !env.zoneOff.Load()
	for bi, b := range sts {
		bp, t := plans[bi], tabs[bi]
		k.branch, k.out = bp.outSchema, p.outSchema
		if bp.readsRows(b, k, t.schema) {
			if err := sn.pourRows(b, bp, t, k, row); err != nil {
				return true, err
			}
			continue
		}
		if sn.reads != nil {
			sn.reads.addFull(t.key)
		}
		var vp *vecPlan // the batch WHERE clause's, nil without one
		var wcols []int // the columns it reads
		if b.Where != nil {
			vp, wcols = bp.vec, bp.vec.cols
		}
		cv = slices.Grow(cv[:0], len(t.schema))[:len(t.schema)]
		var rows []Row
		converted := false
		// gather appends the rows of positions [lo, hi) of cv that the WHERE
		// clause keeps, and the branch's constants beside them.
		gather := func(lo, hi int) error {
			c := hi - lo
			if vp != nil {
				if mask == nil {
					mask, sel = make([]bool, vecMorselRows), make([]int32, 0, vecMorselRows)
				}
				vp.pred(cv, lo, mask[:c])
				sel = sel[:0]
				for i, keep := range mask[:c] {
					if keep {
						sel = append(sel, int32(lo+i))
					}
				}
				c = len(sel)
			}
			if c == 0 {
				return nil
			}
			j := 0
			for i, cols := range bp.srcCols {
				if cols == nil {
					if !converted {
						if err := k.put(row, j, &b.Items[i].E.(*litExpr).v); err != nil {
							return err
						}
					}
					k.cols[k.colPos[j]].appendConst(row[k.colPos[j]], k.n, c)
					j++
				}
				for _, ci := range cols {
					switch v := &k.cols[k.colPos[j]]; {
					case cv[ci] == nil && vp == nil:
						v.appendRows(rows[lo:hi], ci, k.n)
					case cv[ci] == nil:
						for s, i := range sel {
							v.appendRows(rows[i:i+1], ci, k.n+s)
						}
					case vp == nil:
						v.appendRange(cv[ci], k.n, lo, hi)
					default:
						v.appendSel(cv[ci], k.n, sel)
					}
					j++
				}
			}
			converted = true
			k.n += c
			return nil
		}
		chunks, err := t.chunkRefs()
		if err != nil {
			return true, err
		}
		// Morsel by morsel, as the vectorized scan cuts them: a chunk a
		// checkpoint holds at its blocks, whose zone maps are asked first
		// and whose vectors are the block's own, any other as windows of
		// its whole-chunk vectors.
		for _, ch := range chunks {
			size, blocked := ch.len(), ch.cols == nil && ch.blocks.Load() != nil
			for lo := 0; lo < size; lo += vecMorselRows {
				m = morsel{ch: ch, bi: wholeChunk, lo: lo, hi: min(lo+vecMorselRows, size)}
				from, to := m.lo, m.hi // the morsel's positions in its vectors
				if blocked {
					m.bi, from, to = lo/vecMorselRows, 0, m.hi-m.lo
				}
				pruned := vp != nil && vp.prunes(&m, zoneOn)
				env.countBlock(&m, pruned)
				if pruned {
					continue
				}
				// cv gets the vectors the branch reads of the morsel's block
				// or whole chunk, and rows a resident chunk's rows when a
				// column has no cached vector: the pour reads that column off
				// them rather than cache a vector of a table it only copies.
				// The WHERE clause's columns always get vectors.
				clear(cv)
				rows = nil
				for _, cols := range bp.srcCols {
					for _, ci := range cols {
						if cv[ci], err = env.pourVecOf(ch, m.bi, ci, len(t.schema)); err != nil {
							return true, err
						}
						if cv[ci] == nil && rows == nil {
							rows = ch.rows()
						}
					}
				}
				for _, ci := range wcols {
					if cv[ci] == nil {
						if cv[ci], err = env.pourVecOf(ch, m.bi, ci, len(t.schema)); err != nil {
							return true, err
						}
					}
					if cv[ci] == nil {
						cv[ci] = buildColVec(ch.rows(), ci, t.schema[ci].Type) // not cached
					}
				}
				if err := gather(from, to); err != nil {
					return true, err
				}
			}
		}
	}
	for _, ci := range k.rest {
		k.cols[ci].appendConst(value.Null(dst.schema[ci].Type), 0, k.n)
	}
	for ci := range k.cols {
		k.cols[ci].seal(k.n)
	}
	k.env = env
	return true, nil
}

// readsRows reports whether a pour of branch st, reading a table of
// schema src into k, reads rows: the batch back end declines its WHERE
// clause, or an item is an expression or a column of another type in the
// statement or the destination.
func (p *compiledSelect) readsRows(st *SelectStmt, k *tableSink, src Schema) bool {
	if st.Where != nil && (p.vec == nil || p.vec.pred == nil) {
		return true
	}
	j := 0
	for i, cols := range p.srcCols {
		if p.items[i] != nil {
			return true
		}
		for _, ci := range cols {
			if typ := src[ci].Type; typ != k.out[j].Type || typ != k.t.schema[k.colPos[j]].Type {
				return true
			}
			j++
		}
		if cols == nil {
			j++
		}
	}
	return false
}

// pourRows pours branch st of a pour, which reads the rows of table t:
// the rows an index probe answers for its WHERE clause — a point read —
// or else all of them, hydrating a cold table. Each row the row filter
// keeps has its items evaluated and put in item order, into row, and
// pushed onto k's columns.
func (sn *snapshot) pourRows(st *SelectStmt, p *compiledSelect, t *table, k *tableSink, row Row) error {
	rel, err := sn.indexedScan(st.From[0], st.Where)
	if err != nil {
		return err
	}
	var chunks [][]Row
	if rel != nil {
		chunks = rel.chunks
	} else {
		if sn.reads != nil {
			sn.reads.addFull(t.key)
		}
		if chunks, err = t.chunks(); err != nil {
			return err
		}
	}
	ctx, converted := &k.ctx, false
	for _, rows := range chunks {
		for _, src := range rows {
			ctx.row = src
			keep, err := p.keep(ctx)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
			j := 0
			for i, cols := range p.srcCols {
				switch {
				case p.items[i] != nil:
					v, err := p.items[i](ctx)
					if err == nil {
						err = k.put(row, j, &v)
					}
					if err != nil {
						return err
					}
					j++
				case cols == nil:
					if !converted {
						if err := k.put(row, j, &st.Items[i].E.(*litExpr).v); err != nil {
							return err
						}
					}
					j++
				}
				for _, ci := range cols {
					if err := k.put(row, j, &src[ci]); err != nil {
						return err
					}
					j++
				}
			}
			converted = true
			for _, ci := range k.colPos {
				k.cols[ci].push(&row[ci], k.n)
			}
			k.n++
		}
	}
	return nil
}

// branches returns a SELECT's branches and their plans: a compound's, or
// the plain SELECT itself.
func branches(st *SelectStmt, p *compiledSelect) ([]*SelectStmt, []*compiledSelect) {
	if p.union == nil {
		return []*SelectStmt{st}, []*compiledSelect{p}
	}
	return st.Union, p.union
}

// pourVecOf returns the vector of column ci of block bi of ch, or of the
// whole chunk (bi wholeChunk), a chunk of a table width columns wide, for
// a pour to gather: a columnar chunk's own, a block's, or the one the
// cache holds for a resident chunk — nil when it holds none.
func (e *execEnv) pourVecOf(ch *chunk, bi, ci, width int) (*colVec, error) {
	switch {
	case bi != wholeChunk:
		return e.blockVec(ch, bi, ci, width)
	case ch.cols != nil:
		return &ch.cols.vecs[ci], nil
	}
	return e.cache.get(ch, wholeChunk, ci), nil
}
