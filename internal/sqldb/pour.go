package sqldb

import (
	"strconv"
	"strings"
	"time"

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
// between same-shaped branches, the same pour into one exactly sized
// chunk, the same errors. A handle that routes text (a shard
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
	case v.Type() == value.Timestamp:
		return value.NewString(v.Time().Format(time.RFC3339Nano))
	case v.Type() == value.Version:
		return value.NewString(v.Str())
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
		if t, ok := tx.over.Load().table(r.Table); ok && !t.temp {
			var err error
			if raw, _, err = RenderPour(*r); err != nil {
				return nil, err
			}
		}
	}
	return db.execTxnStmt(tx, st, raw)
}
