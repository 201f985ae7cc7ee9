package sqldb

import (
	"errors"
	"fmt"
	"strings"

	"perfbase/internal/value"
)

// This file is the sqldb side of distributed query execution (see
// internal/shard). The shard coordinator works on parsed statements —
// routing DML by partition key, scattering SELECTs — but every AST
// type below Statement is unexported, so the inspection and planning it
// needs live here, exported as plain functions.
//
// A distributed SELECT is the engine's own SELECT cut in two where a
// morsel scan already cuts it. The coordinator sends every shard the
// statement it received under one modifier, PARTIAL SELECT …, to which a
// shard answers with its state instead of its result: a grouped
// statement's group table (groupTable.state — per group, in first-seen
// order, the representative row, the row count and n, i, f, s of every
// accumulator), an ungrouped one's rows up to OFFSET + LIMIT.
// PlanDistributedSelect compiles the same statement against the schema
// the coordinator keeps; DistPlan.Merge absorbs the states in shard-
// index order into one empty group table and calls the unmodified
// render, or concatenates the rows and calls finish. HAVING, ORDER BY
// over anything, LIMIT/OFFSET, the empty-input group and every
// aggregate's arithmetic are therefore the single node's code, not a
// restatement of it, and the answer is the one a node holding all the
// rows gives. PARTIAL is a modifier parsed into SelectStmt rather than a
// wire verb or a Backend method so that everything between coordinator
// and engine — shard sessions, the replica router, read-only checks,
// the plan cache, read-set validation, the scatter failpoint — sees an
// ordinary SELECT, and the coordinator needs no SQL printer: it sends
// "PARTIAL " + the text it holds. Statements the planner declines
// (joins, compound selects, aggregates that are not aggSpec.mergeable
// such as MEDIAN or COUNT(DISTINCT …)) fall back to whole-table gather
// in the coordinator, which preserves correctness at higher cost.

// ReferencedTables returns the lower-cased tables a statement reads or
// writes.
func ReferencedTables(st Statement) []string {
	return referencedTables(st)
}

// RenderInsertRows renders a typed row batch as one INSERT statement —
// the textual form of the BulkInserter fast path: what a bulk insert
// into a durable table logs for the WAL and the replication stream, and
// what the shard coordinator forwards a partitioned batch as and
// journals for two-phase-commit redo.
func RenderInsertRows(table string, cols []string, rows []Row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " (" + strings.Join(cols, ", ") + ") VALUES ")
	for ri, in := range rows {
		if ri > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for vi, v := range in {
			if vi > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.SQL())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// RenderCreateTable renders a CREATE TABLE statement for a schema: what
// the coordinator broadcasts for CREATE TABLE AS, and how the gather
// fallback rebuilds a table on its scratch database.
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
	rows, err := valuesRows(st)
	return rows, err == nil
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

// ---------------------------------------------- distributed planning

// DistPlan is a scatter-gather plan for a single-table SELECT: the
// statement and its plan, compiled against the coordinator's copy of the
// table's schema. Every shard runs the statement under PARTIAL; Merge
// turns their answers into the result.
type DistPlan struct {
	st *SelectStmt
	p  *compiledSelect
}

// PlanDistributedSelect builds a scatter-gather plan for st over a
// table with the given schema. It reports false when the statement
// cannot be answered from per-shard states, and the caller falls back to
// whole-table gather: a compound select, a join or any FROM list but
// one table, an aggregate whose state merge cannot fold, and — of
// ungrouped statements, whose rows travel without the source rows behind
// them — DISTINCT, a LIMIT without the total order that makes the kept
// rows defined, and an ORDER BY key that only resolves against the
// source.
func PlanDistributedSelect(st *SelectStmt, schema Schema) (*DistPlan, bool) {
	if st.Partial || len(st.Union) > 0 || len(st.From) != 1 || len(st.Joins) > 0 {
		return nil, false
	}
	ec := newEvalCtx(st.From[0].qualify(schema))
	defer ec.free()
	p, _, err := compileBranch(st, ec)
	if err != nil {
		return nil, false
	}
	if p.grouped {
		for k := range p.aggs {
			if !p.aggs[k].mergeable() {
				return nil, false
			}
		}
		return &DistPlan{st: st, p: p}, true
	}
	if st.Distinct || (st.Limit >= 0 && len(st.OrderBy) == 0) {
		return nil, false
	}
	oec := newEvalCtx(p.outSchema)
	defer oec.free()
	for _, ob := range st.OrderBy {
		if !oec.typed(ob.E).resolved() {
			return nil, false
		}
	}
	return &DistPlan{st: st, p: p}, true
}

// ErrPartialState marks a PARTIAL SELECT answer that is not the state
// of the plan it is folded into: a shard running another build, or a
// statement with an aggregate that has no mergeable state.
var ErrPartialState = errors.New("sqldb: malformed partial state")

// checkState validates the shape of a PARTIAL SELECT's answer, which
// comes from outside the process, against the layout want: the declared
// columns and every row's length.
func checkState(res *Result, want Schema) error {
	if res == nil || len(res.Columns) != len(want) {
		return fmt.Errorf("%w: not the plan's %d columns", ErrPartialState, len(want))
	}
	for ci, c := range want {
		if res.Columns[ci].Type != c.Type {
			return fmt.Errorf("%w: column %d is %s, want %s", ErrPartialState, ci+1, res.Columns[ci].Type, c.Type)
		}
	}
	for ri, row := range res.Rows {
		if len(row) != len(want) {
			return fmt.Errorf("%w: row %d has %d cells, want %d", ErrPartialState, ri+1, len(row), len(want))
		}
	}
	return nil
}

// Merge combines the shards' answers to the PARTIAL statement into the
// final result. They must be supplied in shard-index order: that is the
// order groups are first seen and ties are broken in, which makes a
// distributed result deterministic at any shard count and arrival
// order. An answer that does not fit the plan fails the query with
// ErrPartialState, naming the shard.
func (d *DistPlan) Merge(partials []*Result) (*Result, error) {
	if d.p.grouped {
		t := newGroupTable(d.st, d.p)
		for i, part := range partials {
			if err := t.absorb(part); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return t.render()
	}
	var rows []Row
	for i, part := range partials {
		if err := checkState(part, d.p.outSchema); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		rows = append(rows, part.Rows...)
	}
	return d.p.finish(d.st, rows, nil, nil)
}
