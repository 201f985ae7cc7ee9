package sqldb

import (
	"perfbase/internal/value"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE [TEMP] TABLE [IF NOT EXISTS] name
// (col type, ...) or CREATE [TEMP] TABLE name AS SELECT ...
type CreateTableStmt struct {
	Name        string
	Temp        bool
	IfNotExists bool
	Cols        Schema
	As          *SelectStmt
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// CreateIndexStmt is CREATE INDEX [IF NOT EXISTS] ON table (column).
type CreateIndexStmt struct {
	Table       string
	Column      string
	IfNotExists bool
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), ... or
// INSERT INTO table [(cols)] SELECT ...
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]sqlExpr
	From  *SelectStmt
}

// assign is one SET clause of an UPDATE.
type assign struct {
	Col string
	E   sqlExpr
}

// UpdateStmt is UPDATE table SET col=e, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []assign
	Where sqlExpr
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where sqlExpr
}

// selectItem is one projection of a SELECT: an expression with an
// optional alias, or a bare/qualified star.
type selectItem struct {
	E     sqlExpr
	Alias string
	Star  bool
	Table string // for "t.*"
}

// fromItem is one table reference with an optional alias.
type fromItem struct {
	Table string
	Alias string
}

// joinClause is one JOIN ... ON ... following the first FROM table.
type joinClause struct {
	Right fromItem
	On    sqlExpr
	Left  bool // LEFT OUTER JOIN when true, INNER otherwise
}

// orderItem is one ORDER BY key.
type orderItem struct {
	E    sqlExpr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	// Partial marks PARTIAL SELECT …, a shard's share of a distributed
	// statement: it answers with its state — a grouped statement's group
	// table, an ungrouped one's first OFFSET + LIMIT rows — for the
	// coordinator to fold and render (distrib.go). Never set on a
	// compound select.
	Partial bool
	Items   []selectItem
	From    []fromItem
	Joins   []joinClause
	Where   sqlExpr
	GroupBy []sqlExpr
	Having  sqlExpr
	OrderBy []orderItem
	Limit   int // -1 = none
	Offset  int

	// Union, when non-empty, makes the statement a compound select: the
	// UNION ALL of these branches, in order. The clause fields above
	// are then unused — a compound has no FROM of its own, so a consumer
	// that reasons about one table must look here first. No branch is
	// itself compound or carries ORDER BY, LIMIT or OFFSET.
	Union []*SelectStmt
	// Pos is the byte offset of the SELECT keyword in the parsed text.
	Pos int
}

// BeginStmt, CommitStmt and RollbackStmt control transactions.
type BeginStmt struct{}

// CommitStmt commits the open transaction.
type CommitStmt struct{}

// RollbackStmt aborts the open transaction.
type RollbackStmt struct{}

// PrepareStmt is PREPARE TRANSACTION ['gid']: phase one of a two-phase
// commit. The session's open transaction is validated and parked with
// table intents installed, so a later COMMIT PREPARED cannot fail
// validation. The optional gid is advisory (error messages only); a
// session holds at most one prepared transaction.
type PrepareStmt struct{ Gid string }

// CommitPreparedStmt is COMMIT PREPARED: phase two, publishing the
// session's prepared transaction.
type CommitPreparedStmt struct{}

// RollbackPreparedStmt is ROLLBACK PREPARED: aborts the session's
// prepared transaction and releases its intents.
type RollbackPreparedStmt struct{}

func (*CreateTableStmt) stmt()      {}
func (*DropTableStmt) stmt()        {}
func (*CreateIndexStmt) stmt()      {}
func (*InsertStmt) stmt()           {}
func (*UpdateStmt) stmt()           {}
func (*DeleteStmt) stmt()           {}
func (*SelectStmt) stmt()           {}
func (*BeginStmt) stmt()            {}
func (*CommitStmt) stmt()           {}
func (*RollbackStmt) stmt()         {}
func (*PrepareStmt) stmt()          {}
func (*CommitPreparedStmt) stmt()   {}
func (*RollbackPreparedStmt) stmt() {}

// ------------------------------------------------------- expressions

// sqlExpr is a SQL scalar expression, as parsed. The expression
// compiler (expr.go) types it before anything evaluates it.
type sqlExpr interface{ expr() }

func lower(s string) string {
	// Fast path: already lower.
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			return toLowerSlow(s)
		}
	}
	return s
}

func toLowerSlow(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// litExpr is a constant.
type litExpr struct{ v value.Value }

// colExpr references a column, optionally table-qualified.
type colExpr struct {
	Table string
	Name  string
}

// display returns the reference in "t.c" or "c" form.
func (e *colExpr) display() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// binExpr is a binary operator application.
type binExpr struct {
	Op   string // lower-case: + - * / % = <> < <= > >= and or like ||
	L, R sqlExpr
}

// unaryExpr is NOT or unary minus.
type unaryExpr struct {
	Op string // "not" or "-"
	E  sqlExpr
}

// isNullExpr is [NOT] NULL test.
type isNullExpr struct {
	E      sqlExpr
	Negate bool
}

// inExpr is e IN (list).
type inExpr struct {
	E      sqlExpr
	List   []sqlExpr
	Negate bool
}

// betweenExpr is e BETWEEN lo AND hi.
type betweenExpr struct {
	E, Lo, Hi sqlExpr
	Negate    bool
}

// funcExpr is a scalar function call.
type funcExpr struct {
	Name string // lower-case
	Args []sqlExpr
}

// aggExpr is an aggregate function call; it may only appear in the
// projection and HAVING of a grouped (or implicitly aggregated) query.
type aggExpr struct {
	Name     string // lower-case: count sum avg min max stddev variance prod
	Arg      sqlExpr
	Star     bool // COUNT(*)
	Distinct bool
}

// castExpr is CAST(e AS type).
type castExpr struct {
	E  sqlExpr
	To value.Type
}

func (*litExpr) expr()     {}
func (*colExpr) expr()     {}
func (*binExpr) expr()     {}
func (*unaryExpr) expr()   {}
func (*isNullExpr) expr()  {}
func (*inExpr) expr()      {}
func (*betweenExpr) expr() {}
func (*funcExpr) expr()    {}
func (*aggExpr) expr()     {}
func (*castExpr) expr()    {}
