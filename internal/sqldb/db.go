package sqldb

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"perfbase/internal/value"
)

// Querier is the common query interface of a local database (*DB) and
// a network client (wire.Client). perfbase layers are written against
// this interface so queries can run against any server placement.
type Querier interface {
	// Exec parses and executes one SQL statement.
	Exec(sql string) (*Result, error)
}

// DB is an embedded SQL database. All methods are safe for concurrent
// use. Reads (SELECT/EXPLAIN) execute lock-free against an immutable
// snapshot acquired with one atomic load. Every mutation is an
// optimistic transaction — a statement outside BEGIN is a transaction
// of one statement: it executes against the snapshot it started from in
// a private overlay, with no lock held, and takes the commit latch only
// to validate that what it read still stands, publish the next snapshot
// and enqueue its WAL frame (session.go). A long INSERT ... SELECT
// therefore stalls neither readers nor other writers.
type DB struct {
	// state is the current committed snapshot; see snapshot.go.
	state atomic.Pointer[snapshot]
	// schemaVer is the last schema version handed out. Every CREATE and
	// ALTER, committed or not, draws the next one, so no two table
	// versions with different schemas ever share a number (catalog.go).
	schemaVer atomic.Int64
	// wmu is the commit latch: it orders validate → publish → WAL
	// enqueue → hooks of one commit against every other, and pairs
	// (state, position) for Checkpoint, Close, ImportState, ExportState
	// and a view rebuild. No statement executes under it, and no
	// checkpoint image is written or checked under it.
	wmu sync.Mutex
	// intents maps table keys pinned by prepared transactions (phase
	// one of a two-phase commit) to the intent held on them. Guarded by
	// wmu; see session.go's two-phase-commit section.
	intents map[string]*tableIntent

	// plans caches parsed statements and compiled SELECT plans by raw
	// SQL text. It has its own lock; see plancache.go.
	plans planCache

	wal *groupWAL // nil for a memory-only database
	dir string
	// policy is the WAL sync policy Open was given. It never changes, so
	// it is read without wmu, which guards the wal it configures.
	policy SyncPolicy
	// ckpt is the checkpoint file of the current epoch, open for the
	// tables that still read from it; nil until the directory has one.
	// Guarded by wmu.
	ckpt *os.File
	// commitArrivals counts committers that have entered the commit
	// path but not yet enqueued (or abandoned) their WAL frame. The
	// flusher reads it to gather a whole cohort of concurrent
	// committers into one group fsync; see announceCommit and
	// groupWAL.flush.
	commitArrivals atomic.Int32
	// walEpoch is the checkpoint generation the current WAL extends;
	// recovery discards a WAL older than the snapshot. Guarded by wmu.
	walEpoch uint64
	// recovery reports what the last Open found in the WAL.
	recovery RecoveryInfo

	// Replication state (see repl.go). pos is the current replication
	// position (epoch + frames committed within it), written under wmu
	// and read lock-free; role is a display label ("primary"/"replica").
	// hooks holds the AddCommitHook registrations (the streaming hub,
	// the materialized-view and alert pipelines), fired in registration
	// order; hooksMu serializes registration, hookGoid marks the
	// goroutine currently inside a hook so call-backs into the database
	// fail typed instead of deadlocking on wmu (see ErrHookReentrant).
	pos      atomic.Pointer[ReplPos]
	hooks    atomic.Pointer[[]*hookEntry]
	hooksMu  sync.Mutex
	hookGoid atomic.Int64
	role     atomic.Pointer[string]

	// env is the execution environment shared by every snapshot this
	// database publishes: the columnar projection cache and the
	// vectorized-execution knobs. See colcache.go.
	env *execEnv
}

// ErrTxnBusy is returned by BEGIN when the session already has an open
// transaction. Like SQLITE_BUSY it is retryable at statement
// granularity. Contrast ErrTxnConflict (session.go), which reports a
// commit-time validation failure and requires re-running the whole
// transaction.
var ErrTxnBusy = errors.New("sqldb: transaction already open")

// ErrNoSession is returned by DB.Exec for transaction control — BEGIN,
// COMMIT, ROLLBACK, PREPARE TRANSACTION, COMMIT PREPARED and ROLLBACK
// PREPARED. A transaction belongs to a Session, never to the database:
// open one with DB.NewSession, or send BEGIN … COMMIT as one
// DB.ExecPipeline.
var ErrNoSession = errors.New("sqldb: transaction control needs a session: use DB.NewSession or DB.ExecPipeline")

// ErrTableExists is returned (wrapped; test with errors.Is) by CREATE
// TABLE and ALTER TABLE ... RENAME TO when the name is taken.
var ErrTableExists = errors.New("sqldb: table already exists")

func tableExists(name string) error { return fmt.Errorf("%w: %q", ErrTableExists, name) }

// ErrInsertArity is returned (wrapped; test with errors.Is) by an INSERT
// or InsertRows whose rows do not have one value per target column. For
// INSERT ... SELECT it is a property of the statement, reported whether
// or not the select yields a row.
var ErrInsertArity = errors.New("sqldb: wrong number of values")

func insertArity(t *table, got, want int) error {
	return fmt.Errorf("%w: INSERT into %s: %d values for %d columns", ErrInsertArity, t.name, got, want)
}

// NewMemory creates an empty in-memory database.
func NewMemory() *DB {
	db := &DB{env: newExecEnv()}
	db.state.Store(&snapshot{env: db.env})
	return db
}

// sharedPlan returns the shared plan-cache entry for sql, parsing and
// inserting it on miss.
func (db *DB) sharedPlan(sql string) (*cachedPlan, error) {
	if cp := db.plans.get(sql); cp != nil {
		return cp, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	cp := &cachedPlan{st: st, tables: referencedTables(st)}
	db.plans.put(sql, cp)
	return cp, nil
}

// Exec parses and executes one SQL statement. Statements are cached
// by their text: a repeated Exec of the same SQL skips the lexer and
// parser, and repeated SELECTs also reuse the compiled plan (see
// plancache.go for the invalidation rules). A read runs on the
// committed state; any other statement is a transaction of its own,
// exactly as on a Session outside BEGIN. Transaction control fails with
// ErrNoSession.
func (db *DB) Exec(sql string) (*Result, error) {
	if err := db.hookReentry(); err != nil {
		return nil, err
	}
	cp, err := db.sharedPlan(sql)
	if err != nil {
		return nil, err
	}
	switch cp.st.(type) {
	case *SelectStmt, *ExplainStmt:
		return db.execRead(db.state.Load(), cp)
	case *BeginStmt, *CommitStmt, *RollbackStmt, *PrepareStmt, *CommitPreparedStmt, *RollbackPreparedStmt:
		return nil, ErrNoSession
	}
	return db.execOne(cp.st, sql)
}

// BindArgs substitutes '?' placeholders in sql with literal values.
func BindArgs(sql string, args ...value.Value) (string, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	last := 0
	n := 0
	for _, t := range toks {
		if t.kind != tkParam {
			continue
		}
		if n >= len(args) {
			return "", errorf("not enough arguments for placeholders in %q", sql)
		}
		sb.WriteString(sql[last:t.pos])
		sb.WriteString(args[n].SQL())
		last = t.pos + 1
		n++
	}
	if n < len(args) {
		return "", errorf("too many arguments: %d placeholders, %d values", n, len(args))
	}
	sb.WriteString(sql[last:])
	return sb.String(), nil
}

// intentConflictLocked reports a table among a commit's writes that a
// prepared transaction's intent pins against it; rewrote is the subset
// of them the commit did more to than append rows. An exclusive intent
// blocks every write — even the caller's own: publishing into a
// prepared transaction's footprint would invalidate its PREPARE-time
// validation. An append intent blocks only rewrites. The caller holds
// db.wmu.
func (db *DB) intentConflictLocked(writes, rewrote map[string]bool) (string, bool) {
	if len(db.intents) == 0 {
		return "", false
	}
	for k := range writes {
		if it := db.intents[k]; it != nil && (it.exclusive || rewrote[k]) {
			return k, true
		}
	}
	return "", false
}

// releaseIntentsLocked drops one prepared transaction's hold on keys.
// The caller holds db.wmu.
func (db *DB) releaseIntentsLocked(keys []string) {
	for _, k := range keys {
		if it := db.intents[k]; it != nil {
			if it.holders--; it.holders == 0 {
				delete(db.intents, k)
			}
		}
	}
}

// announceCommit and retireCommit bracket the window between a
// committer entering the commit path (possibly queued on wmu) and its
// frame reaching the WAL buffer — or the commit aborting. While any
// committer is inside the window, the WAL flusher briefly yields
// before fsyncing so the whole cohort lands in one group fsync instead
// of a fragment syncing while the rest still validate (see
// groupWAL.flush). Every announceCommit must be retired on every exit
// path that can no longer enqueue a frame.
func (db *DB) announceCommit() { db.commitArrivals.Add(1) }
func (db *DB) retireCommit()   { db.commitArrivals.Add(-1) }

func (db *DB) execMutation(ws *writeState, st Statement) (*Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		return db.execCreateTable(ws, s)
	case *DropTableStmt:
		key := lower(s.Name)
		t, ok := ws.tab(key)
		if !ok {
			if s.IfExists {
				return &Result{}, nil
			}
			return nil, errorf("no such table %q", s.Name)
		}
		ws.dropTemp = t.temp
		ws.drop(key)
		return &Result{}, nil
	case *CreateIndexStmt:
		key := lower(s.Table)
		t, ok := ws.tab(key)
		if !ok {
			return nil, errorf("no such table %q", s.Table)
		}
		ci := t.schema.Index(s.Column)
		if ci < 0 {
			return nil, errorf("no column %q in table %q", s.Column, s.Table)
		}
		if s.IfNotExists && t.hasIndex(lower(s.Column)) {
			return &Result{}, nil
		}
		nt, err := ws.modify(key)
		if err != nil {
			return nil, err
		}
		nt.addIndex(ci)
		// Index choice is made per execution, but bump anyway so
		// EXPLAIN-sensitive consumers never see a stale plan.
		ws.schemaChanged(nt)
		return &Result{}, nil
	case *AlterTableStmt:
		return db.execAlter(ws, s)
	case *InsertStmt:
		return db.execInsert(ws, s)
	case *UpdateStmt:
		return db.execUpdate(ws, s)
	case *DeleteStmt:
		return db.execDelete(ws, s)
	}
	return nil, errorf("unsupported statement %T", st)
}

func (db *DB) execCreateTable(ws *writeState, s *CreateTableStmt) (*Result, error) {
	key := lower(s.Name)
	if _, exists := ws.tab(key); exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, tableExists(s.Name)
	}
	if s.As != nil {
		// The select's rows take the INSERT ... SELECT route into the new
		// table, whose columns are the select's.
		sn := ws.readView()
		p, err := sn.planSelect(s.As)
		if err != nil {
			return nil, err
		}
		t := newTable(s.Name, p.outSchema, s.Temp)
		colPos, _ := t.columnPositions(nil)
		k := newTableSink(t, colPos)
		if err := sn.pourSelect(s.As, p, k); err != nil {
			return nil, err
		}
		k.appendTo(t)
		ws.put(t)
		return &Result{Affected: k.n}, nil
	}
	if len(s.Cols) == 0 {
		return nil, errorf("CREATE TABLE %s: no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		if seen[lower(c.Name)] {
			return nil, errorf("duplicate column %q", c.Name)
		}
		seen[lower(c.Name)] = true
	}
	ws.put(newTable(s.Name, s.Cols, s.Temp))
	return &Result{}, nil
}

func (db *DB) execInsert(ws *writeState, s *InsertStmt) (*Result, error) {
	key := lower(s.Table)
	t, ok := ws.tab(key)
	if !ok {
		return nil, errorf("no such table %q", s.Table)
	}
	colPos, err := t.columnPositions(s.Cols)
	if err != nil {
		return nil, err
	}
	if s.From == nil {
		inRows, err := valuesRows(s)
		if err != nil {
			return nil, err
		}
		nt, err := ws.appendTo(key)
		if err != nil {
			return nil, err
		}
		if err := nt.appendRows(colPos, inRows); err != nil {
			return nil, err
		}
		return &Result{Affected: len(inRows)}, nil
	}
	// Every branch reads the snapshot the statement started from, and
	// its rows are converted straight into their place in one chunk —
	// the chunk a bulk insert of the same rows would leave, so where a
	// vector is built does not show in its layout, nor in the order
	// floating-point aggregates over it add up. The table is touched
	// only once the last branch has succeeded.
	sn := ws.readView()
	p, err := sn.planSelect(s.From)
	if err != nil {
		return nil, err
	}
	if len(p.outSchema) != len(colPos) {
		return nil, insertArity(t, len(p.outSchema), len(colPos))
	}
	k := newTableSink(t, colPos)
	if err := sn.pourSelect(s.From, p, k); err != nil {
		return nil, err
	}
	if k.n == 0 {
		return &Result{}, nil // nothing to append: the table stays as it is
	}
	nt, err := ws.appendTo(key)
	if err != nil {
		return nil, err
	}
	k.appendTo(nt)
	return &Result{Affected: k.n}, nil
}

// columnPositions maps the named columns to their table positions; no
// names means every column, in order. Naming a column twice is an error.
func (t *table) columnPositions(cols []string) ([]int, error) {
	if len(cols) == 0 {
		colPos := make([]int, len(t.schema))
		for i := range colPos {
			colPos[i] = i
		}
		return colPos, nil
	}
	colPos := make([]int, len(cols))
	for i, c := range cols {
		ci := t.schema.Index(c)
		if ci < 0 {
			return nil, errorf("no column %q in table %q", c, t.name)
		}
		if slices.Contains(colPos[:i], ci) {
			return nil, errorf("column %q named twice in INSERT into %s", c, t.name)
		}
		colPos[i] = ci
	}
	return colPos, nil
}

// appendRows coerces rows (positionally matching colPos, other columns
// NULL) to the schema types and appends them as one exactly-sized chunk.
// Only legal on a mutable version.
func (t *table) appendRows(colPos []int, rows []Row) error {
	k := newTableSink(t, colPos)
	if err := k.addRows(rows); err != nil {
		return err
	}
	t.appendChunk(k.chunk())
	return nil
}

// tableSink collects the rows a statement adds to a table, in the
// table's layout: every value converted to its column's type at its
// column's position, the columns the statement does not name NULL, all
// rows in one flat backing array — R rows cost O(1) slice allocations
// and end up contiguous in memory for the scans that follow — or, for a
// pour (pourVec in pour.go), one vector per column. The table is not
// touched until the statement has produced its last row; appendTo then
// appends the one chunk. VALUES, InsertRows and a SELECT that pourVec
// declines (pourSelect in exec.go) add the rows they have.
type tableSink struct {
	t      *table
	colPos []int // incoming column -> table column
	rest   []int // table columns no incoming column fills
	vals   []value.Value
	n      int // rows so far

	// cols is the columnar chunk pourVec built in place of rows, and env
	// the database's.
	cols []colVec
	env  *execEnv

	// Of the select branch being poured: the types its columns have in
	// the branch and in the statement, which differ where the compound
	// reconciled them. Values pass through the statement's type on their
	// way to the table's, as they would on their way into a result. Both
	// nil for rows that come from no select.
	branch, out Schema

	ctx execCtx // pourRows' row filter's and items', kept here to be allocated once
}

func newTableSink(t *table, colPos []int) *tableSink {
	k := &tableSink{t: t, colPos: colPos}
	if len(colPos) < len(t.schema) {
		for ci := range t.schema {
			if !slices.Contains(colPos, ci) {
				k.rest = append(k.rest, ci)
			}
		}
	}
	return k
}

// put stores the row's j-th incoming value.
func (k *tableSink) put(row Row, j int, v *value.Value) error {
	c := &k.t.schema[k.colPos[j]]
	if v.IsNull() {
		row[k.colPos[j]] = value.Null(c.Type)
		return nil
	}
	if k.out != nil && k.branch[j].Type != k.out[j].Type {
		rv, err := reconcile(*v, k.out[j])
		if err != nil {
			return err
		}
		v = &rv
	}
	if v.Type() == c.Type {
		row[k.colPos[j]] = *v
		return nil
	}
	cv, err := v.Convert(c.Type)
	if err != nil {
		return errorf("column %q: %v", c.Name, err)
	}
	row[k.colPos[j]] = cv
	return nil
}

// addRows adds finished rows. Room is made for them at once: exactly
// that the first time, so that a statement whose rows come in one batch
// builds the chunk's backing array in place.
func (k *tableSink) addRows(rows []Row) error {
	w := len(k.t.schema)
	if n := len(rows) * w; cap(k.vals) == 0 {
		k.vals = make([]value.Value, 0, n)
	} else {
		k.vals = slices.Grow(k.vals, n)
	}
	for _, in := range rows {
		if len(in) != len(k.colPos) {
			return insertArity(k.t, len(in), len(k.colPos))
		}
		at := len(k.vals)
		k.vals = k.vals[:at+w]
		row := k.vals[at:]
		for _, ci := range k.rest {
			row[ci] = value.Null(k.t.schema[ci].Type)
		}
		for j := range in {
			if err := k.put(row, j, &in[j]); err != nil {
				return err
			}
		}
		k.n++
	}
	return nil
}

// appendTo appends the rows to t, a mutable version, as one chunk: the
// columnar chunk pourVec built, into a temp table with no index; the
// rows it derives, into any other table, which wants rows at once; or
// the rows.
func (k *tableSink) appendTo(t *table) {
	switch {
	case k.cols == nil:
		t.appendChunk(k.chunk())
	case t.temp && !t.indexed():
		t.appendCols(k.cols, k.n, k.env)
	default:
		t.appendChunk((&colChunk{vecs: k.cols, n: k.n}).boxRows())
	}
}

// chunk cuts the rows into the chunk to append: exactly sized, backing
// array included — a published chunk lives as long as its table.
func (k *tableSink) chunk() []Row {
	vals := k.vals
	if cap(vals) > len(vals) {
		vals = append(make([]value.Value, 0, len(vals)), vals...)
	}
	w := len(k.t.schema)
	rows := make([]Row, k.n)
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// tableECSchema builds the evaluation schema of a single table: its
// columns under both bare and qualified names is handled by evalCtx,
// so qualify with the table name here.
func tableECSchema(t *table) Schema {
	s := make(Schema, len(t.schema))
	for i, c := range t.schema {
		s[i] = Column{Name: t.name + "." + c.Name, Type: c.Type}
	}
	return s
}

func (db *DB) execUpdate(ws *writeState, s *UpdateStmt) (*Result, error) {
	t, ok := ws.tab(lower(s.Table))
	if !ok {
		return nil, errorf("no such table %q", s.Table)
	}
	// Resolve SET targets and compile all expressions once.
	type setOp struct {
		ci int
		e  compiledExpr
	}
	ec := newEvalCtx(tableECSchema(t))
	sets := make([]setOp, len(s.Set))
	for i, a := range s.Set {
		ci := t.schema.Index(a.Col)
		if ci < 0 {
			return nil, errorf("no column %q in table %q", a.Col, s.Table)
		}
		sets[i] = setOp{ci, ec.compile(a.E)}
	}
	affected, err := ws.rewriteWhere(t, ec, s.Where, func(ctx *execCtx) (Row, error) {
		updated := make(Row, len(ctx.row))
		copy(updated, ctx.row)
		for _, op := range sets {
			v, err := op.e(ctx)
			if err != nil {
				return nil, err
			}
			if updated[op.ci], err = v.Convert(t.schema[op.ci].Type); err != nil {
				return nil, errorf("column %q: %v", t.schema[op.ci].Name, err)
			}
		}
		return updated, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

func (db *DB) execDelete(ws *writeState, s *DeleteStmt) (*Result, error) {
	t, ok := ws.tab(lower(s.Table))
	if !ok {
		return nil, errorf("no such table %q", s.Table)
	}
	deleted, err := ws.rewriteWhere(t, newEvalCtx(tableECSchema(t)), s.Where,
		func(*execCtx) (Row, error) { return nil, nil })
	if err != nil {
		return nil, err
	}
	return &Result{Affected: deleted}, nil
}

// rewriteWhere rewrites the rows of t, the table's version at the
// statement's start, that where (typed in ec) matches — every row, for a
// nil where — into what set makes of each, nil deleting it, and returns
// how many matched (table.rewrite). The rewritten version is installed
// only when a row matched: an UPDATE or DELETE that matches none leaves
// no version and no write behind. The table is marked rewritten either
// way, since a scan decided.
func (ws *writeState) rewriteWhere(t *table, ec *evalCtx, where sqlExpr, set func(*execCtx) (Row, error)) (int, error) {
	ws.markRewrite(t.key)
	var match func(*execCtx) (bool, error)
	if where != nil {
		match = rowFilter(ec.typed(where))
	}
	nt, err := t.derive()
	if err != nil {
		return 0, err
	}
	ctx := &execCtx{}
	n, err := nt.rewrite(func(row Row) (Row, bool, error) {
		ctx.row = row
		if match != nil {
			if ok, err := match(ctx); err != nil || !ok {
				return row, false, err
			}
		}
		nr, err := set(ctx)
		return nr, err == nil, err
	})
	if n > 0 {
		ws.cat = ws.cat.set(nt)
		mark(&ws.touched, t.key)
	}
	return n, err
}

// BulkInserter is the fast-path interface for inserting pre-typed rows
// without going through SQL text. Both *DB and the wire client
// implement it; the query engine uses it to move vectors between
// elements and servers cheaply.
type BulkInserter interface {
	// InsertRows appends rows (positionally matching cols) to table,
	// coercing values to the column types. It returns the number of
	// rows inserted.
	InsertRows(table string, cols []string, rows []Row) (int, error)
}

// InsertRows implements BulkInserter: the batch is a transaction of its
// own.
func (db *DB) InsertRows(tableName string, cols []string, rows []Row) (int, error) {
	if err := db.hookReentry(); err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	return db.insertOne(tableName, cols, rows)
}

// insertRowsWS appends a typed row batch to a table inside a working
// state. It returns the derived table for temp-ness and name
// inspection.
func insertRowsWS(ws *writeState, tableName string, cols []string, rows []Row) (*table, int, error) {
	key := lower(tableName)
	t, ok := ws.tab(key)
	if !ok {
		return nil, 0, errorf("no such table %q", tableName)
	}
	colPos, err := t.columnPositions(cols)
	if err != nil {
		return nil, 0, err
	}
	nt, err := ws.appendTo(key)
	if err != nil {
		return nil, 0, err
	}
	if err := nt.appendRows(colPos, rows); err != nil {
		return nil, 0, err
	}
	return nt, len(rows), nil
}

// Tables returns the names of all tables, sorted.
func (db *DB) Tables() []string {
	cat := db.state.Load().cat
	names := make([]string, 0, cat.len())
	for t := range cat.all() {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// TableSchema returns the schema of the named table.
func (db *DB) TableSchema(name string) (Schema, bool) {
	t, ok := db.state.Load().table(name)
	if !ok {
		return nil, false
	}
	return t.schema.clone(), true
}

// RowCount returns the number of rows in the named table.
func (db *DB) RowCount(name string) (int, bool) {
	t, ok := db.state.Load().table(name)
	if !ok {
		return 0, false
	}
	return t.nrows, true
}
