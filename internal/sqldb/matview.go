package sqldb

// Incremental materialized views.
//
// A ViewRegistry keeps named aggregate SELECTs continuously evaluated
// against the database. It subscribes to the commit stream with
// AddCommitHook; the hook only enqueues (commit hooks run under the
// writer latch and must not do work — see CommitHook), and a single
// worker goroutine applies frames in commit order. Views over a single
// table are maintained incrementally: a literal INSERT's rows are fed
// straight into the view's retained group table (aggregate.go) through
// the row engine's own addRow, so maintenance cost is O(delta) instead
// of O(table). Any delta the incremental path cannot express
// exactly — UPDATE, DELETE, DDL on the base table, INSERT ... SELECT —
// falls back to a full rebuild from a consistent snapshot. Views with
// joins or multiple FROM tables always rebuild.
//
// Each view's current result is published behind an atomic.Pointer and
// served lock-free, like the engine's own snapshots: a dashboard read
// is one pointer load regardless of ingest traffic. The registry keeps
// no persistent state; after a crash, re-registering a view rebuilds
// it from the recovered snapshot, which is exactly the full-recompute
// path, so recovery cannot diverge from on-demand execution.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// fpViewApply fires in the worker loop before a frame is applied to
// the view state (crash-torture: die between commit and view apply).
var fpViewApply = failpoint.Site("live/view-apply")

// ViewResult is one published evaluation of a materialized view: the
// result of its defining SELECT as of replication position Pos. Err is
// set when the last rebuild failed (e.g. the base table was dropped);
// Res then holds the last good result, possibly nil.
type ViewResult struct {
	Res *Result
	Pos ReplPos
	Err error
}

// matView is one registered view. All mutable fields besides out are
// owned by the registry worker goroutine.
type matView struct {
	name string
	sql  string
	st   *SelectStmt

	// Incremental maintenance state. incremental is decided once at
	// registration from the statement shape: exactly one FROM table and
	// no joins. baseKey is that table's lower-cased name; refs holds
	// every referenced table (for rebuild-only views).
	incremental bool
	baseKey     string
	refs        map[string]bool

	plan       *compiledSelect
	baseSchema Schema // base table schema captured at last rebuild

	// Retained accumulation state: the group table of a grouped view
	// (aggregate.go), the projected rows of an ungrouped one.
	groups  *groupTable
	outRows []Row
	reps    []Row

	pos     ReplPos // state reflects commits up to and including pos
	pending bool    // registered, awaiting first rebuild
	lastErr error   // set by fail; the view is unbuilt (plan == nil)

	out atomic.Pointer[ViewResult]
}

// viewEvent is one work item for the registry worker: a committed
// frame (stmts != nil), a WAL rotation (stmts == nil, rebuild == nil),
// or a registration rebuild request.
type viewEvent struct {
	pos     ReplPos
	stmts   []string
	rebuild *matView
}

// ViewRegistry maintains a set of materialized views over one DB.
type ViewRegistry struct {
	db     *DB
	remove func()

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []viewEvent
	views  map[string]*matView
	closed bool

	applied     ReplPos
	appliedCond *sync.Cond

	done chan struct{}
}

// NewViewRegistry attaches a view registry to db. Close detaches it.
func NewViewRegistry(db *DB) *ViewRegistry {
	r := &ViewRegistry{db: db, views: map[string]*matView{}, done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	r.appliedCond = sync.NewCond(&r.mu)
	// Everything committed before the registry existed is covered by
	// the initial rebuilds, which read at or after this position — on a
	// reopened durable database the recovered position is far from
	// zero, and WaitPos callers must not wait for frames that already
	// happened.
	r.applied = db.Pos()
	r.remove = db.AddCommitHook(func(pos ReplPos, stmts []string) {
		r.mu.Lock()
		if !r.closed {
			r.queue = append(r.queue, viewEvent{pos: pos, stmts: stmts})
			r.cond.Signal()
		}
		r.mu.Unlock()
	})
	go r.run()
	return r
}

// Close detaches the registry from the commit stream and stops the
// worker. Published results remain readable.
func (r *ViewRegistry) Close() {
	r.remove()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cond.Signal()
	r.mu.Unlock()
	<-r.done
}

// Register adds (or replaces) a named materialized view defined by a
// SELECT statement and waits for its initial evaluation, so a
// successful Register is immediately followed by a readable Get. The
// rebuild itself runs on the worker in commit order; a malformed or
// non-SELECT statement fails here, while execution errors (unknown
// table, bad expression) surface through Get.
func (r *ViewRegistry) Register(name, sql string) error {
	st, err := Parse(sql)
	if err != nil {
		return err
	}
	sel, ok := st.(*SelectStmt)
	if !ok || sel.Partial {
		return errorf("materialized view %q: not a SELECT", name)
	}
	v := &matView{name: name, sql: sql, st: sel, pending: true}
	v.refs = map[string]bool{}
	collectTables(sel, v.refs)
	// A compound select has no FROM of its own: it is rebuilt in full.
	v.incremental = len(sel.From) == 1 && len(sel.Joins) == 0
	if v.incremental {
		v.baseKey = lower(sel.From[0].Table)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errorf("materialized view %q: registry closed", name)
	}
	r.views[name] = v
	r.queue = append(r.queue, viewEvent{rebuild: v})
	r.cond.Signal()
	for v.pending && !r.closed {
		r.appliedCond.Wait()
	}
	r.mu.Unlock()
	return nil
}

// Unregister removes a view. Reads after Unregister fail; in-flight
// reads of the last published result stay valid.
func (r *ViewRegistry) Unregister(name string) {
	r.mu.Lock()
	delete(r.views, name)
	r.mu.Unlock()
}

// Get returns the current materialization: the result of the view's
// defining SELECT as of the returned position. The read is one atomic
// pointer load; it never touches the database or blocks on ingest.
func (r *ViewRegistry) Get(name string) (*Result, ReplPos, error) {
	r.mu.Lock()
	v, ok := r.views[name]
	r.mu.Unlock()
	if !ok {
		return nil, ReplPos{}, errorf("no materialized view %q", name)
	}
	vr := v.out.Load()
	if vr == nil {
		return nil, ReplPos{}, errorf("materialized view %q: not yet evaluated", name)
	}
	if vr.Err != nil {
		return vr.Res, vr.Pos, vr.Err
	}
	return vr.Res, vr.Pos, nil
}

// Names lists the readable views in sorted order: a view whose Register
// is still waiting for the initial evaluation is not listed yet, so a
// concurrent reader never Gets a name that has nothing to return.
func (r *ViewRegistry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.views))
	for n, v := range r.views {
		if v.out.Load() != nil {
			names = append(names, n)
		}
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// WaitPos blocks until every view reflects commits up to pos (or the
// timeout expires). Ingest tests and read-your-writes view fetches use
// it to line a read up with a known commit.
func (r *ViewRegistry) WaitPos(pos ReplPos, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.appliedCond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied.Before(pos) && !r.closed {
		if !time.Now().Before(deadline) {
			return errorf("materialized views: timed out waiting for %v (applied %v)", pos, r.applied)
		}
		r.appliedCond.Wait()
	}
	return nil
}

// run is the registry worker: it drains the event queue in order and
// applies each item to every view.
func (r *ViewRegistry) run() {
	defer close(r.done)
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed && len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		ev := r.queue[0]
		r.queue = r.queue[1:]
		views := make([]*matView, 0, len(r.views))
		for _, v := range r.views {
			views = append(views, v)
		}
		r.mu.Unlock()

		if ev.rebuild != nil {
			// Registration rebuilds bypass the failpoint: an injected
			// error must not leave the view pending forever (Register
			// blocks until pending clears).
			r.rebuild(ev.rebuild)
			r.mu.Lock()
			ev.rebuild.pending = false
			r.appliedCond.Broadcast()
			r.mu.Unlock()
			continue
		}
		if err := fpViewApply.Inject(); err != nil {
			// An injected error skips the apply (the crash/panic specs
			// never return); the next rebuild resynchronizes.
			continue
		}
		// Parsed once per frame, not once per view.
		targets := make([]frameStmt, len(ev.stmts))
		for i, s := range ev.stmts {
			targets[i].table, targets[i].st = stmtTarget(s)
		}
		for _, v := range views {
			r.applyEvent(v, ev, targets)
		}
		r.mu.Lock()
		if r.applied.Before(ev.pos) {
			r.applied = ev.pos
		}
		r.appliedCond.Broadcast()
		r.mu.Unlock()
	}
}

// frameStmt is one statement of a committed frame as stmtTarget reads
// it.
type frameStmt struct {
	table string
	st    Statement
}

// applyEvent advances one view past one committed frame, whose
// statements are stmts.
func (r *ViewRegistry) applyEvent(v *matView, ev viewEvent, stmts []frameStmt) {
	if v.pending || !v.pos.Before(ev.pos) {
		return // not built yet, or a rebuild already covered this frame
	}
	if ev.stmts == nil {
		// WAL rotation: no data changed, only the epoch. Republish the
		// current result at the new position.
		v.pos = ev.pos
		v.publish()
		return
	}
	if !v.incremental {
		for _, s := range stmts {
			if s.table == "*" || (s.table != "" && v.refs[s.table]) {
				r.rebuild(v)
				return
			}
		}
		v.pos = ev.pos
		v.publish()
		return
	}
	// Incremental: apply literal INSERTs on the base table; anything
	// else that touches it forces a rebuild.
	for _, s := range stmts {
		if s.table == "*" {
			// Wildcard: the statement could mutate any table.
			r.rebuild(v)
			return
		}
		if s.table != v.baseKey {
			continue
		}
		ins, ok := s.st.(*InsertStmt)
		if !ok || ins.From != nil {
			r.rebuild(v)
			return
		}
		if err := v.applyInsert(ins); err != nil {
			r.rebuild(v)
			return
		}
	}
	v.pos = ev.pos
	v.publish()
}

// stmtTarget parses one frame statement and names the table it
// mutates ("" for statements that cannot affect view contents, e.g.
// CREATE INDEX). Unparseable statements return the impossible key "*"
// so every view conservatively rebuilds.
func stmtTarget(sql string) (string, Statement) {
	st, err := Parse(sql)
	if err != nil {
		return "*", nil
	}
	switch s := st.(type) {
	case *InsertStmt:
		return lower(s.Table), st
	case *UpdateStmt:
		return lower(s.Table), st
	case *DeleteStmt:
		return lower(s.Table), st
	case *CreateTableStmt:
		return lower(s.Name), st
	case *DropTableStmt:
		return lower(s.Name), st
	case *AlterTableStmt:
		if s.Rename != "" {
			// A rename touches two names (old and new); any view whose
			// base resolves to either must rebuild.
			return "*", st
		}
		return lower(s.Table), st
	case *CreateIndexStmt:
		return "", st // no row changes
	default:
		return "*", st
	}
}

// rebuild recomputes a view from scratch against a consistent
// (snapshot, position) pair and resets its incremental state. The
// snapshot is read under the writer latch so its contents and position
// cannot straddle a commit; execution then runs lock-free against the
// immutable snapshot.
func (r *ViewRegistry) rebuild(v *matView) {
	db := r.db
	db.wmu.Lock()
	sn := db.state.Load()
	pos := db.Pos()
	db.wmu.Unlock()

	v.resetState()
	v.pos = pos

	plan, err := sn.planSelect(v.st)
	if err != nil {
		v.fail(err)
		return
	}
	v.plan = plan

	if !v.incremental {
		res, err := sn.runSelect(v.st, plan)
		if err != nil {
			v.fail(err)
			return
		}
		v.out.Store(&ViewResult{Res: res, Pos: pos})
		return
	}

	t, ok := sn.table(v.baseKey)
	if !ok {
		v.fail(errorf("no such table %q", v.st.From[0].Table))
		return
	}
	v.baseSchema = t.schema
	if plan.grouped {
		v.groups = newGroupTable(v.st, plan)
	}
	chunks, err := t.chunks()
	if err != nil {
		v.fail(err)
		return
	}
	for _, chunk := range chunks {
		for _, row := range chunk {
			if err := v.accumulate(row); err != nil {
				v.fail(err)
				return
			}
		}
	}
	v.publish()
}

// resetState clears all accumulation state ahead of a rebuild.
func (v *matView) resetState() {
	v.groups, v.outRows, v.reps = nil, nil, nil
	v.plan, v.baseSchema = nil, nil
}

// fail publishes an error state, keeping the last good result visible.
func (v *matView) fail(err error) {
	v.lastErr = err
	var last *Result
	if prev := v.out.Load(); prev != nil {
		last = prev.Res
	}
	v.out.Store(&ViewResult{Res: last, Pos: v.pos, Err: err})
}

// applyInsert folds one literal INSERT's rows into the view state,
// mirroring execInsert's column mapping, NULL fill and type coercion
// so the accumulated rows are exactly the rows the table received.
func (v *matView) applyInsert(ins *InsertStmt) error {
	schema := v.baseSchema
	var colPos []int
	if len(ins.Cols) == 0 {
		colPos = make([]int, len(schema))
		for i := range schema {
			colPos[i] = i
		}
	} else {
		colPos = make([]int, len(ins.Cols))
		for i, c := range ins.Cols {
			ci := schema.Index(c)
			if ci < 0 {
				return errorf("no column %q", c)
			}
			colPos[i] = ci
		}
	}
	vals, err := valuesRows(ins)
	if err != nil {
		return err
	}
	for _, in := range vals {
		if len(in) != len(colPos) {
			return errorf("%d values for %d columns", len(in), len(colPos))
		}
		row := make(Row, len(schema))
		for i, c := range schema {
			row[i] = value.Null(c.Type)
		}
		for i, val := range in {
			cv, err := val.Convert(schema[colPos[i]].Type)
			if err != nil {
				return err
			}
			row[colPos[i]] = cv
		}
		if err := v.accumulate(row); err != nil {
			return err
		}
	}
	return nil
}

// accumulate feeds one base-table row into the view's retained state:
// the group table's addRow for a grouped view — the row engine's own
// per-row work, so replaying a table's rows in order leaves the view in
// the state a fresh scan would have produced, including first-seen
// group order, which for an append-only table matches scan order — or
// filter and projection for an ungrouped one.
func (v *matView) accumulate(row Row) error {
	p := v.plan
	if p.grouped {
		return v.groups.addRow(row)
	}
	ctx := &execCtx{row: row}
	if keep, err := p.keep(ctx); !keep || err != nil {
		return err
	}
	out, err := p.projectRow(v.st, ctx, row)
	if err != nil {
		return err
	}
	v.outRows = append(v.outRows, out)
	if len(v.st.OrderBy) > 0 && !v.st.Distinct {
		v.reps = append(v.reps, row)
	}
	return nil
}

// publish renders the retained state into a Result and swaps it in
// behind the atomic pointer. Rendering leaves the state as it was
// (groupTable.render is re-entrant, finish copies what it reorders).
func (v *matView) publish() {
	if v.plan == nil {
		// The last rebuild failed before planning (e.g. the base table
		// is gone); there is nothing to render. Republish the error at
		// the current position instead of dereferencing a nil plan.
		v.fail(v.lastErr)
		return
	}
	var res *Result
	var err error
	switch {
	case !v.incremental:
		// Rebuilt in full and nothing retained: what the last rebuild
		// published stands, at the new position.
		last := v.out.Load()
		res, err = last.Res, last.Err
	case v.plan.grouped:
		res, err = v.groups.render()
	default:
		res, err = v.plan.finish(v.st, v.outRows, v.reps, nil)
	}
	if err != nil {
		v.fail(err)
		return
	}
	v.out.Store(&ViewResult{Res: res, Pos: v.pos})
}
