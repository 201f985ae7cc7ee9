package sqldb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// This file implements the one commit protocol of the engine:
// optimistic concurrency control on top of the MVCC overlay machinery
// in snapshot.go.
//
// Every mutation runs inside a transaction, and a transaction belongs
// to a Session, never to the database. BEGIN opens one on the Session
// (at most one per session); a mutation outside BEGIN — a SQL statement
// or an InsertRows batch, from a DB or a Session — is a transaction of
// one statement (runOne). DB.Exec refuses transaction control
// (ErrNoSession); WAL replay and a replica apply a committed frame as
// one BEGIN … COMMIT pipeline on a private session. Either way the
// transaction pins the current committed snapshot as its base; each
// statement builds a private overlay snapshot derived from the previous
// one, with no lock held, so the transaction reads its own writes while
// the committed state (and every other session) is completely
// unaffected. As statements execute, the transaction records its write
// set (table keys it mutated) and its read set: tables it scanned,
// refined to index point-probes where the scan was served by a hash
// index.
//
// The commit (commitTxn) validates under the commit latch (DB.wmu, held
// briefly): the transaction may publish iff no transaction committed
// since its base changed any table in its read or write set. Point
// reads revalidate by re-probing the index and comparing result
// fingerprints, so two transactions touching different keys of a hot
// table don't conflict just because they share it. On success the
// overlay merges into the current committed snapshot and the
// transaction's statements enter the group-commit WAL as one frame; the
// commit hooks fire under the latch, so replication frames are emitted
// in publish order. On conflict every buffered change is discarded. A
// BEGIN ... COMMIT transaction then fails with the typed ErrTxnConflict,
// telling the caller to re-run it; a one-statement transaction, of which
// nothing was ever visible, is re-run here against the new state, so a
// statement outside BEGIN never reports a validation conflict.
//
// Writers therefore execute truly in parallel — a microsecond DDL never
// waits for another session's long INSERT ... SELECT — and disjoint-
// table writers commit in parallel too: validation touches only their
// own keys, and the WAL flusher batches their frames into shared
// fsyncs.
//
// Blind appends. The write set distinguishes a table the transaction
// rewrote (UPDATE, DELETE, DDL) from one it only appended rows to. A
// table whose whole footprint is appended rows — never rewritten, never
// read, not by the transaction's own INSERT ... SELECT and not by an
// UPDATE or DELETE whose scan matched no row — is a blind append:
// appending rows commutes with every other writer's appends, so
// validation passes it while the table still exists at the same schema
// version, and the commit re-derives the table from the then-current
// version and appends the transaction's own rows instead of installing
// the overlay's version. Many writers inserting into one shared table
// therefore never conflict with each other; WAL and replica order is
// the commit order under the latch, so replay reproduces the row order.

// ErrTxnConflict is returned by COMMIT when another transaction
// committed a conflicting change after this transaction began. The
// transaction has been rolled back; the caller should re-run it from
// BEGIN (wire clients can use Client.RunTxn for automatic retry). A
// statement outside BEGIN returns it only for a write into the footprint
// of a prepared transaction, which re-running cannot get past.
var ErrTxnConflict = errors.New("sqldb: transaction conflict")

// conflictError is ErrTxnConflict on one table: held when a prepared
// transaction's intent pins the table, else a failed validation.
type conflictError struct {
	key  string
	held bool
}

func (e *conflictError) Error() string {
	if e.held {
		return fmt.Sprintf("%v: table %q is locked by a prepared transaction", ErrTxnConflict, e.key)
	}
	return fmt.Sprintf("%v: table %q changed since BEGIN", ErrTxnConflict, e.key)
}

func (e *conflictError) Unwrap() error { return ErrTxnConflict }

// Failpoints covering the commit protocol: a crash between validation
// and publish, or between publish and the WAL enqueue, must never leak
// a half-committed overlay into the reopened database.
var (
	fpTxnValidate = failpoint.Site("sqldb/txn/validate")
	fpTxnPublish  = failpoint.Site("sqldb/txn/publish")
	fpTxnWAL      = failpoint.Site("sqldb/txn/wal")
)

// Session is one transactional execution context. Sessions are cheap;
// the wire server creates one per connection. Methods on a Session
// serialize on its mutex, but any number of sessions run (and commit)
// concurrently. A Session with no open transaction executes each
// mutation as a transaction of its own, exactly like DB.Exec.
type Session struct {
	db *DB

	mu sync.Mutex
	// tx is the open transaction, nil outside one. Written under mu;
	// atomic so InTxn answers without it.
	tx atomic.Pointer[sessionTxn]
	// prep is the transaction parked by PREPARE TRANSACTION, nil
	// outside a two-phase commit. Guarded by mu.
	prep *preparedTxn
}

// preparedTxn is a validated transaction awaiting COMMIT PREPARED /
// ROLLBACK PREPARED. While it exists, the database holds intents on
// every table in its footprint (see prepareLocked), so its eventual
// publication cannot be invalidated by other committers.
type preparedTxn struct {
	tx   *sessionTxn
	gid  string
	keys []string // lower-cased footprint tables with intents installed
}

// tableIntent is the intent prepared transactions hold on one table.
// A transaction that only blind-appends to the table takes it shared
// with other appenders; any other footprint (read, rewrite, DDL) takes
// it exclusive.
type tableIntent struct {
	exclusive bool
	holders   int
}

// NewSession creates an independent transactional session.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// sessionTxn is the state of one open transaction.
type sessionTxn struct {
	// base is the committed snapshot the transaction began from.
	base *snapshot
	// over is the current private overlay: base plus every statement
	// executed so far.
	over *snapshot
	// reads is the accumulated read set.
	reads readTracker
	// writes is the set of (lower-cased) table keys the transaction
	// mutated, schema the subset needing plan invalidation. rewrites holds
	// the tables a rewriting statement (UPDATE, DELETE, DDL) ran over: the
	// written ones among them got more than rows appended, and one outside
	// writes was scanned by an UPDATE or DELETE that matched no row. Each
	// is nil until a statement has an entry for it (see install).
	writes   map[string]bool
	rewrites map[string]bool
	schema   map[string]bool
	// log buffers the raw SQL of replicated statements; COMMIT emits
	// them as one WAL frame.
	log []string
	// plans caches statements compiled inside the transaction. Entries
	// are promoted to the shared LRU only on commit: an aborted DDL's
	// plan shape must not linger in the shared cache.
	plans map[string]*cachedPlan
}

// beginTxn starts a transaction on the current committed state.
func (db *DB) beginTxn() *sessionTxn {
	base := db.state.Load()
	return &sessionTxn{base: base, over: base}
}

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool { return s.tx.Load() != nil }

// Exec parses and executes one SQL statement in this session: inside
// its open transaction if it has one, else a read on the committed state
// and any other statement as a transaction of its own.
func (s *Session) Exec(sql string) (*Result, error) {
	if err := s.db.hookReentry(); err != nil {
		return nil, err
	}
	cp, err := s.db.sharedPlan(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if tx := s.tx.Load(); tx != nil {
		defer s.mu.Unlock()
		return s.execTxn(tx, cp, sql)
	}
	switch cp.st.(type) {
	case *BeginStmt:
		s.tx.Store(s.db.beginTxn())
		s.mu.Unlock()
		return &Result{}, nil
	case *CommitStmt, *RollbackStmt, *PrepareStmt:
		s.mu.Unlock()
		return nil, errorf("no open transaction")
	case *CommitPreparedStmt:
		defer s.mu.Unlock()
		return s.commitPreparedLocked()
	case *RollbackPreparedStmt:
		defer s.mu.Unlock()
		return s.rollbackPreparedLocked()
	case *SelectStmt, *ExplainStmt:
		s.mu.Unlock()
		return s.db.execRead(s.db.state.Load(), cp)
	}
	// A mutation outside BEGIN runs outside the session lock so
	// concurrent sessions' durability waits share group fsyncs.
	s.mu.Unlock()
	return s.db.execOne(cp.st, sql)
}

// Close rolls back any open transaction. The wire server closes the
// session when its connection drops, so a half-done interactive
// transaction cannot hold its buffered state forever.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollbackLocked() //nolint:errcheck // rollback of a discarded session
	if s.prep != nil {
		// A dropped connection must not pin its intents forever; the
		// coordinator's decision log redoes any committed transaction
		// this abort loses (see internal/shard).
		s.rollbackPreparedLocked() //nolint:errcheck
	}
}

// runOne runs a mutation outside BEGIN as what it is, a transaction of
// one statement: begin on the current state, apply with no lock held,
// commit — and wait for durability outside the latch, so concurrent
// committers share one group fsync. A validation conflict means a rival
// committed into the statement's footprint while it executed; nothing
// of the statement was visible, so it simply runs again on the new
// state. A statement that changed nothing — IF [NOT] EXISTS that did not
// apply, an UPDATE or DELETE matching no row — is not a commit: no
// snapshot, no WAL frame, no replication position.
func (db *DB) runOne(apply func(tx *sessionTxn) error) error {
	for {
		tx := db.beginTxn()
		if err := apply(tx); err != nil {
			return err
		}
		if len(tx.writes) == 0 {
			return nil
		}
		seq, err := db.commitTxn(tx)
		if ce, ok := err.(*conflictError); ok && !ce.held {
			continue
		}
		if err != nil {
			return err
		}
		return db.waitDurable(seq)
	}
}

// execOne runs a mutation outside BEGIN as a transaction of its own.
func (db *DB) execOne(st Statement, raw string) (*Result, error) {
	var res *Result
	err := db.runOne(func(tx *sessionTxn) (err error) {
		res, err = db.execTxnStmt(tx, st, raw)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// insertOne runs a typed row batch outside BEGIN as a transaction of its
// own.
func (db *DB) insertOne(tableName string, cols []string, rows []Row) (int, error) {
	var n int
	err := db.runOne(func(tx *sessionTxn) (err error) {
		n, err = db.insertTxnRows(tx, tableName, cols, rows)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// execTxn executes one statement inside an open transaction. The
// caller holds s.mu.
func (s *Session) execTxn(tx *sessionTxn, cp *cachedPlan, raw string) (*Result, error) {
	switch st := cp.st.(type) {
	case *BeginStmt:
		// One transaction per session; like the pre-session engine this
		// is the retryable busy error, kept distinct from a commit-time
		// conflict.
		return nil, ErrTxnBusy
	case *CommitStmt:
		return s.commitLocked(tx)
	case *RollbackStmt:
		return s.rollbackLocked()
	case *PrepareStmt:
		return s.prepareLocked(tx, st.Gid)
	case *CommitPreparedStmt, *RollbackPreparedStmt:
		return nil, errorf("cannot resolve a prepared transaction while a transaction is open")
	case *SelectStmt, *ExplainStmt:
		return s.db.execRead(tx.over.withReads(&tx.reads), tx.localPlan(cp, raw))
	}
	return s.db.execTxnStmt(tx, cp.st, raw)
}

// execTxnStmt executes one mutation statement inside tx and buffers its
// raw SQL for the commit frame unless the WAL and the replication
// stream have no use for it: a statement that changed nothing, one on a
// temporary table — resolved against the transaction's overlay, where a
// table created earlier in the transaction is visible — or a replayed
// one (raw == "").
func (db *DB) execTxnStmt(tx *sessionTxn, st Statement, raw string) (*Result, error) {
	ws := newWriteState(db, tx)
	res, err := db.execMutation(ws, st)
	if err != nil {
		// Statement atomicity inside the transaction: the failed
		// statement's working state is discarded, the overlay keeps the
		// last good state.
		return nil, err
	}
	tx.install(ws)
	if ws.changed() && raw != "" && db.replicates() {
		isTemp := func(name string) bool {
			t, ok := tx.over.table(name)
			return ok && t.temp
		}
		if !stmtSkipsLog(st, isTemp, ws.dropTemp) {
			tx.log = append(tx.log, raw)
		}
	}
	return res, nil
}

// insertTxnRows appends a typed row batch inside tx. For a durable
// table an equivalent INSERT statement joins the commit frame;
// temp-table inserts (the overwhelmingly common case: query element
// vectors) skip SQL entirely.
func (db *DB) insertTxnRows(tx *sessionTxn, tableName string, cols []string, rows []Row) (int, error) {
	ws := newWriteState(db, tx)
	nt, n, err := insertRowsWS(ws, tableName, cols, rows)
	if err != nil {
		return 0, err
	}
	tx.install(ws)
	if db.replicates() && !nt.temp {
		tx.log = append(tx.log, RenderInsertRows(nt.name, cols, rows))
	}
	return n, nil
}

// install makes a statement's working state the transaction's next
// private overlay and folds its key sets into the transaction's. The
// first statement's sets are taken over as they are, so a one-statement
// transaction allocates none of its own.
func (tx *sessionTxn) install(ws *writeState) {
	// Even a statement that changed nothing may have scanned: an UPDATE or
	// DELETE matching no row still ends the table's blindness.
	tx.rewrites = mergeKeys(tx.rewrites, ws.rewrote)
	if !ws.changed() {
		return
	}
	tx.over = ws.seal()
	tx.writes = mergeKeys(tx.writes, ws.touched)
	tx.schema = mergeKeys(tx.schema, ws.schema)
}

// mergeKeys returns the union of two key sets, reusing one of them.
func mergeKeys(into, from map[string]bool) map[string]bool {
	if into == nil {
		return from
	}
	maps.Copy(into, from)
	return into
}

// commitLocked validates and publishes the transaction; whatever the
// verdict, the transaction is over. The caller holds s.mu.
func (s *Session) commitLocked(tx *sessionTxn) (*Result, error) {
	defer s.tx.Store(nil)
	seq, err := s.db.commitTxn(tx)
	if err != nil {
		return nil, err
	}
	s.db.sharePlans(tx)
	// The durability wait happens outside the latch so concurrent
	// committers batch into one group fsync.
	if err := s.db.waitDurable(seq); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// commitTxn is the commit protocol: under the latch, validate the
// transaction against the committed state, refuse a write into a
// prepared transaction's footprint, then publish (publishTxn: snapshot,
// replication position, hooks, WAL enqueue). It returns the WAL
// sequence number to wait on for durability. A transaction that fails
// either check has published nothing.
func (db *DB) commitTxn(tx *sessionTxn) (seq uint64, err error) {
	// Announce before queueing on the commit latch: committers waiting
	// here are exactly the cohort the WAL flusher should gather into
	// one group fsync.
	db.announceCommit()
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.retireCommit()
	if err := fpTxnValidate.Inject(); err != nil {
		// An injected validation fault aborts the commit cleanly: the
		// transaction is discarded, nothing was published.
		return 0, err
	}
	if key, ok := validateTxn(db.state.Load(), tx); !ok {
		return 0, &conflictError{key: key}
	}
	if key, held := db.intentConflictLocked(tx.writes, tx.rewrites); held {
		return 0, &conflictError{key: key, held: true}
	}
	return db.publishTxn(tx), nil
}

// rollbackLocked discards the transaction. Nothing was ever published,
// and the plans compiled inside it stayed in its private entries, so
// rollback is a pointer drop. The caller holds s.mu.
func (s *Session) rollbackLocked() (*Result, error) {
	s.tx.Store(nil)
	return &Result{}, nil
}

// ------------------------------------------------- two-phase commit
//
// PREPARE TRANSACTION is phase one of a cross-shard commit (see
// internal/shard): it validates the open transaction exactly like
// COMMIT would, then — instead of publishing — installs an intent on
// every table in the transaction's footprint (its write set plus its
// full- and point-read tables) and parks the transaction on the
// session. Intents come in two modes. A table the transaction read or
// rewrote is held exclusive: no other commit may publish a write to it,
// and no other transaction may prepare over it — commitLocked,
// autocommit and the bulk path all surface ErrTxnConflict instead. A
// table it only blind-appends to is held in append mode, which is
// compatible with other append intents and with commits that only
// append rows, and excludes exactly what would break the append: a
// rewrite, a DDL, or another transaction's exclusive intent. Readers
// are unaffected — a reader that commits before the prepared
// transaction publishes simply serializes before it.
//
// Because the footprint is frozen (an appended-to table may have grown,
// which the publish re-derives from), COMMIT PREPARED publishes without
// re-validating and therefore cannot fail: once every shard of a
// distributed transaction has prepared, the coordinator's commit
// decision is guaranteed to apply everywhere. Intents are in-memory
// only — a crash loses the prepared transaction (nothing reached the
// WAL), which reads as an abort; the coordinator's decision log plus
// per-shard marker rows make committed transactions redo-able (see
// internal/shard/txn.go).

// prepareLocked runs phase one on the session's open transaction. The
// caller holds s.mu.
func (s *Session) prepareLocked(tx *sessionTxn, gid string) (*Result, error) {
	if s.prep != nil {
		return nil, errorf("session already holds a prepared transaction")
	}
	db := s.db
	db.wmu.Lock()
	if err := fpTxnValidate.Inject(); err != nil {
		db.wmu.Unlock()
		s.tx.Store(nil)
		return nil, err
	}
	if key, ok := validateTxn(db.state.Load(), tx); !ok {
		db.wmu.Unlock()
		s.tx.Store(nil)
		return nil, &conflictError{key: key}
	}
	keys := txFootprint(tx)
	for _, k := range keys {
		if it := db.intents[k]; it != nil && (it.exclusive || !tx.blindAppend(k)) {
			db.wmu.Unlock()
			s.tx.Store(nil)
			return nil, &conflictError{key: k, held: true}
		}
	}
	if db.intents == nil {
		db.intents = make(map[string]*tableIntent)
	}
	for _, k := range keys {
		it := db.intents[k]
		if it == nil {
			it = &tableIntent{exclusive: !tx.blindAppend(k)}
			db.intents[k] = it
		}
		it.holders++
	}
	db.wmu.Unlock()
	s.prep = &preparedTxn{tx: tx, gid: gid, keys: keys}
	s.tx.Store(nil)
	return &Result{}, nil
}

// commitPreparedLocked runs phase two: publish the parked transaction
// and release its intents. The caller holds s.mu.
func (s *Session) commitPreparedLocked() (*Result, error) {
	p := s.prep
	if p == nil {
		return nil, errorf("no prepared transaction")
	}
	db := s.db
	tx := p.tx
	db.announceCommit()
	db.wmu.Lock()
	// No re-validation: the intents installed by PREPARE blocked every
	// commit that could have changed this transaction's footprint.
	seq := db.publishTxn(tx)
	db.releaseIntentsLocked(p.keys)
	db.retireCommit()
	db.wmu.Unlock()
	db.sharePlans(tx)
	s.prep = nil
	if err := db.waitDurable(seq); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// rollbackPreparedLocked aborts the parked transaction and releases
// its intents. The caller holds s.mu.
func (s *Session) rollbackPreparedLocked() (*Result, error) {
	p := s.prep
	if p == nil {
		return nil, errorf("no prepared transaction")
	}
	db := s.db
	db.wmu.Lock()
	db.releaseIntentsLocked(p.keys)
	db.wmu.Unlock()
	s.prep = nil
	return &Result{}, nil
}

// txFootprint returns the sorted set of tables a transaction read or
// wrote — the keys PREPARE must pin to keep its validation current.
func txFootprint(tx *sessionTxn) []string {
	seen := make(map[string]bool, len(tx.writes))
	for k := range tx.writes {
		seen[k] = true
	}
	tx.reads.mu.Lock()
	for k := range tx.reads.full {
		seen[k] = true
	}
	for k := range tx.reads.points {
		seen[k] = true
	}
	tx.reads.mu.Unlock()
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// validateTxn decides whether the transaction may commit against cur,
// the committed snapshot under the latch. It returns the first
// conflicting table key. The rule: every table in the write set and
// the (full-scan) read set must be untouched since base — the same
// table version, or absent on both sides. Two footprints get a second
// chance on a table that did change. A blind append only needs the
// table to still exist at the schema version it was appended under:
// whatever rows others added or rewrote, appending after them is the
// serial order. A table only point-read through an index re-runs its
// probes against cur, and if every probe still returns
// fingerprint-identical rows, the commit is serializable even though
// the table changed.
func validateTxn(cur *snapshot, tx *sessionTxn) (string, bool) {
	if cur == tx.base {
		return "", true // nothing committed since BEGIN
	}
	unchanged := func(k string) bool { return cur.cat.get(k) == tx.base.cat.get(k) }
	for k := range tx.writes {
		if unchanged(k) {
			continue
		}
		if ct := cur.cat.get(k); ct == nil || !tx.blindAppend(k) || ct.ver != tx.base.cat.get(k).ver {
			return k, false
		}
	}
	for k := range tx.reads.full {
		if tx.writes[k] {
			continue
		}
		if !unchanged(k) {
			return k, false
		}
	}
	for k, probes := range tx.reads.points {
		if tx.writes[k] || tx.reads.full[k] || unchanged(k) {
			continue
		}
		ct := cur.cat.get(k)
		if ct == nil {
			return k, false
		}
		for _, p := range probes {
			if !p.verify(ct) {
				return k, false
			}
		}
	}
	return "", true
}

// publishTxn installs a validated transaction as the next committed
// snapshot — the one place a commit stores db.state — and enqueues its
// frame, returning the WAL sequence number to wait on. The caller holds
// db.wmu.
func (db *DB) publishTxn(tx *sessionTxn) (seq uint64) {
	if len(tx.writes) > 0 {
		_ = fpPublish.Inject()    // crash/panic/sleep site; errors have no channel here
		_ = fpTxnPublish.Inject() // crash between validation and publish
		cur := db.state.Load()
		next := mergeCommit(db, cur, tx)
		db.state.Store(next)
		db.invalidateSchema(tx.schema)
		var kept []*table // the commit's surviving tables, once a key is dropped
		for k := range tx.writes {
			now := next.cat.get(k)
			if now == nil && kept == nil && len(tx.writes) > 1 {
				kept = survivors(next, tx.writes)
			}
			db.env.cache.dropSuperseded(cur.cat.get(k), now, kept...)
		}
	}
	if len(tx.log) > 0 {
		_ = fpTxnWAL.Inject() // crash between publish and the WAL enqueue
		seq = db.commitBatch(tx.log)
	}
	return seq
}

// survivors returns the tables of the written keys that next still
// holds: a key the commit dropped may live on in one of them (ALTER
// TABLE … RENAME TO moves its chunks to the new name), so its chunks'
// vectors stay. It returns an empty, non-nil slice when none survives.
func survivors(next *snapshot, writes map[string]bool) []*table {
	kept := []*table{}
	for k := range writes {
		if t := next.cat.get(k); t != nil {
			kept = append(kept, t)
		}
	}
	return kept
}

// mergeCommit builds the published snapshot for a validated commit.
// When nothing committed since the transaction began, that is its
// overlay as it stands — the uncontended case allocates nothing here.
// Otherwise it is cur's catalog with every write-set key replaced by
// (or deleted per) the transaction's overlay version — schema versions
// travel with the tables. A blind-appended table that others changed
// meanwhile is re-derived from cur's version instead, with the
// transaction's own rows (the overlay's ordinals from the base version's
// row count up) appended to it.
func mergeCommit(db *DB, cur *snapshot, tx *sessionTxn) *snapshot {
	over := tx.over
	if cur == tx.base {
		return over
	}
	cat := cur.cat
	for k := range tx.writes {
		t, bt, ct := over.cat.get(k), tx.base.cat.get(k), cur.cat.get(k)
		switch {
		case t == nil:
			cat = cat.delete(k)
			continue
		case ct != bt && ct != nil && tx.blindAppend(k):
			own := t.rowsFrom(bt.nrows)
			var err error
			if t, err = ct.derive(); err != nil {
				// ct was published after this transaction began, so it
				// has been resident all its life: nothing to hydrate.
				panic("sqldb: a table version published after Open is not resident: " + err.Error())
			}
			t.appendChunk(own)
			t.seal()
		}
		cat = cat.set(t)
	}
	return &snapshot{id: cur.id + 1, cat: cat, env: db.env}
}

// blindAppend reports whether written table k's whole footprint in the
// transaction is rows appended to it: never read, and no UPDATE, DELETE
// or DDL ever ran over it (tx.rewrites, which counts the ones that
// matched no row).
func (tx *sessionTxn) blindAppend(k string) bool {
	if tx.rewrites[k] {
		return false
	}
	_, probed := tx.reads.points[k]
	return !probed && !tx.reads.full[k]
}

// localPlan returns the transaction-private plan entry for a
// statement, creating it from the shared entry's parse. Compiled
// SELECT state lives only in the private copy until commit.
func (tx *sessionTxn) localPlan(cp *cachedPlan, raw string) *cachedPlan {
	if l, ok := tx.plans[raw]; ok {
		return l
	}
	l := &cachedPlan{st: cp.st, tables: cp.tables}
	if tx.plans == nil {
		tx.plans = make(map[string]*cachedPlan)
	}
	if len(tx.plans) < planCacheSize {
		tx.plans[raw] = l
	}
	return l
}

// sharePlans moves the plans compiled inside a transaction to the
// shared cache, now that the versions they were compiled against are the
// committed ones (validation pinned the read tables, publication
// installed the written ones).
func (db *DB) sharePlans(tx *sessionTxn) {
	for sql, cp := range tx.plans {
		db.plans.put(sql, cp)
	}
}

// InsertRows implements BulkInserter within the session: inside a
// transaction the rows join the overlay (and the commit frame), else
// the batch is a transaction of its own.
func (s *Session) InsertRows(tableName string, cols []string, rows []Row) (n int, err error) {
	if err := s.db.hookReentry(); err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	if tx := s.tx.Load(); tx != nil {
		defer s.mu.Unlock()
		return s.db.insertTxnRows(tx, tableName, cols, rows)
	}
	s.mu.Unlock()
	return s.db.insertOne(tableName, cols, rows)
}

// ------------------------------------------------------ read tracking

// readTracker accumulates one transaction's read set. Tables read by a
// scan (or any join/vectorized input) are full reads; a single-table
// SELECT served by a hash-index probe records the probe instead, so
// validation can re-check just those keys.
type readTracker struct {
	mu     sync.Mutex
	full   map[string]bool
	points map[string][]pointRead
}

// pointReadLimit caps recorded probes per table; past it the table
// escalates to a full read rather than growing without bound.
const pointReadLimit = 64

type pointRead struct {
	col string      // lower-cased indexed column
	key value.Value // probe key, of the column's key class
	fp  uint64      // fingerprint of the matched rows
}

func (tr *readTracker) addFull(key string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.full == nil {
		tr.full = make(map[string]bool)
	}
	tr.full[key] = true
	delete(tr.points, key)
}

func (tr *readTracker) addPoint(key string, p pointRead) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.full[key] {
		return
	}
	if len(tr.points[key]) >= pointReadLimit {
		if tr.full == nil {
			tr.full = make(map[string]bool)
		}
		tr.full[key] = true
		delete(tr.points, key)
		return
	}
	if tr.points == nil {
		tr.points = make(map[string][]pointRead)
	}
	tr.points[key] = append(tr.points[key], p)
}

// verify re-runs the probe against a current table version and reports
// whether it still matches the recorded fingerprint.
func (p pointRead) verify(t *table) bool {
	idx, err := t.index(p.col)
	if idx == nil || err != nil {
		return false
	}
	if ci := t.schema.Index(p.col); ci < 0 || !sameKeyClass(p.key.Type(), t.schema[ci].Type) {
		return false
	}
	return fingerprintRows(t.rowsAt(idx.lookup(p.key))) == p.fp
}

// fingerprintRows hashes a row set's contents (order-sensitively: an
// index probe returns rows in insertion order, which is stable for an
// unchanged table).
func fingerprintRows(rows []Row) uint64 {
	h := fnv.New64a()
	var sep = [1]byte{0}
	for _, row := range rows {
		for _, v := range row {
			h.Write([]byte(v.SQL())) //nolint:errcheck // hash.Hash never errors
			h.Write(sep[:])          //nolint:errcheck
		}
		h.Write(sep[:]) //nolint:errcheck
	}
	return h.Sum64()
}

// withReads returns a shallow copy of the snapshot carrying the read
// tracker. Scans check sn.reads, so only executions rooted at the
// tracked copy record.
func (sn *snapshot) withReads(tr *readTracker) *snapshot {
	c := *sn
	c.reads = tr
	return &c
}

var (
	_ Querier   = (*Session)(nil)
	_ Pipeliner = (*Session)(nil)
	_ Pipeliner = (*DB)(nil)
)
