package sqldb

import (
	"sort"

	"perfbase/internal/failpoint"
)

// fpPublish fires just before a commit installs the next snapshot — a
// crash here loses the commit entirely (it was never acknowledged),
// which is exactly what the torture harness asserts.
var fpPublish = failpoint.Site("sqldb/snapshot/publish")

// This file implements the MVCC core of the engine.
//
// The database's entire committed state lives in one immutable
// *snapshot that the DB publishes through an atomic pointer. Readers
// acquire a snapshot with a single atomic load and then execute with
// no locks at all: the snapshot, its table catalog and every table's
// row chunks are never mutated after publication.
//
// Writers never touch a published snapshot either. Every mutation runs
// inside a transaction (session.go) — its own one-statement transaction
// when no BEGIN is open — and executes with no lock held: the statement
// builds a writeState, the catalog of the transaction's private overlay
// (a persistent trie, see catalog.go — taking it copies nothing) in
// which modified tables are replaced by derived versions (copy-on-write,
// sharing every untouched chunk with the published version); each
// replacement copies only the trie path to that table. On success the
// writeState becomes the transaction's next overlay; on error it is
// simply discarded, which makes every statement atomic. Only a commit
// stores DB.state, under the commit latch and after optimistic
// validation (publishTxn). ROLLBACK, or a commit that fails validation,
// drops the overlay — nothing was ever published.

// snapshot is one immutable, published state of the database.
type snapshot struct {
	// id increases with every published state change (by one for a
	// one-statement commit); EXPLAIN reports it so concurrent behaviour
	// is observable.
	id int64
	// cat holds the snapshot's version of every table, by lower-cased
	// name.
	cat catalog
	// env points to the owning database's execution environment (column
	// cache, parallelism knobs). Carried on every snapshot so the
	// lock-free read path reaches it without a DB back-pointer; nil only
	// in tests that construct snapshots by hand, which then simply run
	// the row engine.
	env *execEnv
	// reads, when non-nil, is a transaction's read tracker: scans and
	// index probes rooted at this snapshot record themselves for
	// commit-time validation. Published snapshots never carry one —
	// only the ephemeral copies made by snapshot.withReads (session.go).
	reads *readTracker
}

func (sn *snapshot) table(name string) (*table, bool) {
	t := sn.cat.get(lower(name))
	return t, t != nil
}

// durableTables returns the non-temporary tables sorted by key, the
// deterministic order every serialization of the state uses.
func (sn *snapshot) durableTables() []*table {
	out := make([]*table, 0, sn.cat.len())
	for t := range sn.cat.all() {
		if !t.temp {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// schemaVers captures this snapshot's schema versions of the given
// (lower-cased) tables, 0 for a table that does not exist.
func (sn *snapshot) schemaVers(tables []string) []int64 {
	out := make([]int64, len(tables))
	for i, k := range tables {
		if t := sn.cat.get(k); t != nil {
			out[i] = t.ver
		}
	}
	return out
}

// versionsMatch reports whether the schema versions a plan over tables
// was compiled against are still this snapshot's. A missing table never
// matches.
func (sn *snapshot) versionsMatch(tables []string, vers []int64) bool {
	for i, k := range tables {
		if t := sn.cat.get(k); t == nil || t.ver != vers[i] {
			return false
		}
	}
	return true
}

// writeState is the working state of one mutation statement, private
// to the goroutine executing it.
type writeState struct {
	db *DB
	// base is the overlay the statement started from; reads is the
	// tracker its SELECT half records into.
	base  *snapshot
	reads *readTracker

	// cat is base.cat plus this statement's changes. The table versions
	// this statement created in it are still mutable; everything else is
	// published and immutable.
	cat catalog
	// touched holds the table keys mutated this statement; schema is the
	// subset needing plan invalidation. rewrote
	// holds the tables a rewriting statement ran over — UPDATE, DELETE,
	// every DDL — including an UPDATE or DELETE that matched no row and so
	// touched nothing: it still decided by scanning the table. A touched
	// key outside it was only appended to, which is the one mutation that
	// commutes with other writers' appends (see "blind appends" in
	// session.go).
	touched map[string]bool
	rewrote map[string]bool
	schema  map[string]bool
	// dropTemp records whether the DROP TABLE this statement executed
	// removed a temporary table — its CREATE was never logged, so the
	// DROP must not be either.
	dropTemp bool
}

// newWriteState builds a statement's working state over a
// transaction's current overlay.
func newWriteState(db *DB, tx *sessionTxn) *writeState {
	return &writeState{db: db, base: tx.over, reads: &tx.reads, cat: tx.over.cat}
}

// readView is the snapshot the statement's SELECT half (INSERT ...
// SELECT, CREATE TABLE ... AS) executes against: the state the
// statement started from, recording what it scans.
func (ws *writeState) readView() *snapshot { return ws.base.withReads(ws.reads) }

// changed reports whether the statement mutated anything.
func (ws *writeState) changed() bool { return len(ws.touched) > 0 }

// seal seals every table version built this statement and returns the
// working state as the successor of base.
func (ws *writeState) seal() *snapshot {
	for k := range ws.touched {
		if t := ws.cat.get(k); t != nil && t.mutable {
			t.seal()
		}
	}
	return &snapshot{id: ws.base.id + 1, cat: ws.cat, env: ws.db.env}
}

// tab looks a table up in the working state.
func (ws *writeState) tab(key string) (*table, bool) {
	t := ws.cat.get(key)
	return t, t != nil
}

// appendTo returns a mutable derived version of the table for a caller
// that will only append rows to it, creating the version on first touch
// within the statement. It fails only when the table is cold and does
// not hydrate.
func (ws *writeState) appendTo(key string) (*table, error) {
	t := ws.cat.get(key)
	if t == nil || t.mutable {
		return t, nil
	}
	nt, err := t.derive()
	if err != nil {
		return nil, err
	}
	ws.cat = ws.cat.set(nt)
	mark(&ws.touched, key)
	return nt, nil
}

// modify returns a mutable derived version of the table that the caller
// may change in any way.
func (ws *writeState) modify(key string) (*table, error) {
	nt, err := ws.appendTo(key)
	if nt != nil {
		ws.markRewrite(key)
	}
	return nt, err
}

// markRewrite records that a rewriting statement ran over the table,
// whether or not it went on to change it.
func (ws *writeState) markRewrite(key string) { mark(&ws.rewrote, key) }

// mark adds key to a set that is allocated by its first member: most
// statements touch one table, and most of those only append to it.
func mark(set *map[string]bool, key string) {
	if *set == nil {
		*set = make(map[string]bool, 1)
	}
	(*set)[key] = true
}

// put installs a freshly created (mutable) table, at a fresh schema
// version.
func (ws *writeState) put(t *table) {
	t.ver = ws.db.schemaVer.Add(1)
	ws.cat = ws.cat.set(t)
	ws.markSchema(t.key)
}

// drop removes a table from the working state. Its schema version goes
// with it: versions are never reused, so no tombstone is needed to keep
// a later table of the same name apart.
func (ws *writeState) drop(key string) {
	ws.cat = ws.cat.delete(key)
	ws.markSchema(key)
}

// schemaChanged moves nt, the mutable version the statement altered in
// place, to a fresh schema version.
func (ws *writeState) schemaChanged(nt *table) {
	nt.ver = ws.db.schemaVer.Add(1)
	ws.markSchema(nt.key)
}

// markSchema schedules cached-plan eviction for commit time.
func (ws *writeState) markSchema(key string) {
	mark(&ws.schema, key)
	mark(&ws.touched, key)
	ws.markRewrite(key)
}

// invalidateSchema evicts the cached plans of tables whose schema
// version changed.
func (db *DB) invalidateSchema(keys map[string]bool) {
	if len(keys) > 0 {
		db.plans.invalidate(keys)
	}
}

// ------------------------------------------------------- exported API

// Snapshot is a pinned, immutable, read-only view of the database at
// one point in time. It implements Querier for SELECT and EXPLAIN;
// mutation statements return an error. Any number of goroutines may
// use the same Snapshot concurrently, and it stays valid (and
// unchanging) no matter what later writes do to the database.
//
// internal/parquery pins one Snapshot per query run so that the fan-out
// workers' source reads all observe a single committed state — a
// parallel query can no longer see half of a concurrent bulk import.
type Snapshot struct {
	db *DB
	sn *snapshot
}

// Snapshot pins the current committed state. It costs one atomic load
// and never blocks writers (nor is blocked by them).
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{db: db, sn: db.state.Load()}
}

// ID returns the snapshot's publication id.
func (s *Snapshot) ID() int64 { return s.sn.id }

// HasTable reports whether the named table exists in the snapshot.
func (s *Snapshot) HasTable(name string) bool {
	_, ok := s.sn.table(name)
	return ok
}

// Exec executes a read-only statement (SELECT or EXPLAIN) against the
// pinned state. It shares the database's plan cache.
func (s *Snapshot) Exec(sql string) (*Result, error) {
	cp, err := s.db.sharedPlan(sql)
	if err != nil {
		return nil, err
	}
	switch cp.st.(type) {
	case *SelectStmt, *ExplainStmt:
		return s.db.execRead(s.sn, cp)
	}
	return nil, errorf("snapshot is read-only: cannot execute %q", sql)
}

var _ Querier = (*Snapshot)(nil)
