// Package shard implements a hash-partitioned cluster of database
// primaries behind a single coordinator.
//
// Every table is partitioned by its FIRST column: a row lives on the
// shard selected by an FNV-1a hash of the partition key's canonical
// SQL rendering after coercion to the declared column type (so 1 and
// 1.0 hash identically). Every statement takes one path,
// ClusterSession.Exec, which parses it once and routes it; outside
// BEGIN a statement is a one-statement cluster transaction (Cluster.Exec
// runs it on a fresh session):
//
//   - DDL broadcasts to every shard atomically (two-phase commit).
//     ALTER TABLE always runs in a transaction; dropping the partition
//     key deals the table's rows anew by its new first column.
//   - INSERT ... VALUES splits its literal rows by key; a single-shard
//     insert goes straight to the owner, a straddling one commits via
//     two-phase commit. INSERT ... SELECT and CREATE TABLE ... AS read
//     their SELECT like any SELECT and split its rows the same way.
//   - UPDATE/DELETE with a `key = literal` conjunct route to the
//     owning shard; anything else broadcasts transactionally. An
//     UPDATE that SETs the partition key is rejected.
//   - SELECT with a key-equality conjunct routes to the owner; other
//     SELECTs scatter-gather (see ClusterSession.scatter).
//
// Routing a write yields its schema change beside its routes, and the
// partition map adopts the change once the write commits, however it
// commits (Cluster.adopt).
//
// Each shard is an ordinary sqldb primary — it keeps its own WAL, OCC
// validation and (in remote mode) replicas — so everything the
// single-node engine guarantees holds per shard; the coordinator adds
// cross-shard atomicity on top via PREPARE TRANSACTION / COMMIT
// PREPARED and a fsynced decision log (see txn.go).
package shard

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/repl"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

var (
	// fpRoute fires as the coordinator routes a DML statement, before
	// any shard has seen it: an injected failure must leave every
	// shard untouched.
	fpRoute = failpoint.Site("shard/route")
	// fpScatter fires per shard as a distributed query scatters its
	// partial: errors simulate an unreachable shard, sleeps skew the
	// arrival order of partials (the merge must stay deterministic).
	fpScatter = failpoint.Site("shard/scatter")
	// fp2pcPrepare fires before each participant's PREPARE
	// TRANSACTION; a crash here must abort the whole transaction on
	// recovery (nothing was decided).
	fp2pcPrepare = failpoint.Site("shard/2pc-prepare")
	// fp2pcCommit fires before each participant's COMMIT PREPARED,
	// i.e. after the decision was logged: a crash here leaves a torn
	// commit that recovery must finish from the decision log.
	fp2pcCommit = failpoint.Site("shard/2pc-commit")
)

// markerTable records committed cross-shard transaction ids on every
// participating shard; recovery uses it to make redo idempotent.
const markerTable = "_shard_txns"

// Backend is one shard primary as the coordinator sees it: a local
// embedded database or a remote wire server (optionally with read
// replicas behind a router).
type Backend interface {
	// Exec runs one autocommit statement (or read) on the shard.
	Exec(sql string) (*sqldb.Result, error)
	// InsertRows bulk-appends rows on the shard's fast path.
	InsertRows(table string, cols []string, rows []sqldb.Row) (int, error)
	// NewShardSession opens a fresh transactional context.
	NewShardSession() Session
	// Pos reports the shard's replication position.
	Pos() sqldb.ReplPos
	// Close releases the backend's resources.
	Close() error
}

// Session is one shard-side transaction context. The sqldb wire
// protocol keeps transaction state per connection, so remote backends
// dial a dedicated connection per session.
type Session interface {
	Exec(sql string) (*sqldb.Result, error)
	Close()
}

// schemaReader lets the coordinator rebuild its table→schema map from
// an already-populated shard (reopen after a crash). *sqldb.DB
// satisfies it.
type schemaReader interface {
	Tables() []string
	TableSchema(name string) (sqldb.Schema, bool)
}

// ---- local backend ----

type localShard struct{ db *sqldb.DB }

// Local wraps an embedded database as a shard backend.
func Local(db *sqldb.DB) Backend { return localShard{db} }

func (l localShard) Exec(sql string) (*sqldb.Result, error) { return l.db.Exec(sql) }
func (l localShard) InsertRows(t string, c []string, r []sqldb.Row) (int, error) {
	return l.db.InsertRows(t, c, r)
}
func (l localShard) NewShardSession() Session { return l.db.NewSession() }
func (l localShard) Pos() sqldb.ReplPos       { return l.db.Pos() }
func (l localShard) Close() error             { return l.db.Close() }
func (l localShard) Tables() []string         { return l.db.Tables() }
func (l localShard) TableSchema(n string) (sqldb.Schema, bool) {
	return l.db.TableSchema(n)
}

// ---- remote backend ----

type remoteShard struct {
	addr    string
	primary *wire.Client
	router  *repl.Router // nil: reads go to the primary too
}

// Remote dials a shard primary served over sqldb/wire. Optional
// replica addresses put the shard's reads behind a repl.Router with
// its read-your-writes watermark.
func Remote(primaryAddr string, replicaAddrs ...string) (Backend, error) {
	c, err := wire.Dial(primaryAddr)
	if err != nil {
		return nil, err
	}
	rs := &remoteShard{addr: primaryAddr, primary: c}
	if len(replicaAddrs) > 0 {
		r, err := repl.DialRouter(primaryAddr, replicaAddrs...)
		if err != nil {
			c.Close()
			return nil, err
		}
		rs.router = r
	}
	return rs, nil
}

func (r *remoteShard) Exec(sql string) (*sqldb.Result, error) {
	if r.router != nil {
		return r.router.Exec(sql) // router sends writes to the primary itself
	}
	return r.primary.Exec(sql)
}

func (r *remoteShard) InsertRows(t string, c []string, rows []sqldb.Row) (int, error) {
	return r.primary.InsertRows(t, c, rows)
}

// remoteSession is a dedicated connection: wire transaction state
// lives per connection, so sharing the routed client would interleave
// transactions.
type remoteSession struct{ c *wire.Client }

func (s remoteSession) Exec(sql string) (*sqldb.Result, error) { return s.c.Exec(sql) }
func (s remoteSession) Close()                                 { s.c.Close() }

type errSession struct{ err error }

func (s errSession) Exec(string) (*sqldb.Result, error) { return nil, s.err }
func (s errSession) Close()                             {}

func (r *remoteShard) NewShardSession() Session {
	c, err := wire.Dial(r.addr)
	if err != nil {
		return errSession{err}
	}
	return remoteSession{c}
}

func (r *remoteShard) Pos() sqldb.ReplPos {
	st, err := r.primary.Status()
	if err != nil {
		return sqldb.ReplPos{}
	}
	return sqldb.ReplPos{Epoch: st.Epoch, LSN: st.LSN}
}

func (r *remoteShard) Close() error {
	if r.router != nil {
		r.router.Close() //nolint:errcheck
	}
	return r.primary.Close()
}

// ---- cluster ----

// Cluster is the coordinator over N shard backends. It satisfies
// sqldb.Querier, sqldb.BulkInserter and sqldb.Pipeliner, so it drops in
// anywhere a database handle is expected (perfbase stores, parquery
// read sources, wire backends).
type Cluster struct {
	shards []Backend

	mu      sync.Mutex
	schemas map[string]sqldb.Schema

	dlog      *decisionLog
	gidPrefix string
	gidSeq    atomic.Uint64
}

// New builds a coordinator over the given shard backends, creates the
// cross-shard transaction marker table everywhere and, if any backend
// exposes its catalog, seeds the partition map from shard 0.
func New(shards []Backend) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one shard")
	}
	c := &Cluster{
		shards:    shards,
		schemas:   map[string]sqldb.Schema{},
		gidPrefix: fmt.Sprintf("%x-%d", time.Now().UnixNano(), os.Getpid()),
	}
	for i, sh := range shards {
		if _, err := sh.Exec("CREATE TABLE IF NOT EXISTS " + markerTable + " (gid string)"); err != nil {
			return nil, fmt.Errorf("shard %d: marker table: %w", i, err)
		}
	}
	c.reloadSchemas()
	return c, nil
}

// reloadSchemas rebuilds the partition map from the shards' catalogs
// (shard 0 unless a later shard is ahead — possible after a crash cut
// a DDL broadcast short, until Recover evens them out).
func (c *Cluster) reloadSchemas() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.schemas = map[string]sqldb.Schema{}
	for _, sh := range c.shards {
		sr, ok := sh.(schemaReader)
		if !ok {
			continue
		}
		for _, t := range sr.Tables() {
			if t == markerTable {
				continue
			}
			if _, seen := c.schemas[strings.ToLower(t)]; seen {
				continue
			}
			if sch, ok := sr.TableSchema(t); ok {
				c.schemas[strings.ToLower(t)] = sch
			}
		}
	}
}

// OpenLocal opens (or creates) an n-shard cluster of disk-backed
// databases under dir — shard i in dir/shard-i, the cross-shard
// decision log in dir/txn.log — and runs crash recovery: every
// decided-but-torn cross-shard transaction is completed before the
// cluster serves traffic.
func OpenLocal(dir string, n int, policy sqldb.SyncPolicy) (*Cluster, error) {
	shards := make([]Backend, n)
	for i := 0; i < n; i++ {
		db, err := sqldb.OpenWithPolicy(fmt.Sprintf("%s/shard-%d", dir, i), policy)
		if err != nil {
			for j := 0; j < i; j++ {
				shards[j].Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i] = Local(db)
	}
	c, err := New(shards)
	if err != nil {
		for _, sh := range shards {
			sh.Close() //nolint:errcheck
		}
		return nil, err
	}
	dl, err := openDecisionLog(dir + "/txn.log")
	if err != nil {
		c.Close() //nolint:errcheck
		return nil, err
	}
	c.dlog = dl
	if err := c.Recover(); err != nil {
		c.Close() //nolint:errcheck
		return nil, err
	}
	c.reloadSchemas() // recovery may have completed a torn DDL broadcast
	return c, nil
}

// NewLocal builds an n-shard cluster of in-memory databases (tests,
// benchmarks; no decision log, cross-shard atomicity is still
// all-or-nothing while the process lives).
func NewLocal(n int) *Cluster {
	shards := make([]Backend, n)
	for i := range shards {
		shards[i] = Local(sqldb.NewMemory())
	}
	c, err := New(shards)
	if err != nil {
		panic(err) // n >= 1 and memory shards cannot fail DDL
	}
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard exposes shard i's backend (tests, torture harnesses).
func (c *Cluster) Shard(i int) Backend { return c.shards[i] }

// Role identifies the cluster to wire clients.
func (c *Cluster) Role() string { return "coordinator" }

// Pos aggregates the shards' positions into one monotonic coordinate:
// the max epoch and the sum of LSNs (every shard commit advances it).
func (c *Cluster) Pos() sqldb.ReplPos {
	var pos sqldb.ReplPos
	for _, sh := range c.shards {
		p := sh.Pos()
		if p.Epoch > pos.Epoch {
			pos.Epoch = p.Epoch
		}
		pos.LSN += p.LSN
	}
	return pos
}

// Close shuts down every shard backend and the decision log.
func (c *Cluster) Close() error {
	var first error
	for _, sh := range c.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.dlog != nil {
		if err := c.dlog.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewWireSession lets a wire.Server serve the coordinator: each
// client connection gets its own cluster session.
func (c *Cluster) NewWireSession() wire.BackendSession { return c.NewSession() }

// ExecPipeline implements sqldb.Pipeliner on a cluster session of its
// own — the coordinator's Exec refuses BEGIN — under the rule of
// sqldb.RunPipeline.
func (c *Cluster) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	s := c.NewSession()
	defer s.Close()
	out, err := sqldb.RunPipeline(s, reqs)
	if err != nil {
		return out, fmt.Errorf("shard: pipeline request %d: %w", len(out), err)
	}
	return out, nil
}

// schema returns table's schema; the first column is the partition
// key. Inside a transaction (tx non-nil) the tables it created or
// dropped are looked up there first: the partition map learns them only
// when it commits.
func (c *Cluster) schema(table string, tx *ClusterSession) (sqldb.Schema, bool) {
	key := strings.ToLower(table)
	if tx != nil {
		if sch, ok := tx.ddl[key]; ok {
			return sch, sch != nil
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sch, ok := c.schemas[key]
	return sch, ok
}

// shardFor hashes a partition-key value to its owning shard. The key
// is coerced to the declared column type first so equal keys written
// with different literal spellings land on the same shard.
func (c *Cluster) shardFor(table string, key value.Value, tx *ClusterSession) (int, error) {
	sch, ok := c.schema(table, tx)
	if !ok {
		return 0, fmt.Errorf("shard: unknown table %q", table)
	}
	idx, err := c.shardForKey(sch[0].Type, key)
	if err != nil {
		return 0, fmt.Errorf("shard: partition key for %q: %w", table, err)
	}
	return idx, nil
}

// partition splits rows, whose columns cols names, by the shard that
// owns each one's partition key in table (schema sch). A row without
// the key column goes where a NULL key does.
func (c *Cluster) partition(table string, sch sqldb.Schema, cols []string, rows []sqldb.Row) (map[int][]sqldb.Row, error) {
	keyIdx := slices.IndexFunc(cols, func(name string) bool { return strings.EqualFold(name, sch[0].Name) })
	byShard := map[int][]sqldb.Row{}
	for _, row := range rows {
		kv := value.Null(sch[0].Type)
		if keyIdx >= 0 && keyIdx < len(row) {
			kv = row[keyIdx]
		}
		idx, err := c.shardForKey(sch[0].Type, kv)
		if err != nil {
			return nil, fmt.Errorf("shard: partition key for %q: %w", table, err)
		}
		byShard[idx] = append(byShard[idx], row)
	}
	return byShard, nil
}

// shardForKey hashes a key already known to have (or be coercible to)
// the given partition-column type.
func (c *Cluster) shardForKey(t value.Type, key value.Value) (int, error) {
	cv, err := key.Convert(t)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write([]byte(cv.SQL())) //nolint:errcheck
	return int(h.Sum64() % uint64(len(c.shards))), nil
}

// keyColumn returns table's partition column name (lower-cased).
func (c *Cluster) keyColumn(table string, tx *ClusterSession) (string, bool) {
	sch, ok := c.schema(table, tx)
	if !ok {
		return "", false
	}
	return strings.ToLower(sch[0].Name), true
}

// Exec runs one statement outside any transaction, on a session of its
// own (see ClusterSession.Exec). Transaction control needs a session
// that outlives the statement, so it is refused here.
func (c *Cluster) Exec(sql string) (*sqldb.Result, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch st.(type) {
	case *sqldb.BeginStmt, *sqldb.CommitStmt, *sqldb.RollbackStmt,
		*sqldb.PrepareStmt, *sqldb.CommitPreparedStmt, *sqldb.RollbackPreparedStmt:
		return nil, fmt.Errorf("shard: transactions require a cluster session")
	}
	s := ClusterSession{c: c}
	return s.exec(st, sql)
}

// adopt installs a schema change — each table it names gets the schema,
// nil for a table that is gone — in the partition map. It runs once a
// write has committed, however it committed.
func (c *Cluster) adopt(change map[string]sqldb.Schema) {
	if len(change) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, sch := range change {
		if sch == nil {
			delete(c.schemas, name)
		} else {
			c.schemas[name] = sch
		}
	}
}

// broadcast routes the statements to every shard. The shards share
// one list, capped so that an append for one shard (deal) copies it.
func (c *Cluster) broadcast(stmts ...string) map[int][]string {
	m := make(map[int][]string, len(c.shards))
	for i := range c.shards {
		m[i] = stmts[:len(stmts):len(stmts)]
	}
	return m
}

// deal appends to routes, for every shard that owns some of rows (whose
// columns cols names) by table's partition key, one INSERT of them.
func (c *Cluster) deal(routes map[int][]string, table string, sch sqldb.Schema, cols []string, rows []sqldb.Row) error {
	byShard, err := c.partition(table, sch, cols, rows)
	if err != nil {
		return err
	}
	for idx, part := range byShard {
		routes[idx] = append(routes[idx], sqldb.RenderInsertRows(table, cols, part))
	}
	return nil
}

// columnNames lists a schema's column names.
func columnNames(sch sqldb.Schema) []string {
	cols := make([]string, len(sch))
	for i, col := range sch {
		cols[i] = col.Name
	}
	return cols
}

// route maps a write statement other than ALTER TABLE (see alter) to
// per-shard statement lists, in the order each shard runs them, and to
// its schema change (see Cluster.adopt; nil when it changes no schema).
// Outside a transaction one statement on one shard runs on that shard
// alone; anything else runs in a cluster transaction.
func (s *ClusterSession) route(st sqldb.Statement, raw string) (map[int][]string, map[string]sqldb.Schema, error) {
	c := s.c
	switch q := st.(type) {
	case *sqldb.CreateTableStmt:
		if _, existed := c.schema(q.Name, s); existed && q.IfNotExists {
			return nil, nil, nil // every shard has it: nothing to run
		}
		if q.As != nil {
			return s.routeCreateTableAs(q, raw)
		}
		if len(q.Cols) == 0 {
			return nil, nil, fmt.Errorf("shard: CREATE TABLE needs at least one column (the partition key)")
		}
		return c.broadcast(raw), map[string]sqldb.Schema{strings.ToLower(q.Name): q.Cols}, nil
	case *sqldb.DropTableStmt:
		return c.broadcast(raw), map[string]sqldb.Schema{strings.ToLower(q.Name): nil}, nil
	case *sqldb.CreateIndexStmt:
		return c.broadcast(raw), nil, nil
	case *sqldb.InsertStmt:
		routes, err := s.routeInsert(q, raw)
		return routes, nil, err
	case *sqldb.UpdateStmt:
		key, ok := c.keyColumn(q.Table, s)
		if !ok {
			return nil, nil, fmt.Errorf("shard: unknown table %q", q.Table)
		}
		if sqldb.UpdateSetsColumn(q, key) {
			return nil, nil, fmt.Errorf("shard: UPDATE may not change the partition key %q of %q", key, q.Table)
		}
		kv, keyed := sqldb.KeyEqualityLiteral(q.Where, key)
		routes, err := s.routeKeyed(q.Table, kv, keyed, raw)
		return routes, nil, err
	case *sqldb.DeleteStmt:
		key, ok := c.keyColumn(q.Table, s)
		if !ok {
			return nil, nil, fmt.Errorf("shard: unknown table %q", q.Table)
		}
		kv, keyed := sqldb.KeyEqualityLiteral(q.Where, key)
		routes, err := s.routeKeyed(q.Table, kv, keyed, raw)
		return routes, nil, err
	}
	return nil, nil, fmt.Errorf("shard: cannot route %T", st)
}

// routeKeyed routes an UPDATE or DELETE to the shard owning kv when its
// WHERE has a `key = kv` conjunct (keyed), to every shard otherwise.
func (s *ClusterSession) routeKeyed(table string, kv value.Value, keyed bool, raw string) (map[int][]string, error) {
	if !keyed {
		return s.c.broadcast(raw), nil
	}
	idx, err := s.c.shardFor(table, kv, s)
	if err != nil {
		return nil, err
	}
	return map[int][]string{idx: {raw}}, nil
}

// routeCreateTableAs reads the SELECT through the session, broadcasts an
// explicit-schema CREATE TABLE and deals the rows by their first column
// — so CREATE [TEMP] TABLE AS behaves like on a single node
// (query-layer operators build their result vectors this way).
func (s *ClusterSession) routeCreateTableAs(q *sqldb.CreateTableStmt, raw string) (map[int][]string, map[string]sqldb.Schema, error) {
	res, err := s.query(q.As, raw[q.As.Pos:])
	if err != nil {
		return nil, nil, err
	}
	create := sqldb.RenderCreateTable(q.Name, res.Columns)
	if q.Temp {
		create = strings.Replace(create, "CREATE TABLE", "CREATE TEMP TABLE", 1)
	}
	routes := s.c.broadcast(create)
	if err := s.c.deal(routes, q.Name, res.Columns, columnNames(res.Columns), res.Rows); err != nil {
		return nil, nil, err
	}
	return routes, map[string]sqldb.Schema{strings.ToLower(q.Name): res.Columns}, nil
}

// alter runs an ALTER TABLE inside the transaction, an implicit one
// outside BEGIN: it broadcasts, and the partition map takes the schema
// the statement's Apply derives, under the new name for RENAME.
// Dropping the partition key then deals the rows anew — the remaining
// columns are read through the transaction, every shard empties the
// table, and each inserts the rows it owns by the new first column — so
// the statement's read and its writes see one snapshot.
func (s *ClusterSession) alter(q *sqldb.AlterTableStmt, raw string) (*sqldb.Result, error) {
	if !s.InTxn() {
		if err := s.begin(); err != nil {
			return nil, err
		}
		return s.end(s.alter(q, raw))
	}
	if err := fpRoute.Inject(); err != nil {
		return nil, fmt.Errorf("shard: route: %w", err)
	}
	old, ok := s.c.schema(q.Table, s)
	if !ok {
		return nil, fmt.Errorf("shard: unknown table %q", q.Table)
	}
	sch, err := q.Apply(old)
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(q.Table)
	switch {
	case q.Rename != "":
		return s.write(s.c.broadcast(raw), map[string]sqldb.Schema{name: nil, strings.ToLower(q.Rename): sch})
	case len(sch) == 0:
		return nil, fmt.Errorf("shard: cannot drop %q, the only column (the partition key) of %q", q.Drop, q.Table)
	}
	res, err := s.write(s.c.broadcast(raw), map[string]sqldb.Schema{name: sch})
	if err != nil || !strings.EqualFold(q.Drop, old[0].Name) {
		return res, err
	}
	cols := columnNames(sch)
	sql := "SELECT " + strings.Join(cols, ", ") + " FROM " + q.Table
	sel, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	rows, err := s.query(sel.(*sqldb.SelectStmt), sql)
	if err != nil {
		return nil, err
	}
	routes := s.c.broadcast("DELETE FROM " + q.Table)
	if err := s.c.deal(routes, q.Table, sch, cols, rows.Rows); err != nil {
		return nil, err
	}
	if _, err := s.write(routes, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// routeInsert splits an INSERT by partition key. INSERT ... VALUES
// rows must be literals; INSERT ... SELECT first reads the SELECT
// through the session, like any SELECT, then partitions the resulting
// rows like literal ones.
func (s *ClusterSession) routeInsert(q *sqldb.InsertStmt, raw string) (map[int][]string, error) {
	var rows []sqldb.Row
	if q.From != nil {
		res, err := s.query(q.From, raw[q.From.Pos:])
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	} else {
		var ok bool
		rows, ok = sqldb.LiteralRows(q)
		if !ok {
			return nil, fmt.Errorf("shard: INSERT rows must be literals on a cluster")
		}
	}
	sch, ok := s.c.schema(q.Table, s)
	if !ok {
		return nil, fmt.Errorf("shard: unknown table %q", q.Table)
	}
	cols := q.Cols
	if len(cols) == 0 {
		cols = columnNames(sch)
	}
	routes := make(map[int][]string, 1)
	if err := s.c.deal(routes, q.Table, sch, cols, rows); err != nil {
		return nil, err
	}
	return routes, nil
}

// InsertRows is the bulk ingest fast path: rows are partitioned by
// key and appended shard-parallel. Each shard's batch commits
// independently (this is an ingest path, not a transaction — use a
// session for atomicity).
func (c *Cluster) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	sch, ok := c.schema(table, nil)
	if !ok {
		return 0, fmt.Errorf("shard: unknown table %q", table)
	}
	if err := fpRoute.Inject(); err != nil {
		return 0, fmt.Errorf("shard: route: %w", err)
	}
	byShard, err := c.partition(table, sch, cols, rows)
	if err != nil {
		return 0, err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int
		firstErr error
	)
	for idx, part := range byShard {
		wg.Add(1)
		go func(idx int, part []sqldb.Row) {
			defer wg.Done()
			n, err := c.shards[idx].InsertRows(table, cols, part)
			mu.Lock()
			total += n
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", idx, err)
			}
			mu.Unlock()
		}(idx, part)
	}
	wg.Wait()
	return total, firstErr
}

// query runs a SELECT. A key-equality query routes to the owning shard
// (all matching rows live there); everything else scatters. Inside a
// transaction every read goes through its per-shard sessions.
func (s *ClusterSession) query(st *sqldb.SelectStmt, raw string) (*sqldb.Result, error) {
	if idx, ok := s.singleShardSelect(st); ok {
		return s.execOn(idx, raw)
	}
	return s.scatter(st, raw)
}

// singleShardSelect reports whether the SELECT reads one table with a
// partition-key equality conjunct, and which shard owns it.
func (s *ClusterSession) singleShardSelect(st *sqldb.SelectStmt) (int, bool) {
	if len(st.Union) > 0 || len(st.From) != 1 || len(st.Joins) != 0 {
		return 0, false
	}
	table := st.From[0].Table
	key, ok := s.c.keyColumn(table, s)
	if !ok {
		return 0, false
	}
	kv, ok := sqldb.KeyEqualityLiteral(st.Where, key)
	if !ok {
		return 0, false
	}
	idx, err := s.c.shardFor(table, kv, s)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// execOn runs sql on shard idx, through the transaction's session on it
// when there is a transaction.
func (s *ClusterSession) execOn(idx int, sql string) (*sqldb.Result, error) {
	if s.sess != nil {
		return s.sess[idx].Exec(sql)
	}
	return s.c.shards[idx].Exec(sql)
}

// scatter runs a distributed SELECT: per-shard partials merged in
// shard-index order. With a pushdown plan every shard answers the
// statement itself under PARTIAL — its group table, or its rows pruned
// to the top OFFSET + LIMIT — and the plan folds and renders the
// answers (sqldb/distrib.go); otherwise — always for a compound select,
// whose branches each read a table of their own — the referenced
// tables are gathered whole and the original query runs on the
// gathered copy (correct for every query shape; order-sensitive
// queries need an ORDER BY to be deterministic, exactly as on a single
// node).
func (s *ClusterSession) scatter(st *sqldb.SelectStmt, raw string) (*sqldb.Result, error) {
	if len(st.From) == 0 && len(st.Union) == 0 {
		return s.execOn(0, raw) // table-less SELECT: constants only
	}
	if len(st.From) > 0 {
		if sch, ok := s.c.schema(st.From[0].Table, s); ok {
			if plan, ok := sqldb.PlanDistributedSelect(st, sch); ok {
				partials, err := s.runPartials("PARTIAL " + raw)
				if err != nil {
					return nil, err
				}
				return plan.Merge(partials)
			}
		}
	}
	return s.gatherQuery(st, raw)
}

// runPartials executes one partial statement on every shard at once —
// inside a transaction on its per-shard sessions, each used by one
// goroutine — and returns the results in shard-index order.
func (s *ClusterSession) runPartials(partialSQL string) ([]*sqldb.Result, error) {
	shards, sess := s.c.shards, s.sess // sess is nil outside a transaction
	partials := make([]*sqldb.Result, len(shards))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res *sqldb.Result
			err := fpScatter.Inject()
			if err != nil {
				err = fmt.Errorf("shard %d: scatter: %w", i, err)
			} else {
				if sess != nil {
					res, err = sess[i].Exec(partialSQL)
				} else {
					res, err = shards[i].Exec(partialSQL)
				}
				if err != nil {
					err = fmt.Errorf("shard %d: %w", i, err)
				}
			}
			mu.Lock()
			partials[i] = res
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return partials, nil
}

// gatherQuery is the scatter fallback: copy every referenced table
// (all shards, shard-index order) into a scratch database and run the
// original query there.
func (s *ClusterSession) gatherQuery(st *sqldb.SelectStmt, raw string) (*sqldb.Result, error) {
	scratch := sqldb.NewMemory()
	tables := sqldb.ReferencedTables(st)
	sort.Strings(tables)
	for _, t := range tables {
		sch, ok := s.c.schema(t, s)
		if !ok {
			return nil, fmt.Errorf("shard: unknown table %q", t)
		}
		if _, err := scratch.Exec(sqldb.RenderCreateTable(t, sch)); err != nil {
			return nil, err
		}
		partials, err := s.runPartials("SELECT * FROM " + t)
		if err != nil {
			return nil, err
		}
		cols := columnNames(sch)
		for _, p := range partials {
			if p == nil || len(p.Rows) == 0 {
				continue
			}
			if _, err := scratch.InsertRows(t, cols, p.Rows); err != nil {
				return nil, err
			}
		}
	}
	return scratch.Exec(raw)
}
