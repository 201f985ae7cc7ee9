// Package shard implements a hash-partitioned cluster of database
// primaries behind a single coordinator.
//
// Every table is partitioned by its FIRST column: a row lives on the
// shard selected by an FNV-1a hash of the partition key's canonical
// SQL rendering after coercion to the declared column type (so 1 and
// 1.0 hash identically). The coordinator parses each statement once
// and routes it:
//
//   - DDL broadcasts to every shard atomically (two-phase commit).
//   - INSERT ... VALUES splits its literal rows by key; a single-shard
//     insert goes straight to the owner, a straddling one commits via
//     two-phase commit.
//   - UPDATE/DELETE with a `key = literal` conjunct route to the
//     owning shard; anything else broadcasts transactionally. An
//     UPDATE that SETs the partition key is rejected (rows never
//     migrate between shards).
//   - SELECT with a key-equality conjunct routes to the owner; other
//     SELECTs scatter-gather (see Query).
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
	// pendingAs holds the materialized result schema of an in-flight
	// CREATE TABLE AS between routing and noteDDL (the statement text
	// carries no column list to record).
	pendingAs map[string]sqldb.Schema

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
		pendingAs: map[string]sqldb.Schema{},
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

// Exec parses and routes one autocommit statement.
func (c *Cluster) Exec(sql string) (*sqldb.Result, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *sqldb.SelectStmt:
		return c.Query(s, sql)
	case *sqldb.ExplainStmt:
		return c.shards[0].Exec(sql)
	case *sqldb.BeginStmt, *sqldb.CommitStmt, *sqldb.RollbackStmt,
		*sqldb.PrepareStmt, *sqldb.CommitPreparedStmt, *sqldb.RollbackPreparedStmt:
		return nil, fmt.Errorf("shard: transactions require a cluster session")
	}
	if err := fpRoute.Inject(); err != nil {
		return nil, fmt.Errorf("shard: route: %w", err)
	}
	routes, err := c.route(st, sql, nil)
	if err != nil {
		return nil, err
	}
	if len(routes) == 1 {
		for idx, stmts := range routes {
			var res *sqldb.Result
			for _, one := range stmts {
				if res, err = c.shards[idx].Exec(one); err != nil {
					return nil, err
				}
			}
			if _, isDDL := ddlStmt(st); isDDL {
				c.noteDDL(st)
			}
			return res, nil
		}
	}
	// Multi-shard: run as an implicit cluster transaction so the
	// statement is atomic across shards.
	s := c.NewSession()
	defer s.Close()
	if _, err := s.Exec("BEGIN"); err != nil {
		return nil, err
	}
	res, err := s.routePrepared(st, sql, routes)
	if err != nil {
		s.Exec("ROLLBACK") //nolint:errcheck
		return nil, err
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		return nil, err
	}
	if _, isDDL := ddlStmt(st); isDDL {
		c.noteDDL(st)
	}
	return res, nil
}

// ddlStmt classifies schema statements (which broadcast everywhere).
func ddlStmt(st sqldb.Statement) (sqldb.Statement, bool) {
	switch st.(type) {
	case *sqldb.CreateTableStmt, *sqldb.DropTableStmt, *sqldb.CreateIndexStmt:
		return st, true
	}
	return nil, false
}

// noteDDL updates the coordinator's partition map after a schema
// statement committed on all shards.
func (c *Cluster) noteDDL(st sqldb.Statement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s := st.(type) {
	case *sqldb.CreateTableStmt:
		name := strings.ToLower(s.Name)
		if s.As == nil {
			c.schemas[name] = s.Cols
		} else if sch, ok := c.pendingAs[name]; ok {
			c.schemas[name] = sch
			delete(c.pendingAs, name)
		}
	case *sqldb.DropTableStmt:
		delete(c.schemas, strings.ToLower(s.Name))
	}
}

// adoptDDL installs a committed transaction's schema changes (see
// ClusterSession.ddl) in the partition map.
func (c *Cluster) adoptDDL(ddl map[string]sqldb.Schema) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, sch := range ddl {
		if sch == nil {
			delete(c.schemas, name)
		} else {
			c.schemas[name] = sch
		}
	}
}

// route maps a write statement to per-shard statement lists. A nil
// map with no error never happens; a single-entry map is the
// fast path, a multi-entry map needs two-phase commit. tx is the
// transaction the statement runs in, nil outside one.
func (c *Cluster) route(st sqldb.Statement, raw string, tx *ClusterSession) (map[int][]string, error) {
	all := func() map[int][]string {
		m := make(map[int][]string, len(c.shards))
		for i := range c.shards {
			m[i] = []string{raw}
		}
		return m
	}
	switch s := st.(type) {
	case *sqldb.CreateTableStmt:
		if s.As != nil {
			return c.routeCreateTableAs(s, raw)
		}
		if len(s.Cols) == 0 {
			return nil, fmt.Errorf("shard: CREATE TABLE needs at least one column (the partition key)")
		}
		return all(), nil
	case *sqldb.DropTableStmt, *sqldb.CreateIndexStmt:
		return all(), nil
	case *sqldb.InsertStmt:
		return c.routeInsert(s, raw, tx)
	case *sqldb.UpdateStmt:
		key, ok := c.keyColumn(s.Table, tx)
		if !ok {
			return nil, fmt.Errorf("shard: unknown table %q", s.Table)
		}
		if sqldb.UpdateSetsColumn(s, key) {
			return nil, fmt.Errorf("shard: UPDATE may not change the partition key %q of %q", key, s.Table)
		}
		if kv, ok := sqldb.KeyEqualityLiteral(s.Where, key); ok {
			idx, err := c.shardFor(s.Table, kv, tx)
			if err != nil {
				return nil, err
			}
			return map[int][]string{idx: {raw}}, nil
		}
		return all(), nil
	case *sqldb.DeleteStmt:
		key, ok := c.keyColumn(s.Table, tx)
		if !ok {
			return nil, fmt.Errorf("shard: unknown table %q", s.Table)
		}
		if kv, ok := sqldb.KeyEqualityLiteral(s.Where, key); ok {
			idx, err := c.shardFor(s.Table, kv, tx)
			if err != nil {
				return nil, err
			}
			return map[int][]string{idx: {raw}}, nil
		}
		return all(), nil
	}
	return nil, fmt.Errorf("shard: cannot route %T", st)
}

// routeCreateTableAs materializes the SELECT through the coordinator,
// broadcasts an explicit-schema CREATE TABLE, and partitions the
// materialized rows by their first column — so CREATE [TEMP] TABLE AS
// behaves like on a single node (query-layer operators build their
// result vectors this way).
func (c *Cluster) routeCreateTableAs(s *sqldb.CreateTableStmt, raw string) (map[int][]string, error) {
	res, err := c.Query(s.As, raw[s.As.Pos:])
	if err != nil {
		return nil, err
	}
	create := sqldb.RenderCreateTable(s.Name, res.Columns)
	if s.Temp {
		create = strings.Replace(create, "CREATE TABLE", "CREATE TEMP TABLE", 1)
	}
	out := make(map[int][]string, len(c.shards))
	for idx := range c.shards {
		out[idx] = []string{create}
	}
	if len(res.Rows) > 0 {
		cols := make([]string, len(res.Columns))
		for ci, col := range res.Columns {
			cols[ci] = col.Name
		}
		byShard := map[int][]sqldb.Row{}
		for _, row := range res.Rows {
			idx, err := c.shardForKey(res.Columns[0].Type, row[0])
			if err != nil {
				return nil, fmt.Errorf("shard: partition key for %q: %w", s.Name, err)
			}
			byShard[idx] = append(byShard[idx], row)
		}
		for idx, part := range byShard {
			out[idx] = append(out[idx], sqldb.RenderInsertRows(s.Name, cols, part))
		}
	}
	c.mu.Lock()
	c.pendingAs[strings.ToLower(s.Name)] = res.Columns
	c.mu.Unlock()
	return out, nil
}

// routeInsert splits an INSERT by partition key. INSERT ... VALUES
// rows must be literals; INSERT ... SELECT first materializes the
// SELECT through the coordinator (one scatter-gather snapshot read),
// then partitions the resulting rows like literal ones. The read is
// its own snapshot, which is why the ... SELECT form is rejected
// inside explicit transactions (see ClusterSession.Exec).
func (c *Cluster) routeInsert(s *sqldb.InsertStmt, raw string, tx *ClusterSession) (map[int][]string, error) {
	var rows []sqldb.Row
	if s.From != nil {
		res, err := c.Query(s.From, raw[s.From.Pos:])
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	} else {
		var ok bool
		rows, ok = sqldb.LiteralRows(s)
		if !ok {
			return nil, fmt.Errorf("shard: INSERT rows must be literals on a cluster")
		}
	}
	sch, ok := c.schema(s.Table, tx)
	if !ok {
		return nil, fmt.Errorf("shard: unknown table %q", s.Table)
	}
	cols := s.Cols
	if len(cols) == 0 {
		cols = make([]string, len(sch))
		for i, col := range sch {
			cols[i] = col.Name
		}
	}
	byShard, err := c.partition(s.Table, sch, cols, rows)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]string, len(byShard))
	for idx, part := range byShard {
		out[idx] = []string{sqldb.RenderInsertRows(s.Table, cols, part)}
	}
	return out, nil
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

// Query executes a SELECT. A key-equality query routes to the owning
// shard (all matching rows live there); everything else scatters.
func (c *Cluster) Query(st *sqldb.SelectStmt, raw string) (*sqldb.Result, error) {
	if idx, ok := c.singleShardSelect(st, nil); ok {
		return c.shards[idx].Exec(raw)
	}
	return c.scatter(st, raw, nil)
}

// singleShardSelect reports whether the SELECT reads one table with a
// partition-key equality conjunct, and which shard owns it.
func (c *Cluster) singleShardSelect(st *sqldb.SelectStmt, tx *ClusterSession) (int, bool) {
	if len(st.Union) > 0 || len(st.From) != 1 || len(st.Joins) != 0 {
		return 0, false
	}
	table := st.From[0].Table
	key, ok := c.keyColumn(table, tx)
	if !ok {
		return 0, false
	}
	kv, ok := sqldb.KeyEqualityLiteral(st.Where, key)
	if !ok {
		return 0, false
	}
	idx, err := c.shardFor(table, kv, tx)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// execOn runs sql on shard idx, through the transaction's session on it
// when there is a transaction.
func (c *Cluster) execOn(idx int, sql string, tx *ClusterSession) (*sqldb.Result, error) {
	if tx != nil {
		if s, ok := tx.sess[idx]; ok {
			return s.Exec(sql)
		}
	}
	return c.shards[idx].Exec(sql)
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
//
// tx, when non-nil, is the transaction the SELECT runs in: partials then
// execute inside its per-shard sessions (and sequentially, as sessions
// are single-threaded).
func (c *Cluster) scatter(st *sqldb.SelectStmt, raw string, tx *ClusterSession) (*sqldb.Result, error) {
	if len(st.From) == 0 && len(st.Union) == 0 {
		return c.execOn(0, raw, tx) // table-less SELECT: constants only
	}
	if len(st.From) > 0 {
		if sch, ok := c.schema(st.From[0].Table, tx); ok {
			if plan, ok := sqldb.PlanDistributedSelect(st, sch); ok {
				partials, err := c.runPartials("PARTIAL "+raw, tx)
				if err != nil {
					return nil, err
				}
				return plan.Merge(partials)
			}
		}
	}
	return c.gatherQuery(st, raw, tx)
}

// runPartials executes one partial statement on every shard and
// returns the results in shard-index order. Outside a transaction the
// shards run concurrently.
func (c *Cluster) runPartials(partialSQL string, tx *ClusterSession) ([]*sqldb.Result, error) {
	partials := make([]*sqldb.Result, len(c.shards))
	if tx != nil {
		for i := range c.shards {
			if err := fpScatter.Inject(); err != nil {
				return nil, fmt.Errorf("shard %d: scatter: %w", i, err)
			}
			res, err := c.execOn(i, partialSQL, tx)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			partials[i] = res
		}
		return partials, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res *sqldb.Result
			err := fpScatter.Inject()
			if err != nil {
				err = fmt.Errorf("shard %d: scatter: %w", i, err)
			} else if res, err = c.shards[i].Exec(partialSQL); err != nil {
				err = fmt.Errorf("shard %d: %w", i, err)
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
func (c *Cluster) gatherQuery(st *sqldb.SelectStmt, raw string, tx *ClusterSession) (*sqldb.Result, error) {
	scratch := sqldb.NewMemory()
	tables := sqldb.ReferencedTables(st)
	sort.Strings(tables)
	for _, t := range tables {
		sch, ok := c.schema(t, tx)
		if !ok {
			return nil, fmt.Errorf("shard: unknown table %q", t)
		}
		if _, err := scratch.Exec(sqldb.RenderCreateTable(t, sch)); err != nil {
			return nil, err
		}
		cols := make([]string, len(sch))
		for i, col := range sch {
			cols[i] = col.Name
		}
		partials, err := c.runPartials("SELECT * FROM "+t, tx)
		if err != nil {
			return nil, err
		}
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
