package sqldb

import (
	"container/list"
	"sync"
)

// The plan cache maps raw SQL text to its parsed statement and, for
// SELECTs, the compiled plan, so repeated statements (per-run queries
// from internal/input, element queries from internal/query and
// parquery) skip the lexer, parser and compile pass. A source
// element's pour (pour.go) looks up only its one SELECT, the same text
// for every query of the source's shape, and builds the compound INSERT
// ... SELECT over its matching runs from that parse; the statement,
// which names a fresh temp table and grows with the runs, is never text.
//
// Correctness model: a parsed AST depends only on the SQL text and
// never goes stale. A compiled plan additionally depends on the
// schemas of the referenced tables, so each snapshot's catalog carries a
// schema version per table, drawn from one database-wide counter by
// every CREATE and ALTER and never reused; a cached plan records the
// versions it was compiled against and is recompiled when the executing
// snapshot's versions no longer match (a dropped table matches nothing).
// DDL also evicts entries referencing the table so the cache does not
// accumulate plans for dropped tables.

const (
	// planCacheSize bounds the number of cached statements. Textual
	// '?'-binding makes every distinct argument set a distinct SQL
	// string, so the LRU must tolerate churn from bound statements.
	planCacheSize = 256
	// planCacheMaxSQL keeps megabyte-sized bulk INSERT texts from
	// occupying the cache: statements longer than this run uncached.
	planCacheMaxSQL = 4096
)

// cachedPlan is one plan-cache entry.
type cachedPlan struct {
	st     Statement
	tables []string // lower-cased tables the statement references

	mu   sync.Mutex
	sel  *compiledSelect // compiled plan; nil until first execution
	vers []int64         // schema versions of tables sel was compiled against
}

type cacheItem struct {
	sql  string
	plan *cachedPlan
}

// tableIndex maps a lower-cased table name to the LRU elements that
// depend on it, so a DDL evicts its own table's entries without walking
// the whole cache under the cache lock.
type tableIndex map[string]map[*list.Element]struct{}

func (ix tableIndex) add(table string, el *list.Element) {
	set := ix[table]
	if set == nil {
		set = make(map[*list.Element]struct{})
		ix[table] = set
	}
	set[el] = struct{}{}
}

func (ix tableIndex) remove(table string, el *list.Element) {
	set := ix[table]
	delete(set, el)
	if len(set) == 0 {
		delete(ix, table)
	}
}

// planCache is an LRU keyed on raw SQL text. The zero value is ready
// to use.
type planCache struct {
	mu      sync.Mutex
	ll      *list.List // front = most recently used; holds *cacheItem
	m       map[string]*list.Element
	byTable tableIndex
}

func (c *planCache) get(sql string) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).plan
}

func (c *planCache) put(sql string, cp *cachedPlan) {
	if len(sql) > planCacheMaxSQL {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*list.Element)
		c.ll = list.New()
		c.byTable = tableIndex{}
	}
	if el, ok := c.m[sql]; ok {
		// Same text, same referenced tables: the index stands.
		el.Value.(*cacheItem).plan = cp
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheItem{sql: sql, plan: cp})
	c.m[sql] = el
	for _, t := range cp.tables {
		c.byTable.add(t, el)
	}
	for c.ll.Len() > planCacheSize {
		c.evict(c.ll.Back())
	}
}

func (c *planCache) evict(el *list.Element) {
	it := c.ll.Remove(el).(*cacheItem)
	delete(c.m, it.sql)
	for _, t := range it.plan.tables {
		c.byTable.remove(t, el)
	}
}

// invalidate evicts every entry that references one of the given
// lower-cased table names.
func (c *planCache) invalidate(tables map[string]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for t := range tables {
		for el := range c.byTable[t] {
			c.evict(el)
		}
	}
}

// len reports the number of cached entries (used by tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll == nil {
		return 0
	}
	return c.ll.Len()
}

// referencedTables lists the lower-cased table names a statement
// touches, for version snapshots and DDL invalidation.
func referencedTables(st Statement) []string {
	seen := map[string]bool{}
	collectTables(st, seen)
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	return out
}

func collectTables(st Statement, seen map[string]bool) {
	switch s := st.(type) {
	case *SelectStmt:
		for _, b := range s.Union {
			collectTables(b, seen)
		}
		for _, fi := range s.From {
			seen[lower(fi.Table)] = true
		}
		for _, jc := range s.Joins {
			seen[lower(jc.Right.Table)] = true
		}
	case *InsertStmt:
		seen[lower(s.Table)] = true
		if s.From != nil {
			collectTables(s.From, seen)
		}
	case *UpdateStmt:
		seen[lower(s.Table)] = true
	case *DeleteStmt:
		seen[lower(s.Table)] = true
	case *CreateTableStmt:
		seen[lower(s.Name)] = true
		if s.As != nil {
			collectTables(s.As, seen)
		}
	case *DropTableStmt:
		seen[lower(s.Name)] = true
	case *CreateIndexStmt:
		seen[lower(s.Table)] = true
	case *AlterTableStmt:
		seen[lower(s.Table)] = true
		if s.Rename != "" {
			seen[lower(s.Rename)] = true
		}
	case *ExplainStmt:
		collectTables(s.Query, seen)
	}
}

// selectPlanFor returns cp's compiled plan, rebuilding it when the
// table-version snapshot recorded at compile time no longer matches
// the versions in sn. Plan builds for the same entry serialize on
// cp.mu; concurrent executions then share the plan. Two readers
// pinning different snapshots may thrash one entry between versions —
// that is correct (each returns the plan it compiled and runs it
// against its own snapshot) and transient.
func (db *DB) selectPlanFor(sn *snapshot, cp *cachedPlan, sel *SelectStmt) (*compiledSelect, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.sel != nil && sn.versionsMatch(cp.tables, cp.vers) {
		return cp.sel, nil
	}
	p, err := sn.planSelect(sel)
	if err != nil {
		cp.sel = nil
		return nil, err
	}
	cp.sel = p
	cp.vers = sn.schemaVers(cp.tables)
	return p, nil
}

// execRead runs a SELECT or EXPLAIN, the one place either is
// dispatched. sn is what the read sees: the committed state, a pinned
// Snapshot, or a transaction's overlay carrying its read tracker. cp is
// the statement's plan-cache entry — inside a transaction its private
// one (sessionTxn.localPlan) — whose compiled SELECT plan is reused
// while sn's schema versions match it.
func (db *DB) execRead(sn *snapshot, cp *cachedPlan) (*Result, error) {
	switch st := cp.st.(type) {
	case *SelectStmt:
		p, err := db.selectPlanFor(sn, cp, st)
		if err != nil {
			return nil, err
		}
		return sn.runSelect(st, p)
	case *ExplainStmt:
		return db.execExplain(sn, st)
	}
	return nil, errorf("unsupported read %T", cp.st)
}
