// Package sqldb is an embedded relational SQL database engine.
//
// It is the storage backend of perfbase, standing in for the
// PostgreSQL server the original system used: every experiment, run
// and query temp table lives in a sqldb database. The engine supports
// a typed column model using the perfbase data types, a practical SQL
// dialect (CREATE/DROP TABLE, CREATE TEMP TABLE AS SELECT, INSERT,
// UPDATE, DELETE, and SELECT with joins, WHERE, GROUP BY with
// statistics aggregates, HAVING, ORDER BY, DISTINCT and LIMIT),
// optional write-ahead-log + checkpoint persistence, and hash indexes.
// Storage is multi-versioned: readers execute against immutable
// snapshots while writers publish new table versions (see snapshot.go
// and DESIGN.md "Storage & concurrency model"). The sibling package
// sqldb/wire exposes a database over TCP so that query elements can
// run against remote servers (paper §4.3).
package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// fpCompact fires at the head of chunk compaction (every table seal):
// crashing here exercises recovery with arbitrarily-shaped in-memory
// chunk states that must all be reconstructible from the WAL.
var fpCompact = failpoint.Site("sqldb/table/compact")

// Column describes one column of a table or result.
type Column struct {
	// Name is the column name. Result columns derived from
	// expressions carry their alias or a generated name.
	Name string
	// Type is the perfbase data type of the column.
	Type value.Type
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column, or -1. Lookup is
// case-insensitive, like the rest of the SQL dialect.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return names
}

// clone returns a deep copy of the schema.
func (s Schema) clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is one tuple of values, positionally matching a Schema.
type Row = []value.Value

// Result is the outcome of executing a statement. Non-SELECT
// statements return an empty column set and the number of affected
// rows.
type Result struct {
	// Columns describes the result columns of a SELECT.
	Columns Schema
	// Rows holds the result tuples of a SELECT.
	Rows []Row
	// Affected is the number of rows touched by INSERT/UPDATE/DELETE.
	Affected int
}

// table is one immutable version of a table. Versions are published by
// swapping a snapshot pointer (see snapshot.go); once published, a
// version is never mutated, so any number of readers can scan it with
// no locking. Row storage is chunked: a derived version shares its
// parent's chunk objects, so an INSERT appends its own chunks and copies
// no existing row, and an UPDATE, DELETE or ALTER replaces only the
// chunks it changes (rewrite). A version is mutable only between
// derive()/newTable() and seal(), while its single writer builds it.
//
// A version that Open created from the checkpoint's directory starts
// cold: name, schema, version, row count and chunk lengths are known,
// the rows are still in the file. Its first row or index access — one
// of the accessors below — hydrates it, once; everything that needs
// only the catalog (Tables, RowCount, planning, DROP TABLE) never does,
// nor does what needs only its chunks' blocks (EXPLAIN, a scan whose
// zone maps prune every block). No code outside this file reads a
// chunk's rows or the indexes map directly: chunks, flat, index and
// chunk.rows after a hydration hand them out; chunkRefs, builtChunks,
// chunkLens and hasIndex answer without rows, for the code
// that must leave a cold version cold.
type table struct {
	name   string
	key    string // lower(name): the table's key in the snapshot catalog
	schema Schema
	temp   bool
	// ver is the schema version: the value the database-wide counter
	// (DB.schemaVer) had when the table was created or last altered;
	// derived versions inherit it. Cached plans record it and recompile
	// on mismatch. Versions are never reused, so a plan compiled against
	// a dropped table cannot match a later table of the same name.
	ver int64

	// list holds the version's chunks in order, none empty; offs[i] is
	// the global ordinal of the first row of list[i]. A derived version
	// shares its parent's chunk objects: an append adds its own after
	// them, a rewrite puts its own in place of the ones it changed. A cold
	// version has no list until its meta segment is parsed and no offs
	// until it hydrates; cold.mu guards list until then.
	list  []*chunk
	offs  []int
	nrows int
	// mutable is true only while an unpublished writer owns the
	// version; appendChunk and rewrite panic on a published version.
	mutable bool

	// indexes is keyed by lower-case column name. The key set is fixed
	// once the version is published; a cold version's indexes are empty
	// until hydration fills them, which is why nothing outside this file
	// touches the map: hasIndex answers from the keys, index
	// hydrates before it hands one out.
	indexes map[string]*hashIndex

	// disk is where the last checkpoint put this version's bytes, nil
	// for a version no checkpoint has written. The next checkpoint
	// copies that extent instead of encoding the rows again, and a cold
	// version hydrates from it.
	disk atomic.Pointer[diskLoc]
	// cold is set on the versions Open creates, nil on every other.
	cold *coldState
}

// chunk is one run of a table's rows, shared by every version that holds
// it: the object, not the address of its rows, is what the column cache
// hangs the chunk's vectors on and what a checkpoint hangs its blocks on.
// A chunk is never empty, and its rows never change once a version
// holding it is published.
//
// A chunk is in one of three states. Resident: it holds its rows, as
// every chunk an INSERT, an UPDATE or a hydration builds does. Cold: only
// the checkpoint file holds them (blocks), until its version hydrates.
// Columnar: a pour into a temp table built it as one column vector per
// column (cols), and its rows are derived from those the first time rows
// is asked for them. len answers in every state without rows.
type chunk struct {
	// resident holds the rows: nil in the chunks of a cold version, which
	// its hydration fills in place, and in a columnar chunk until rows
	// derives them. A one-element array, so that chunks hands out a
	// one-chunk version's rows without allocating. Only this file reads
	// it, and only through rows once a chunk may be columnar.
	resident [1][]Row
	// blocks is where the newest checkpoint file holding the chunk keeps
	// it, nil until one does; every checkpoint re-points it.
	blocks atomic.Pointer[storeChunk]
	// cols is a columnar chunk's data, nil for every other chunk.
	cols *colChunk
	// vecs is the column cache's slots for the chunk's vectors, nil
	// until it caches one (colcache.go).
	vecs atomic.Pointer[chunkVecs]
}

// colChunk is a columnar chunk's data: a vector per column of the table,
// each n positions long, which colCache.colFor hands out as they are.
type colChunk struct {
	vecs []colVec
	n    int
	// env counts the rows chunk.rows derives; derive guards the one derivation.
	env    *execEnv
	derive sync.Once
}

// rows returns the chunk's rows, deriving a columnar chunk's on first
// ask. The chunks of a cold version have none until it hydrates, so a
// caller reaches a chunk through a resident version (builtChunks of one,
// chunks, flat) or hydrates the version first (morselRows); a cold
// chunk's rows are a bug, and panic.
func (c *chunk) rows() []Row {
	if cc := c.cols; cc != nil {
		cc.derive.Do(func() {
			c.resident[0] = cc.boxRows()
			cc.env.derived.Add(int64(cc.n))
		})
	} else if c.resident[0] == nil {
		panic("sqldb: rows of a chunk whose table version is cold")
	}
	return c.resident[0]
}

// boxRows lays out the rows of columnar data, all of them in one backing
// array, as a bulk insert of the same rows would.
func (cc *colChunk) boxRows() []Row {
	w := len(cc.vecs)
	vals := make([]value.Value, cc.n*w)
	for i := range cc.n {
		for ci := range w {
			vals[i*w+ci] = cc.vecs[ci].box(i)
		}
	}
	rows := make([]Row, cc.n)
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// len returns the chunk's row count without reading its rows.
func (c *chunk) len() int {
	if sc := c.blocks.Load(); sc != nil {
		return sc.rows
	}
	if c.cols != nil {
		return c.cols.n
	}
	return len(c.resident[0])
}

// coldState is the hydration state of a table version created from the
// checkpoint directory.
type coldState struct {
	// env is the owning database's: hydration counts itself there.
	env *execEnv
	// lens are the lengths of the version's chunks, in order (none is
	// empty): the chunk objects are built to exactly these, because block
	// metadata, cached vectors and the order floating-point aggregates add
	// up in all follow chunk boundaries.
	lens []int
	// done is set once the chunks' rows, offs and the indexes are filled;
	// mu serializes the goroutines racing to fill them, and guards the
	// version's list until then. A failed attempt leaves the version
	// cold, and the next access tries again.
	done atomic.Bool
	mu   sync.Mutex
}

// hydrate makes a cold version resident. It is a no-op — one atomic
// load — on a version that is resident already, and on every version
// that was never cold.
func (t *table) hydrate() error {
	c := t.cold
	if c == nil || c.done.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done.Load() {
		return nil
	}
	chunks, err := loadColdTable(t)
	if err != nil {
		return err
	}
	for i, rows := range chunks {
		t.list[i].resident[0] = rows
	}
	t.reindex()
	c.done.Store(true)
	return nil
}

// chunks returns the version's row chunks, hydrating a cold version
// first. The error is the hydration's: a failed read, or
// ErrCorruptCheckpoint. Callers only read it: a one-chunk version's is
// the chunk's own.
func (t *table) chunks() ([][]Row, error) {
	if err := t.hydrate(); err != nil {
		return nil, err
	}
	if len(t.list) == 1 {
		t.list[0].rows()
		return t.list[0].resident[:], nil
	}
	out := make([][]Row, len(t.list))
	for i, ch := range t.list {
		out[i] = ch.rows()
	}
	return out, nil
}

// chunkRefs returns the version's chunks without reading a row: a cold
// version's are built from its meta segment, read and parsed on first
// use. Their rows are morselRows' to ask for.
func (t *table) chunkRefs() ([]*chunk, error) {
	c := t.cold
	if c == nil || c.done.Load() {
		return t.list, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	err := t.parseChunks(t.disk.Load(), nil)
	return t.list, err
}

// builtChunks returns the chunks the version has built, never reading
// the file: a cold version's once its meta segment has been parsed, none
// before. Evicting vectors and re-pointing blocks need no more — a chunk
// not yet built has neither.
func (t *table) builtChunks() []*chunk {
	if c := t.cold; c != nil && !c.done.Load() {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return t.list
}

// isCold reports whether the version's rows are still only in the
// checkpoint file.
func (t *table) isCold() bool {
	c := t.cold
	return c != nil && !c.done.Load()
}

// chunkLens returns the lengths of the version's chunks, in order,
// without hydrating it.
func (t *table) chunkLens() []int {
	if c := t.cold; c != nil {
		return c.lens
	}
	lens := make([]int, len(t.list))
	for i, ch := range t.list {
		lens[i] = ch.len()
	}
	return lens
}

// index returns the hash index on the (lower-case) column, nil if the
// table has none, hydrating a cold version first.
func (t *table) index(col string) (*hashIndex, error) {
	idx, ok := t.indexes[col]
	if !ok {
		return nil, nil
	}
	return idx, t.hydrate()
}

// indexed reports whether any column is indexed, and hasIndex whether
// the (lower-case) column is; planning and EXPLAIN ask, and a cold
// version stays cold.
func (t *table) indexed() bool { return len(t.indexes) > 0 }

func (t *table) hasIndex(col string) bool {
	_, ok := t.indexes[col]
	return ok
}

// addIndex indexes column ci of a mutable version.
func (t *table) addIndex(ci int) {
	idx := &hashIndex{}
	idx.rebuildFrom(t, ci)
	t.indexes[lower(t.schema[ci].Name)] = idx
}

// dropIndex removes the index on the (lower-case) column of a mutable
// version, if there is one.
func (t *table) dropIndex(col string) { delete(t.indexes, col) }

// coldIndexes gives a version being created cold its index key set:
// empty indexes on the given columns, for hydration to fill.
func (t *table) coldIndexes(cols []int) {
	if len(cols) == 0 {
		return
	}
	t.indexes = make(map[string]*hashIndex, len(cols))
	for _, ci := range cols {
		t.indexes[lower(t.schema[ci].Name)] = &hashIndex{}
	}
}

func newTable(name string, schema Schema, temp bool) *table {
	return &table{
		name:    name,
		key:     lower(name),
		schema:  schema.clone(),
		temp:    temp,
		mutable: true,
		indexes: make(map[string]*hashIndex),
	}
}

// derive returns a new mutable version that shares this version's
// chunks and indexes (overlay children). O(#chunks + #indexes),
// independent of the row count — after the hydration a cold version
// needs first, whose error is the only one derive returns.
func (t *table) derive() (*table, error) {
	if err := t.hydrate(); err != nil {
		return nil, err
	}
	nt := &table{
		name:    t.name,
		key:     t.key,
		schema:  t.schema,
		temp:    t.temp,
		ver:     t.ver,
		list:    append([]*chunk(nil), t.list...),
		offs:    append([]int(nil), t.offs...),
		nrows:   t.nrows,
		mutable: true,
		indexes: make(map[string]*hashIndex, len(t.indexes)),
	}
	for col, ix := range t.indexes {
		nt.indexes[col] = ix.child()
	}
	return nt, nil
}

// seal publishes the version: trailing chunks are merged into
// geometrically growing runs (keeping scans O(log n) chunks), so are
// its index layers (hashIndex.settle), and the version becomes
// immutable.
func (t *table) seal() {
	t.compact()
	for col, ix := range t.indexes {
		t.indexes[col] = ix.settle()
	}
	t.mutable = false
}

// maxCompactChunk caps the size of a chunk produced by merging.
// Without a cap the binary-counter scheme copies every row O(log n)
// times over a table's lifetime; with it, a chunk at least this large
// is final — its rows are never recopied, so a steady bulk-import
// workload (appendChunk batches are typically already final-sized)
// generates no merge traffic or garbage at all. The scan cost is one
// extra outer-loop iteration per maxCompactChunk rows.
const maxCompactChunk = 512

// compact merges trailing small chunks binary-counter style: whenever
// the second-to-last chunk is no larger than the last and the merge
// stays under maxCompactChunk, the two are merged. Small chunks end
// up geometrically decreasing in size, so a table built by S
// single-row statements still scans O(n/maxCompactChunk + log n)
// chunks. Merging preserves global row ordinals, so indexes stay
// valid. The merged chunk is a new object: the two it replaces may be
// shared with ancestor versions, and their vectors and blocks with them.
func (t *table) compact() {
	_ = fpCompact.Inject() // crash/panic/sleep site; compact cannot fail
	for len(t.list) >= 2 {
		k := len(t.list)
		last, prev := t.list[k-1], t.list[k-2]
		if prev.len() > last.len() {
			break
		}
		if prev.len()+last.len() > maxCompactChunk {
			break
		}
		merged := make([]Row, 0, prev.len()+last.len())
		merged = append(merged, prev.rows()...)
		merged = append(merged, last.rows()...)
		t.list[k-2] = &chunk{resident: [1][]Row{merged}}
		t.list = t.list[:k-1]
		t.offs = t.offs[:k-1]
	}
}

// appendChunk appends a pre-built, exactly-sized chunk of rows
// (already coerced to the schema types) and maintains indexes. Only
// legal on a mutable version.
func (t *table) appendChunk(rows []Row) {
	if !t.mutable {
		panic("sqldb: appendChunk on published table version")
	}
	if len(rows) == 0 {
		return
	}
	t.list = append(t.list, &chunk{resident: [1][]Row{rows}})
	t.offs = append(t.offs, t.nrows)
	for col, idx := range t.indexes {
		ci := t.schema.Index(col)
		for i, row := range rows {
			idx.add(row[ci], t.nrows+i)
		}
	}
	t.nrows += len(rows)
}

// appendCols appends a columnar chunk of n rows: vecs holds one vector
// per column, in schema order, of the column's type. Only legal on a
// mutable version with no index, which would want the rows at once.
func (t *table) appendCols(vecs []colVec, n int, env *execEnv) {
	if !t.mutable || t.indexed() {
		panic("sqldb: appendCols on a published or indexed table version")
	}
	if n == 0 {
		return
	}
	// The chunk and its columns, in one allocation.
	both := &struct {
		ch chunk
		cc colChunk
	}{cc: colChunk{vecs: vecs, n: n, env: env}}
	both.ch.cols = &both.cc
	t.list = append(t.list, &both.ch)
	t.offs = append(t.offs, t.nrows)
	t.nrows += n
}

// rewrite runs f over every row of a mutable version: f returns the
// row's replacement, nil to delete it, and whether it changed the row.
// A chunk in which f changed no row stays the chunk object it was, with
// its cached vectors and checkpoint blocks; a chunk with a changed row
// becomes a new chunk of its rewritten rows, or goes when none is left.
// It returns how many rows f changed, and on f's first error that,
// with the version as it was.
func (t *table) rewrite(f func(Row) (Row, bool, error)) (int, error) {
	if !t.mutable {
		panic("sqldb: rewrite of a published table version")
	}
	list, nrows, changed := make([]*chunk, 0, len(t.list)), 0, 0
	for _, ch := range t.list {
		rows := ch.rows()
		var out []Row // nil until f changes a row of the chunk
		for i, row := range rows {
			nr, ok, err := f(row)
			if err != nil {
				return 0, err
			}
			if ok && out == nil {
				out = append(make([]Row, 0, len(rows)), rows[:i]...)
			}
			if ok {
				changed++
			}
			if out != nil && nr != nil {
				out = append(out, nr)
			}
		}
		if out == nil {
			list, nrows = append(list, ch), nrows+len(rows)
		} else if len(out) > 0 {
			list, nrows = append(list, &chunk{resident: [1][]Row{out}}), nrows+len(out)
		}
	}
	if changed > 0 {
		t.list, t.nrows = list, nrows
		t.reindex()
	}
	return changed, nil
}

// rowsAt returns the rows at positions, in their order.
func (t *table) rowsAt(positions []int) []Row {
	rows := make([]Row, len(positions))
	for i, pos := range positions {
		rows[i] = t.rowAt(pos)
	}
	return rows
}

// rowAt returns the row at global ordinal pos (0 ≤ pos < nrows) of a
// resident version; ordinals come out of an index, and index hydrates.
func (t *table) rowAt(pos int) Row {
	lo, hi := 0, len(t.offs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.offs[mid] <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return t.list[lo].rows()[pos-t.offs[lo]]
}

// rowsFrom returns the rows at global ordinals pos and up as one slice.
// Only called on a derived version, which is resident by construction.
func (t *table) rowsFrom(pos int) []Row {
	out := make([]Row, 0, t.nrows-pos)
	for i, ch := range t.list {
		if skip := pos - t.offs[i]; skip < ch.len() {
			out = append(out, ch.rows()[max(skip, 0):]...)
		}
	}
	return out
}

// flat returns all rows as one slice, hydrating a cold version first.
// When the table has a single chunk (the common case after compaction),
// no copy is made.
func (t *table) flat() ([]Row, error) {
	if err := t.hydrate(); err != nil {
		return nil, err
	}
	if len(t.list) == 1 {
		return t.list[0].rows(), nil
	}
	out := make([]Row, 0, t.nrows)
	for _, ch := range t.list {
		out = append(out, ch.rows()...)
	}
	return out, nil
}

// reindex recomputes the chunks' first ordinals and every index from
// the chunk list: row positions changed wholesale (a rewrite deleted a
// row), or were never known (a hydration). Offsets and indexes, once.
func (t *table) reindex() {
	t.offs = make([]int, len(t.list))
	off := 0
	for i, ch := range t.list {
		t.offs[i] = off
		off += ch.len()
	}
	for col, idx := range t.indexes {
		idx.rebuildFrom(t, t.schema.Index(col))
	}
}

// hashIndex maps a column value (by its value.AppendKey key, equal for
// values equal under value.Compare within one key class) to the row
// positions holding it. Like table row storage it is versioned: a
// derived table version gets an overlay layer that records only its own
// additions and chains to its parent layer for older positions, every
// layer's positions above its parent's.
//
// The chain merges geometrically. When a version is sealed, its layer
// folds into its parent once it holds at least half as many positions,
// and the fold goes on down the chain as long as the merged layer is at
// least half its next parent (settle). Layer sizes thus at least double
// towards the root, a lookup walks O(log n) layers, and a position is
// copied O(log n) times in its life: a commit costs amortized O(log n)
// per row it adds, never a copy of the whole index.
type hashIndex struct {
	parent  *hashIndex
	n       int // positions in this layer
	buckets map[string][]int
}

// child derives an overlay for the next table version. The parent is
// shared and never written again through the child.
func (ix *hashIndex) child() *hashIndex { return &hashIndex{parent: ix} }

// settle returns the layer a version being sealed keeps for the index
// whose top layer, its own, is ix: its parent when it added nothing, ix
// when it is less than half its parent, else one fresh layer holding ix
// and every parent it folds into. The layers it replaces stay with the
// versions holding them.
func (ix *hashIndex) settle() *hashIndex {
	if ix.n == 0 && ix.parent != nil {
		return ix.parent
	}
	n, base := ix.n, ix
	for p := ix.parent; p != nil && 2*n >= p.n; p = p.parent {
		n, base = n+p.n, p
	}
	if base == ix {
		return ix
	}
	var chain []*hashIndex
	keys := 0 // at least the keys the merged layer holds
	for p := ix; p != base.parent; p = p.parent {
		chain = append(chain, p)
		keys += len(p.buckets)
	}
	merged := &hashIndex{parent: base.parent, n: n, buckets: make(map[string][]int, keys)}
	// Oldest layer first, so positions stay ascending. A bucket found in
	// one layer only is shared, clipped so that an append copies it.
	for i := len(chain) - 1; i >= 0; i-- {
		for k, ps := range chain[i].buckets {
			if have, ok := merged.buckets[k]; ok {
				merged.buckets[k] = append(have, ps...)
			} else {
				merged.buckets[k] = slices.Clip(ps)
			}
		}
	}
	return merged
}

func (ix *hashIndex) add(v value.Value, pos int) {
	if ix.buckets == nil {
		ix.buckets = make(map[string][]int)
	}
	k := string(value.AppendKey(nil, v))
	ix.buckets[k] = append(ix.buckets[k], pos)
	ix.n++
}

// lookup returns the positions of the values equal to v, which must be
// of the column's key class.
func (ix *hashIndex) lookup(v value.Value) []int {
	return ix.lookupKey(string(value.AppendKey(nil, v)))
}

func (ix *hashIndex) lookupKey(k string) []int {
	own := ix.buckets[k]
	if ix.parent == nil {
		return own
	}
	inherited := ix.parent.lookupKey(k)
	if len(own) == 0 {
		return inherited
	}
	if len(inherited) == 0 {
		return own
	}
	out := make([]int, 0, len(inherited)+len(own))
	return append(append(out, inherited...), own...)
}

// rebuildFrom recreates the index as a fresh root over t's rows.
func (ix *hashIndex) rebuildFrom(t *table, ci int) {
	ix.parent = nil
	ix.n = 0
	ix.buckets = make(map[string][]int)
	pos := 0
	for _, ch := range t.list {
		for _, r := range ch.rows() {
			ix.add(r[ci], pos)
			pos++
		}
	}
}

// validIdent reports whether s is a plausible SQL identifier; used to
// guard dynamically composed statements in higher layers.
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return true
}

// ValidIdent reports whether s can be used as a table or column name.
func ValidIdent(s string) bool { return validIdent(s) }

// errorf builds engine errors with a uniform prefix.
func errorf(format string, args ...any) error {
	return fmt.Errorf("sqldb: "+format, args...)
}
