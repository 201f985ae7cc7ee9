package sqldb

// Columnar projection cache.
//
// The vectorized executor (vector.go) runs scan/filter/aggregate over
// typed column vectors instead of boxed value.Value rows. A vector is
// one []int64/[]float64/[]string plus a null bitmap per column of a
// fresh chunk, built in one pass over its rows, or per column of one
// block of a checkpointed chunk, decoded from the file; either costs a
// pass, so vectors are cached and shared across queries and snapshots.
//
// Key: the chunk object (schema.go), the block index — -1 for a fresh
// chunk's whole-chunk vector — and the column. A chunk's rows never
// change once a version holding it is published, and a derived version
// shares its parent's chunk objects, so a vector can never go stale: an
// INSERT appends new chunks (new keys), a compaction, UPDATE, DELETE or
// ALTER builds new ones for the chunks it changes. The key needs no
// rows, so a cold version's blocks have vectors before — or without —
// its rows being decoded.
//
// Lifetime: a vector lives as long as its chunk is in the table's
// published version. DB.publishTxn, which publishes every new version
// of a table (and ImportState, which replaces them all with cold
// versions of a checkpoint image's tables), evicts the vectors of the
// chunks that version no longer holds (dropSuperseded):
// the chunks a compaction merged away or a rewrite replaced, every
// chunk of a dropped table — the chunks of a cold version included. A
// rewrite's untouched chunks keep theirs, and a plain append evicts
// nothing. That is what keeps a table rewritten over and over from
// filling the cache with vectors nobody can ask for again, without a
// one-row DELETE costing the whole table's. A pinned Snapshot that
// still scans a superseded chunk rebuilds the vector on miss; such
// stragglers, and everything else, age out of a bytes-capped LRU (the
// entry's key would otherwise keep the chunk reachable forever).
//
// A columnar chunk (schema.go: what a pour into a temp table builds) has
// no entries here: its vectors are its data, not a projection of it.
// colFor hands them out as they are; they are never counted against the
// cap, never evicted, and live exactly as long as the chunk.

import (
	"container/list"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"perfbase/internal/value"
)

// colCacheDefaultBytes caps the per-database columnar cache. The unit
// is approximate heap bytes of the cached vectors (slice payloads plus
// string headers; string bytes are shared with the stored rows and not
// counted twice).
const colCacheDefaultBytes = 64 << 20

// execEnv is the per-database execution environment. Every snapshot
// the database publishes carries a pointer to it, so the lock-free
// read path (Snapshot.Exec, plan-cache hits) reaches the columnar
// cache and the vectorized-execution knobs without a DB back-pointer.
type execEnv struct {
	cache colCache
	// scanWorkers overrides the morsel worker count; 0 means
	// min(GOMAXPROCS, morsels). See DB.SetScanWorkers.
	scanWorkers atomic.Int32
	// vecDisabled forces every SELECT through the row engine; used by
	// the differential fuzzer and the ablation benchmarks to compare
	// the two paths. Pours do not consult it. See DB.SetVectorized.
	vecDisabled atomic.Bool
	// zoneOff disables zone-map block skipping (the ablation switch
	// behind DB.SetZoneMaps); blocks still hydrate vectors.
	zoneOff atomic.Bool
	// blkScanned/blkSkipped count block-resident morsels that were
	// decoded vs pruned by a zone map, for EXPLAIN-adjacent observability
	// and the skipping tests. See DB.BlockStats.
	blkScanned atomic.Int64
	blkSkipped atomic.Int64
	// hydrated counts the cold tables made resident and ckptRead the
	// bytes Open and they read from checkpoint files: what the laziness
	// tests hold Open and a query to.
	hydrated atomic.Int64
	ckptRead atomic.Int64
	// derived counts the rows derived from columnar chunks: what the tests
	// that hold a query's vectors to staying columns read.
	derived atomic.Int64
}

func newExecEnv() *execEnv {
	e := &execEnv{}
	e.cache.limit = colCacheDefaultBytes
	return e
}

// workerCount returns the morsel worker budget for one query.
func (e *execEnv) workerCount() int {
	if e == nil {
		return 1
	}
	if n := int(e.scanWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// colVec is the typed columnar projection of one column of one chunk.
// Exactly one of ints/floats/strs is populated, per the column type:
// Integer, Boolean (as 0/1) and Timestamp (as Unix nanoseconds) use
// ints, Float uses floats, String and Version use strs (the raw datum,
// not the display form). A colVec is immutable after build and shared
// freely between concurrent readers. A keyIndex (aggregate.go) keeps its
// entries' key forms in colVecs too, its own and growing with it.
type colVec struct {
	typ    value.Type
	ints   []int64
	floats []float64
	strs   []string
	// nulls is a bitmap, bit i set when row i is NULL; nil when the
	// chunk column holds no NULLs (the overwhelmingly common case, and
	// the branch kernels test first).
	nulls []uint64
	bytes int
}

// null reports whether row i of the vector is NULL.
func (v *colVec) null(i int) bool {
	return v.nulls != nil && v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

func (v *colVec) setNull(i, n int) {
	if v.nulls == nil {
		v.nulls = make([]uint64, (n+63)/64)
	}
	v.nulls[i>>6] |= 1 << (uint(i) & 63)
}

// buildColVec projects column ci of the chunk into a typed vector.
func buildColVec(chunk []Row, ci int, typ value.Type) *colVec {
	n := len(chunk)
	v := &colVec{typ: typ}
	switch typ {
	case value.Integer, value.Boolean, value.Timestamp:
		v.ints = make([]int64, n)
		for i, row := range chunk {
			c := &row[ci]
			if c.IsNull() {
				v.setNull(i, n)
				continue
			}
			if typ == value.Boolean {
				if c.Bool() {
					v.ints[i] = 1
				}
			} else {
				v.ints[i] = c.Int()
			}
		}
		v.bytes = 8 * n
	case value.Float:
		v.floats = make([]float64, n)
		for i, row := range chunk {
			c := &row[ci]
			if c.IsNull() {
				v.setNull(i, n)
				continue
			}
			v.floats[i] = c.Float()
		}
		v.bytes = 8 * n
	default: // String, Version
		v.strs = make([]string, n)
		for i, row := range chunk {
			c := &row[ci]
			if c.IsNull() {
				v.setNull(i, n)
				continue
			}
			v.strs[i] = c.Str()
		}
		// String headers only: the bytes are shared with the rows.
		v.bytes = 16 * n
	}
	v.bytes += 8 * len(v.nulls)
	return v
}

// The append methods build a columnar chunk's vector (pour.go's pourVec):
// at is the position the first appended element takes, which a NULL
// marks in the bitmap; seal cuts the vector, n long, to its size. Each
// is one typed loop per call, and marks its NULLs apart from it.

// markNulls marks positions [at, at+c) NULL.
func (v *colVec) markNulls(at, c int) {
	if w := (at + c + 63) / 64; len(v.nulls) < w {
		v.nulls = append(v.nulls, make([]uint64, w-len(v.nulls))...)
	}
	for i := at; i < at+c; i++ {
		v.nulls[i>>6] |= 1 << (uint(i) & 63)
	}
}

// grow extends *s by c elements and returns them, to be written.
func grow[T any](s *[]T, c int) []T {
	n := len(*s)
	*s = slices.Grow(*s, c)[:n+c]
	return (*s)[n:]
}

// appendRange appends positions [lo, hi) of src, a vector of v's type.
func (v *colVec) appendRange(src *colVec, at, lo, hi int) {
	switch v.typ {
	case value.Integer, value.Boolean, value.Timestamp:
		v.ints = append(v.ints, src.ints[lo:hi]...)
	case value.Float:
		v.floats = append(v.floats, src.floats[lo:hi]...)
	default:
		v.strs = append(v.strs, src.strs[lo:hi]...)
	}
	if src.nulls != nil {
		for i := lo; i < hi; i++ {
			if src.null(i) {
				v.markNulls(at+i-lo, 1)
			}
		}
	}
}

// gather appends src's elements at the positions sel to *dst.
func gather[T any](dst *[]T, src []T, sel []int32) {
	out := grow(dst, len(sel))
	for j, i := range sel {
		out[j] = src[i]
	}
}

// appendSel appends the positions sel of src, a vector of v's type.
func (v *colVec) appendSel(src *colVec, at int, sel []int32) {
	switch v.typ {
	case value.Integer, value.Boolean, value.Timestamp:
		gather(&v.ints, src.ints, sel)
	case value.Float:
		gather(&v.floats, src.floats, sel)
	default:
		gather(&v.strs, src.strs, sel)
	}
	if src.nulls != nil {
		for j, i := range sel {
			if src.null(int(i)) {
				v.markNulls(at+j, 1)
			}
		}
	}
}

// push appends x, a value of v's type or NULL.
func (v *colVec) push(x *value.Value, at int) {
	if x.IsNull() {
		v.markNulls(at, 1)
	}
	switch v.typ {
	case value.Integer, value.Boolean, value.Timestamp:
		v.ints = append(v.ints, x.Int())
	case value.Float:
		v.floats = append(v.floats, x.Float())
	default:
		v.strs = append(v.strs, x.Str())
	}
}

// appendRows appends column ci of rows, values of v's type or NULL.
func (v *colVec) appendRows(rows []Row, ci, at int) {
	nulls := false
	switch v.typ {
	case value.Integer, value.Boolean, value.Timestamp:
		out := grow(&v.ints, len(rows))
		for j := range rows {
			x := &rows[j][ci]
			out[j] = x.Int()
			nulls = nulls || x.IsNull()
		}
	case value.Float:
		out := grow(&v.floats, len(rows))
		for j := range rows {
			x := &rows[j][ci]
			out[j] = x.Float()
			nulls = nulls || x.IsNull()
		}
	default:
		out := grow(&v.strs, len(rows))
		for j := range rows {
			x := &rows[j][ci]
			out[j] = x.Str()
			nulls = nulls || x.IsNull()
		}
	}
	if nulls {
		for j := range rows {
			if rows[j][ci].IsNull() {
				v.markNulls(at+j, 1)
			}
		}
	}
}

// fill appends c copies of x to *dst.
func fill[T any](dst *[]T, x T, c int) {
	out := grow(dst, c)
	for i := range out {
		out[i] = x
	}
}

// appendConst appends c copies of x, a value of v's type or NULL.
func (v *colVec) appendConst(x value.Value, at, c int) {
	switch v.typ {
	case value.Integer, value.Boolean, value.Timestamp:
		fill(&v.ints, x.Int(), c)
	case value.Float:
		fill(&v.floats, x.Float(), c)
	default:
		fill(&v.strs, x.Str(), c)
	}
	if x.IsNull() {
		v.markNulls(at, c)
	}
}

func (v *colVec) seal(n int) {
	if v.nulls != nil {
		v.nulls = append(v.nulls, make([]uint64, (n+63)/64-len(v.nulls))...)
	}
	switch {
	case cap(v.ints) > n:
		v.ints = append(make([]int64, 0, n), v.ints...)
	case cap(v.floats) > n:
		v.floats = append(make([]float64, 0, n), v.floats...)
	case cap(v.strs) > n:
		v.strs = append(make([]string, 0, n), v.strs...)
	}
}

// box returns row i of the vector as a Value.
func (v *colVec) box(i int) value.Value {
	switch {
	case v.null(i):
		return value.Null(v.typ)
	case v.typ == value.Integer:
		return value.NewInt(v.ints[i])
	case v.typ == value.Float:
		return value.NewFloat(v.floats[i])
	case v.typ == value.Boolean:
		return value.NewBool(v.ints[i] != 0)
	case v.typ == value.Timestamp:
		return value.NewTimestampNano(v.ints[i])
	case v.typ == value.Version:
		return value.NewVersion(v.strs[i])
	}
	return value.NewString(v.strs[i])
}

// chunkColKey identifies one cached vector: the chunk, the block of it
// (wholeChunk for a fresh chunk's vector over all its rows) and the
// column index.
type chunkColKey struct {
	chunk *chunk
	block int
	col   int
}

const wholeChunk = -1

type colCacheEntry struct {
	key chunkColKey
	vec *colVec
}

// colCache is a bytes-capped LRU over (chunk, column) vectors, shaped
// like the plan cache and likeCache. Concurrent readers that miss the
// same key may race to build the vector; the first put wins and later
// builders adopt the shared copy.
type colCache struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used; holds *colCacheEntry
	m     map[chunkColKey]*list.Element
	bytes int
	limit int
}

func (c *colCache) get(key chunkColKey) *colVec {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*colCacheEntry).vec
}

// put inserts vec and returns the cached vector — vec itself, or the
// copy a concurrent builder installed first.
func (c *colCache) put(key chunkColKey, vec *colVec) *colVec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[chunkColKey]*list.Element)
		c.ll = list.New()
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*colCacheEntry).vec
	}
	el := c.ll.PushFront(&colCacheEntry{key: key, vec: vec})
	c.m[key] = el
	c.bytes += vec.bytes
	for c.bytes > c.limit && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		c.evict(oldest)
	}
	return vec
}

func (c *colCache) evict(el *list.Element) {
	e := c.ll.Remove(el).(*colCacheEntry)
	delete(c.m, e.key)
	c.bytes -= e.vec.bytes
}

// dropSuperseded evicts the vectors of old's chunks that next, the
// version of the table being published in its place (nil: the table is
// gone), no longer holds anywhere: a set difference, taken past the
// chunks the two versions begin with alike. A plain append keeps all of
// old's and evicts nothing. The chunks of also — other tables published
// in the same commit, such as the new name of a renamed table — are
// kept as well.
func (c *colCache) dropSuperseded(old, next *table, also ...*table) {
	if old == nil || old == next {
		return
	}
	// A cold version's chunks not yet built have no vectors.
	was, now := old.builtChunks(), []*chunk(nil)
	if next != nil {
		now = next.builtChunks()
	}
	same := 0
	for same < len(was) && same < len(now) && was[same] == now[same] {
		same++
	}
	if same == len(was) {
		return
	}
	held := make(map[*chunk]bool, len(now)-same)
	for _, ch := range now[same:] {
		held[ch] = true
	}
	for _, t := range also {
		for _, ch := range t.builtChunks() {
			held[ch] = true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) == 0 {
		return
	}
	for _, ch := range was[same:] {
		if held[ch] {
			continue
		}
		n := ch.len()
		for ci := range old.schema {
			for bi := wholeChunk; bi*vecMorselRows < n; bi++ {
				if el, ok := c.m[chunkColKey{ch, bi, ci}]; ok {
					c.evict(el)
				}
			}
		}
	}
}

// setLimit adjusts the byte cap, evicting immediately if over.
func (c *colCache) setLimit(limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = limit
	if c.ll == nil {
		return
	}
	for c.bytes > c.limit && c.ll.Len() > 0 {
		c.evict(c.ll.Back())
	}
}

// stats reports entry count and approximate bytes (used by tests).
func (c *colCache) stats() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll == nil {
		return 0, 0
	}
	return c.ll.Len(), c.bytes
}

// colFor returns the vector for column ci of a resident or columnar
// chunk, over all its rows: a columnar chunk's own, a resident chunk's
// built and cached on miss.
func (c *colCache) colFor(ch *chunk, ci int, typ value.Type) *colVec {
	if cc := ch.cols; cc != nil {
		return &cc.vecs[ci]
	}
	key := chunkColKey{ch, wholeChunk, ci}
	if v := c.get(key); v != nil {
		return v
	}
	return c.put(key, buildColVec(ch.rows(), ci, typ))
}

// blockVec returns the vector for column ci of block bi of a chunk a
// checkpoint holds, decoded from the block and cached under the block's
// own key. A block that cannot be read or fails its CRC fails the scan
// (DESIGN.md §6): the file is the checkpoint, and one that has changed
// under a running database is not one to go on answering around.
func (e *execEnv) blockVec(ch *chunk, bi, ci int) (*colVec, error) {
	key := chunkColKey{ch, bi, ci}
	if v := e.cache.get(key); v != nil {
		return v, nil
	}
	v, err := ch.blocks.Load().readBlock(ci, bi)
	if err != nil {
		return nil, err
	}
	return e.cache.put(key, v), nil
}

// SetScanWorkers fixes the number of morsel workers a vectorized scan
// may use; 0 (the default) means min(GOMAXPROCS, morsel count). The
// scaling benchmarks use it to measure 1 vs 4 workers explicitly.
func (db *DB) SetScanWorkers(n int) { db.env.scanWorkers.Store(int32(n)) }

// SetVectorized enables or disables the vectorized execution path for
// this database (default: enabled). With it disabled every SELECT runs
// through the row-at-a-time engine; the differential fuzzer uses a
// disabled twin database as a same-engine oracle for the batch path.
// Pours do not consult it: INSERT ... SELECT and CREATE TABLE ... AS
// gather their columnar chunk (pour.go) either way.
func (db *DB) SetVectorized(on bool) { db.env.vecDisabled.Store(!on) }

// ColumnCacheLimit adjusts the byte cap of the columnar projection
// cache (default 64 MiB). Shrinking it evicts immediately.
func (db *DB) ColumnCacheLimit(bytes int) { db.env.cache.setLimit(bytes) }

// SetZoneMaps enables or disables zone-map block skipping (default:
// enabled). With it disabled every block-resident morsel is decoded
// and scanned; block-backed vector hydration is unaffected. The
// skip-ratio benchmarks use the disabled mode as the ablation
// baseline.
func (db *DB) SetZoneMaps(on bool) { db.env.zoneOff.Store(!on) }

// BlockStats reports how many block-resident morsels the vectorized
// scan path has decoded (scanned) and pruned via zone maps (skipped)
// since the database was opened.
func (db *DB) BlockStats() (scanned, skipped int64) {
	return db.env.blkScanned.Load(), db.env.blkSkipped.Load()
}
