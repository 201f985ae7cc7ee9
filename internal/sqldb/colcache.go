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
// Place: the chunk object (schema.go) holds its own vectors, one slot
// per block and column — block -1 for a fresh chunk's whole-chunk
// vector. A chunk's rows never change once a version holding it is
// published, and a derived version shares its parent's chunk objects, so
// a vector can never go stale: an INSERT appends new chunks (new slots),
// a compaction, UPDATE, DELETE or ALTER builds new ones for the chunks it
// changes. A slot needs no rows, so a cold version's blocks have vectors
// before — or without — its rows being decoded. A hit is two atomic
// loads and a reference bit: no lock, no map. The cache itself is the
// one byte budget of the database: a miss builds its vector outside the
// lock and installs it under it, first put wins, and a CLOCK hand evicts
// what has not been hit since it last passed until the cap holds.
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
// stragglers, and everything else, age out under the byte cap.
//
// A columnar chunk (schema.go: what a pour into a temp table builds) has
// no entries here: its vectors are its data, not a projection of it.
// colFor hands them out as they are; they are never counted against the
// cap, never evicted, and live exactly as long as the chunk.

import (
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

const wholeChunk = -1 // the block of a fresh chunk's vector over all its rows

// chunkVecs is the cache's slots on one chunk: slot (bi+1)*width + ci
// holds the entry of block bi of column ci, block wholeChunk's first.
// put sizes it once, for the chunk's rows and its table's width, neither
// of which ever changes.
type chunkVecs struct {
	width int
	slots []atomic.Pointer[colCacheEntry]
}

type colCacheEntry struct {
	vec  *colVec
	slot *atomic.Pointer[colCacheEntry]
	pos  int         // in colCache.ring
	ref  atomic.Bool // hit since the hand last passed
}

// colCache is the database's byte budget over the vectors cached on its
// chunks. A hit reads the chunk's slot and takes no lock; put, evict and
// the cap's bookkeeping hold mu, so the first put of a slot wins and
// later builders adopt the shared copy. Eviction is CLOCK: the hand
// walks ring, clears the reference bits it passes and evicts the first
// entry not hit since its last pass.
type colCache struct {
	mu    sync.Mutex
	ring  []*colCacheEntry
	hand  int
	bytes int
	limit int
}

// get returns the cached vector of column ci of block bi of ch, nil when
// none is.
func (c *colCache) get(ch *chunk, bi, ci int) *colVec {
	cv := ch.vecs.Load()
	if cv == nil {
		return nil
	}
	e := cv.slots[(bi+1)*cv.width+ci].Load()
	if e == nil {
		return nil
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.vec
}

// put caches vec as column ci of block bi of ch, a chunk of a table
// width columns wide, and returns the cached vector — vec itself, or the
// copy a concurrent builder installed first.
func (c *colCache) put(ch *chunk, bi, ci, width int, vec *colVec) *colVec {
	c.mu.Lock()
	defer c.mu.Unlock()
	cv := ch.vecs.Load()
	if cv == nil {
		blocks := (ch.len() + vecMorselRows - 1) / vecMorselRows
		cv = &chunkVecs{width: width, slots: make([]atomic.Pointer[colCacheEntry], (blocks+1)*width)}
		ch.vecs.Store(cv)
	}
	slot := &cv.slots[(bi+1)*cv.width+ci]
	if e := slot.Load(); e != nil {
		return e.vec
	}
	e := &colCacheEntry{vec: vec, slot: slot, pos: len(c.ring)}
	slot.Store(e)
	c.ring = append(c.ring, e)
	c.bytes += vec.bytes
	for c.bytes > c.limit && len(c.ring) > 1 {
		c.evict(c.victim(e))
	}
	return vec
}

// victim moves the hand to the first entry other than keep that has not
// been hit since the hand last passed it, clearing the bits it passes.
// Past two turns, whatever readers keep setting, it takes the next one.
func (c *colCache) victim(keep *colCacheEntry) *colCacheEntry {
	for n := 0; ; n++ {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		if e := c.ring[c.hand]; e != keep && (!e.ref.Swap(false) || n > 2*len(c.ring)) {
			return e
		}
		c.hand++
	}
}

// evict empties e's slot and moves the ring's last entry into its place.
// A reader that loaded e before still holds a correct vector.
func (c *colCache) evict(e *colCacheEntry) {
	e.slot.Store(nil)
	c.bytes -= e.vec.bytes
	last := c.ring[len(c.ring)-1]
	c.ring[e.pos], last.pos = last, e.pos
	c.ring[len(c.ring)-1] = nil
	c.ring = c.ring[:len(c.ring)-1]
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
	for _, ch := range was[same:] {
		if cv := ch.vecs.Load(); cv != nil && !held[ch] {
			for i := range cv.slots {
				if e := cv.slots[i].Load(); e != nil {
					c.evict(e)
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
	for c.bytes > c.limit && len(c.ring) > 0 {
		c.evict(c.victim(nil))
	}
}

// stats reports entry count and approximate bytes (used by tests).
func (c *colCache) stats() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring), c.bytes
}

// colFor returns the vector for column ci of a resident or columnar
// chunk, over all its rows: a columnar chunk's own, a resident chunk's
// built and cached on miss. A row is as wide as its table, so the rows it
// is built from give the width.
func (c *colCache) colFor(ch *chunk, ci int, typ value.Type) *colVec {
	if cc := ch.cols; cc != nil {
		return &cc.vecs[ci]
	}
	if v := c.get(ch, wholeChunk, ci); v != nil {
		return v
	}
	rows := ch.rows()
	return c.put(ch, wholeChunk, ci, len(rows[0]), buildColVec(rows, ci, typ))
}

// blockVec returns the vector for column ci of block bi of a chunk a
// checkpoint holds, of a table width columns wide, decoded from the
// block and cached in the block's own slot. A block that cannot be read
// or fails its CRC fails the scan (DESIGN.md §6): the file is the
// checkpoint, and one that has changed under a running database is not
// one to go on answering around.
func (e *execEnv) blockVec(ch *chunk, bi, ci, width int) (*colVec, error) {
	if v := e.cache.get(ch, bi, ci); v != nil {
		return v, nil
	}
	v, err := ch.blocks.Load().readBlock(ci, bi)
	if err != nil {
		return nil, err
	}
	return e.cache.put(ch, bi, ci, width, v), nil
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
