package sqldb

// Vectorized hash-join execution path.
//
// When a SELECT is a single equi-join over two base tables — keys of
// hashJoinCols's and nothing else, each pair of columns of one type — the
// planner attaches a vecJoinPlan and runSelect executes the join
// columnar instead of row-at-a-time. The build side (the joined table)
// runs its key columns, typed column-cache vectors, through a keyIndex
// (aggregate.go), the index a groupTable finds its groups in: each
// distinct key is an entry, and the build ordinals are counting-sorted by
// entry (no per-row key strings, no []Row buckets). The probe side runs
// morsel-parallel over the probe table's vectors, looks its key columns
// up in the same index without opening entries, and produces (probe row,
// build ordinal) selection-vector pairs. Payload columns are
// materialized late: only the key and any pushed-filter columns are
// decoded during the probe, and the pairs either feed aggregate kernels
// directly (fused mode, no joined rows ever built) or materialize output
// rows afterwards.
//
// The build phase also keeps each key column's least and greatest key, a
// semi-join filter the probe scan asks per compressed block, where it
// composes with the PR 6 zone maps: a cold block whose key range cannot
// intersect the build side's in some key column is skipped before
// decompression, and a narrow integer range of a one-key join is looked
// up value by value.
//
// Semantics are the row engine's exactly: a tuple with a NULL key never
// joins (on either side), keys match by value.Compare's equality (a NaN
// joins only the NaNs, −0.0 joins 0.0, '1.2' joins '01.2': keyForm), and
// output order is probe scan order crossed with ascending build-side
// ordinals per key (the insertion order the row engine's map buckets
// preserve). Partials merge in morsel index order, so results are
// byte-identical at any worker count. The row path remains the fallback —
// for a residual ON conjunct, an Integer key against a Float one, and
// anything but one join of two base tables — and the semantic reference;
// the differential fuzzer holds the two equal.

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"perfbase/internal/value"
)

// joinBloomRangeProbe caps the width of an integer key block's
// [min, max] range below which every candidate value is looked up in the
// build side's index: a block whose narrow range overlaps the build
// min/max can still be skipped when none of its possible keys is a build
// key.
const joinBloomRangeProbe = 256

// vecJoinPlan is the vectorized form of a qualifying single equi-join,
// attached to its compiledSelect and cached/invalidated with it. It
// holds only shape (table keys, column offsets, compiled predicates);
// the build side's index is data-dependent and built per execution.
type vecJoinPlan struct {
	leftKey, rightKey string       // lower-cased table names (probe, build)
	li                []int        // key columns in the left (probe) scan schema
	ri                []int        // key columns in the right (build) table schema, pairwise
	keyTypes          []value.Type // the key pairs' types
	nLeft             int          // width of the left scan schema
	leftOuter         bool

	// pred is the WHERE clause pushed below the join: compiled against
	// the joined schema but reading only probe-side columns, which makes
	// pre-join filtering equivalent to post-join filtering for both
	// INNER and LEFT (a pad row carries its probe row's values). nil
	// when there is no WHERE clause or it is not pushable; the row
	// loops downstream still apply the full clause either way, so a
	// pushed predicate is merely applied twice (idempotently).
	pred     vecPredFn
	hasWhere bool
	zone     zoneFn // zone-map form of pred; nil when not derivable

	needL []int // probe-side columns hydrated during the scan

	// Fused aggregation: when the query is grouped by plain columns with
	// batchable aggregates, the probe pairs feed partial group tables
	// directly (aggregate.go's addBatch) and no joined row is ever
	// materialized; otherwise the join materializes a relation and the
	// row loops finish the query.
	fused bool
	needR []int // build-side columns needed as table-flat vectors
	// fusedLeft is true when fused aggregation reads probe-side column
	// vectors (a probe-side group key or aggregate argument); the
	// LEFT-join pad-without-decoding fast path is then unavailable,
	// since pad rows still feed those kernels.
	fusedLeft bool
}

// padAllOK reports whether a probe block whose keys provably miss the
// build side can emit LEFT pads without decoding: no pushed filter to
// evaluate and no fused kernel reading probe-side vectors.
func (jp *vecJoinPlan) padAllOK() bool {
	return jp.pred == nil && !jp.fusedLeft
}

// planVecJoin decides whether st is a vectorizable equi-join and
// compiles the plan if so. Returns nil — meaning "row-engine join" —
// for any shape outside the supported set; qualification errs on the
// side of declining, never on the side of changing results.
func (sn *snapshot) planVecJoin(st *SelectStmt, p *compiledSelect, where *texpr) *vecJoinPlan {
	if len(st.From) != 1 || len(st.Joins) != 1 {
		return nil
	}
	jc := st.Joins[0]
	ls, err := sn.scanSchema(st.From[0])
	if err != nil {
		return nil
	}
	rs, err := sn.scanSchema(jc.Right)
	if err != nil {
		return nil
	}
	k, ok := hashJoinCols(jc.On, ls, rs)
	if !ok || k.filtered {
		return nil
	}
	jp := &vecJoinPlan{
		leftKey:  lower(st.From[0].Table),
		rightKey: lower(jc.Right.Table),
		li:       k.l, ri: k.r, nLeft: len(ls),
		leftOuter: jc.Left,
	}
	// The index keys the datums of one type: an Integer against a Float
	// (one key class, two datum types) declines.
	need := map[int]bool{}
	for i, li := range k.l {
		if ls[li].Type != rs[k.r[i]].Type {
			return nil
		}
		jp.keyTypes = append(jp.keyTypes, ls[li].Type)
		need[li] = true
	}
	// The WHERE clause was typed against the JOINED schema, so name
	// resolution (including ambiguity errors) matches the row engine; it
	// is pushed only when every column it reads is probe-side.
	if where != nil {
		jp.hasWhere = true
		if where.total && !slices.ContainsFunc(where.columns(), func(ci int) bool { return ci >= jp.nLeft }) {
			jp.pred, jp.zone = where.vec(len(p.srcSchema), need)
		}
	}
	jp.planFused(p, need)
	for ci := range need {
		if ci < jp.nLeft {
			jp.needL = append(jp.needL, ci)
		}
	}
	sort.Ints(jp.needL)
	sort.Ints(jp.needR)
	return jp
}

// planFused qualifies the fused-aggregation mode: grouped query, WHERE
// absent or pushed, and keys and aggregates that addBatch can run.
// Declining only costs fusion — the join still runs vectorized and
// materializes a relation for the row loops.
func (jp *vecJoinPlan) planFused(p *compiledSelect, need map[int]bool) {
	if !p.grouped || (jp.hasWhere && jp.pred == nil) {
		return
	}
	// Fusion merges per-morsel partial tables: an aggregate whose state
	// does not merge keeps the statement on the row loops.
	cols := map[int]bool{}
	if !p.batchable(cols) || !p.mergesParts() {
		return
	}
	for ci := range cols {
		if ci < jp.nLeft {
			need[ci] = true
			jp.fusedLeft = true
		} else {
			jp.needR = append(jp.needR, ci)
		}
	}
	jp.fused = true
}

// ------------------------------------------------------ build side

// joinHash is the build side: the keyIndex of its distinct keys, entry
// e's build ordinals at rows[starts[e]:starts[e+1]] in build scan order,
// which reproduces the insertion order of the row engine's map buckets,
// and per key column the least and the greatest key, the semi-join
// filter of the block scan.
type joinHash struct {
	keyIndex
	starts, rows []int32
	bounds       []keyBounds
}

// keyBounds are one key column's least and greatest build key, in
// value.Compare's order, in which a NaN is the least float: in ints for
// an integer, boolean or timestamp key, floats for a float key and strs
// for a string key. A version key has none.
type keyBounds struct {
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
}

// buildJoinHash runs the build table's key columns — its typed
// column-cache vectors, chunk by chunk — through the index once, in build
// scan order, and counting-sorts the build ordinals by the entry each
// found. A row with a NULL key never enters it: it can never match. The
// error is the build table's, cold and failing to hydrate.
func buildJoinHash(env *execEnv, jp *vecJoinPlan, rt *table) (*joinHash, error) {
	if err := rt.hydrate(); err != nil {
		return nil, err
	}
	h := &joinHash{keyIndex: newKeyIndex(jp.keyTypes, rt.nrows)}
	pr := probePool.Get().(*probe)
	defer probePool.Put(pr)
	bufs := morselBufPool.Get().(*morselBufs)
	defer morselBufPool.Put(bufs)
	var few [4]keyVec
	keys := few[:0]
	for range jp.ri {
		keys = append(keys, keyVec{})
	}
	ent := make([]int32, 0, rt.nrows) // build ordinal → entry, −1 for a NULL key
	for _, ch := range rt.builtChunks() {
		for k, ci := range jp.ri {
			keys[k].v = env.cache.colFor(ch, ci, jp.keyTypes[k])
		}
		// A window of rows at a time: those without a NULL key are looked
		// up.
		base := len(ent)
		for lo := 0; lo < ch.len(); lo += vecMorselRows {
			sel := bufs.sel[:0]
			for i := lo; i < min(lo+vecMorselRows, ch.len()); i++ {
				ent = append(ent, -1)
				if !slices.ContainsFunc(keys, func(kv keyVec) bool { return kv.v.null(i) }) {
					sel = append(sel, int32(i))
				}
			}
			pr.at = pr.at[:0]
			for j := range sel {
				pr.at = append(pr.at, int32(j))
			}
			for k := range keys {
				keys[k].pos = sel
			}
			for j, e := range h.lookup(keys, pr, true) {
				ent[base+int(sel[j])] = e
			}
		}
	}
	// Bucket e runs from starts[e] to starts[e+1]; filled in ordinal
	// order, every bucket's ordinals come out ascending.
	n := len(h.hashes)
	h.starts = make([]int32, n+1)
	for _, e := range ent {
		if e >= 0 {
			h.starts[e+1]++
		}
	}
	for e := range n {
		h.starts[e+1] += h.starts[e]
	}
	h.rows = make([]int32, h.starts[n])
	next := slices.Clone(h.starts[:n])
	for o, e := range ent {
		if e >= 0 {
			h.rows[next[e]] = int32(o)
			next[e]++
		}
	}
	h.bounds = make([]keyBounds, len(jp.keyTypes))
	if n == 0 {
		return h, nil
	}
	for k, kt := range jp.keyTypes {
		c, b := &h.keys[k], &h.bounds[k]
		switch kt {
		case value.Integer, value.Boolean, value.Timestamp:
			b.minI, b.maxI = slices.Min(c.ints), slices.Max(c.ints)
		case value.Float:
			fs := make([]float64, n)
			for e, x := range c.ints {
				fs[e] = math.Float64frombits(uint64(x))
			}
			b.minF, b.maxF = slices.MinFunc(fs, cmp.Compare[float64]), slices.MaxFunc(fs, cmp.Compare[float64])
		case value.String:
			b.minS, b.maxS = slices.Min(c.strs), slices.Max(c.strs)
		}
	}
	return h, nil
}

// inBounds appends to at the tuples 0..n-1 of keys whose key lies inside
// every key column's build range, and returns it: the probe's range
// test, a key column at a time, before gather hashes them — a tuple
// outside finds no entry. A NULL key's vectors hold the zero value, and
// lookup finds it none.
func (h *joinHash) inBounds(keys []keyVec, n int, at []int32) []int32 {
	for j := range n {
		at = append(at, int32(j))
	}
	for k, kv := range keys {
		b, v, pos := &h.bounds[k], kv.v, kv.pos
		switch v.typ {
		case value.Integer, value.Boolean, value.Timestamp:
			at = keepIn(at, v.ints, pos, b.minI, b.maxI)
		case value.Float:
			if !math.IsNaN(b.minF) { // NaN is the least key: with one, the range holds every float
				at = keepIn(at, v.floats, pos, b.minF, b.maxF)
			}
		case value.String:
			at = keepIn(at, v.strs, pos, b.minS, b.maxS)
		}
	}
	return at
}

// keepIn keeps, in place, the tuples j of at whose datum xs[pos[j]] lies
// in [lo, hi].
func keepIn[T cmp.Ordered](at []int32, xs []T, pos []int32, lo, hi T) []int32 {
	kept := at[:0]
	for _, j := range at {
		if x := xs[pos[j]]; lo <= x && x <= hi {
			kept = append(kept, j)
		}
	}
	return kept
}

// keyZoneMiss reports whether a probe block's zone map km of key column
// k proves no row of the block can find a build match: every key NULL,
// no build key, the block range disjoint from the build keys', or — for
// a narrow range of a one-key integer join — no candidate value in the
// index. Exact in one direction only: false never means "will match".
func (h *joinHash) keyZoneMiss(km *blockMeta, k int, kt value.Type) bool {
	if km == nil {
		return false
	}
	if !km.HasMM && !km.HasNaN || len(h.hashes) == 0 {
		return true // every key NULL, or no build key
	}
	b := &h.bounds[k]
	switch kt {
	case value.Integer, value.Boolean, value.Timestamp:
		if km.MaxI < b.minI || km.MinI > b.maxI {
			return true
		}
		if w := km.MaxI - km.MinI; kt == value.Integer && len(h.keys) == 1 && w >= 0 && w < joinBloomRangeProbe {
			q := []colVec{{typ: value.Integer, ints: []int64{0}}}
			for x := km.MinI; x <= km.MaxI; x++ {
				if q[0].ints[0] = x; h.find(q, 0, uint64(x)*keyMul, false) >= 0 {
					return false
				}
			}
			return true
		}
	case value.Float:
		if lo, hi := floatBounds(km); cmp.Less(hi, b.minF) || cmp.Less(b.maxF, lo) {
			return true
		}
	case value.String:
		if km.MaxS < b.minS || km.MinS > b.maxS {
			return true
		}
	}
	return false
}

// ------------------------------------------------------ probe side

// joinBuild is the build side as the probe pairs read it, shared by
// every morsel: the build table's rows by ordinal, the table-flat
// vectors of the columns fused aggregation reads (indexed by joined
// schema column), and the NULL row a LEFT join pads with.
type joinBuild struct {
	nLeft     int
	leftOuter bool
	build     []Row
	flat      []*colVec
	pad       Row
}

// joinPairs is one probe morsel's output: tuple j joins probe row
// rows[pl[j]] to build ordinal pr[j] (-1 for a LEFT pad). Pairs are
// emitted in probe order with ascending build ordinals per probe row,
// so taking partials in morsel index order reproduces the row engine's
// output order exactly. It is the aggBatch of the fused mode.
type joinPairs struct {
	*joinBuild
	rows   []Row
	cv     []*colVec // probe-side vectors over rows
	pl, pr []int32
}

func (b *joinPairs) size() int { return len(b.pl) }

// col reads a probe-side column through the morsel's vectors at pl, a
// build-side one through the table-flat vectors at pr, where a pad
// reads as NULL.
func (b *joinPairs) col(ci int) (*colVec, []int32, bool) {
	if ci < b.nLeft {
		return b.cv[ci], b.pl, false
	}
	return b.flat[ci], b.pr, b.leftOuter
}

func (b *joinPairs) setRep(g *group, j int) { g.rep = b.rep(j) }

// width is the number of values in a joined row.
func (b *joinBuild) width() int { return b.nLeft + len(b.pad) }

// rep materializes tuple j's joined row.
func (b *joinPairs) rep(j int) Row {
	row := make(Row, b.width())
	b.fill(row, j)
	return row
}

// fill writes tuple j's joined row into row, which is width long.
func (b *joinPairs) fill(row Row, j int) {
	n := copy(row, b.rows[b.pl[j]])
	if r := b.pr[j]; r >= 0 {
		copy(row[n:], b.build[r])
	} else {
		copy(row[n:], b.pad)
	}
}

// runVecJoin executes a planned equi-join through the vectorized path.
// Three outcomes: (res, nil) — fused aggregation produced the full
// result; (nil, rel) — the join materialized the source relation and
// the caller's row loops finish the query; ok == false — the path
// declines at runtime (environment missing, vectorization disabled,
// vector build failed) and the row engine must run the join itself.
func (sn *snapshot) runVecJoin(st *SelectStmt, p *compiledSelect) (*Result, *relation, bool, error) {
	jp := p.vecJoin
	env := sn.env
	if env == nil || env.vecDisabled.Load() {
		return nil, nil, false, nil
	}
	lt, ok := sn.table(jp.leftKey)
	if !ok {
		return nil, nil, false, nil
	}
	rt, ok := sn.table(jp.rightKey)
	if !ok {
		return nil, nil, false, nil
	}
	h, err := buildJoinHash(env, jp, rt)
	if err != nil {
		return nil, nil, true, err
	}
	rtRows, err := rt.flat()
	if err != nil {
		return nil, nil, true, err
	}
	ms, err := lt.morsels()
	if err != nil {
		return nil, nil, true, err
	}

	// The build side as the pairs read it. Fused aggregation takes its
	// payload columns as table-flat vectors, indexed by build ordinal.
	build := &joinBuild{
		nLeft: jp.nLeft, leftOuter: jp.leftOuter, build: rtRows,
		pad: make(Row, len(p.srcSchema)-jp.nLeft),
	}
	for i := range build.pad {
		build.pad[i] = value.Null(p.srcSchema[jp.nLeft+i].Type)
	}
	if len(jp.needR) > 0 {
		build.flat = make([]*colVec, len(p.srcSchema))
		for _, ci := range jp.needR {
			build.flat[ci] = buildColVec(rtRows, ci-jp.nLeft, p.srcSchema[ci].Type)
		}
	}

	// probeMorsel produces the pair lists of a morsel whose vectors cv
	// cover positions [lo, hi); pl entries are positions, which index the
	// morsel's rows too. bufs is the morsel's scratch.
	probeMorsel := func(cv []*colVec, lo, hi int, padAll bool, bufs *morselBufs) ([]int32, []int32) {
		n := hi - lo
		var pl, pr []int32
		if padAll {
			pl = make([]int32, n)
			pr = make([]int32, n)
			for i := 0; i < n; i++ {
				pl[i] = int32(lo + i)
				pr[i] = -1
			}
			return pl, pr
		}
		// The tuples: the positions the pushed filter keeps, all of them
		// without one. A NULL key finds no entry: the build side has none.
		var mask []bool
		if jp.pred != nil {
			mask = bufs.mask[:n]
			jp.pred(cv, lo, mask)
		}
		sel := bufs.sel[:0]
		for i := lo; i < hi; i++ {
			if mask == nil || mask[i-lo] {
				sel = append(sel, int32(i))
			}
		}
		var few [4]keyVec
		keys := few[:0]
		for _, ci := range jp.li {
			keys = append(keys, keyVec{cv[ci], sel})
		}
		q := probePool.Get().(*probe)
		defer probePool.Put(q)
		q.at = h.inBounds(keys, len(sel), q.at[:0])
		gs := h.lookup(keys, q, false)
		pl = make([]int32, 0, n)
		pr = make([]int32, 0, n)
		next := 0 // the next tuple looked up
		for j := range sel {
			e := int32(-1)
			if next < len(q.at) && int(q.at[next]) == j {
				e = gs[next]
				next++
			}
			if e < 0 {
				if jp.leftOuter {
					pl = append(pl, sel[j])
					pr = append(pr, -1)
				}
				continue
			}
			for _, r := range h.rows[h.starts[e]:h.starts[e+1]] {
				pl = append(pl, sel[j])
				pr = append(pr, r)
			}
		}
		return pl, pr
	}

	// Collect pairs per morsel. Fused mode aggregates them on the spot —
	// grouped and fed to the kernels without materializing a joined row
	// beyond one representative per distinct group — and merges the
	// partial tables in morsel index order.
	parts := make([]*joinPairs, len(ms))
	var tables []*groupTable
	if jp.fused {
		tables = make([]*groupTable, len(ms))
	}
	zoneOn := !env.zoneOff.Load()
	// Every morsel's vectors, in one allocation, cleared once the morsel
	// is done with them (as runVecSelect does).
	w := len(p.srcSchema)
	cvs := make([]*colVec, len(ms)*w)
	err = runMorsels(env, len(ms), lt.nrows, func(mi int) error {
		_ = fpMorsel.Inject() // latency-model site
		m := &ms[mi]
		var skip, padAll bool
		if zoneOn {
			skip, padAll = jp.prune(h, m)
		}
		env.countBlock(m, skip || padAll)
		if skip {
			return nil
		}
		cv := cvs[mi*w : (mi+1)*w : (mi+1)*w]
		defer clear(cv)
		lo, hi := 0, m.hi-m.lo
		if !padAll {
			var err error
			if lo, hi, err = env.vecs(m, p.srcSchema, jp.needL, cv); err != nil {
				return err
			}
		}
		bufs := morselBufPool.Get().(*morselBufs)
		defer morselBufPool.Put(bufs)
		pl, pr := probeMorsel(cv, lo, hi, padAll, bufs)
		if len(pl) == 0 {
			return nil
		}
		rows, err := lt.morselRows(m)
		if err != nil {
			return err
		}
		pairs := &joinPairs{joinBuild: build, rows: rows, cv: cv, pl: pl, pr: pr}
		if jp.fused {
			if len(pl) > cap(bufs.gids) {
				bufs.gids = make([]int32, len(pl))
			}
			tables[mi] = newGroupTable(st, p)
			tables[mi].addBatch(pairs, bufs.gids[:len(pl)])
		} else {
			parts[mi] = pairs
		}
		return nil
	})
	if err != nil {
		return nil, nil, true, err
	}
	if jp.fused {
		res, err := renderParts(st, p, tables)
		return res, nil, true, err
	}

	// Materialize mode: build the joined relation in morsel index order —
	// late materialization touches the payload rows only for surviving
	// pairs, and cuts them all from one slab.
	npairs := 0
	for _, part := range parts {
		if part != nil {
			npairs += len(part.pl)
		}
	}
	rw := build.width()
	slab := make([]value.Value, npairs*rw)
	out := make([]Row, npairs)
	i := 0
	for _, part := range parts {
		if part == nil {
			continue
		}
		for j := range part.pl {
			out[i], slab = slab[:rw:rw], slab[rw:]
			part.fill(out[i], j)
			i++
		}
	}
	return nil, singleChunk(p.srcSchema, out), true, nil
}

// prune decides probe morsel m from its zone maps alone, before
// anything is decoded: skip — no pair can come of it, because the WHERE
// clause pushed below the join (valid for INNER and LEFT alike) rejects
// every row, or an inner join's keys all miss the build side's
// (joinHash.keyZoneMiss); padAll — a LEFT join's block whose keys all
// miss, with no pushed filter or fused kernel to decode for, emits a pad
// per row undecoded. Either is a block skipped, at run time and in
// EXPLAIN; a fresh chunk's window is neither.
func (jp *vecJoinPlan) prune(h *joinHash, m *morsel) (skip, padAll bool) {
	if m.bi == wholeChunk {
		return false, false
	}
	// The joined schema has the build side's columns too; they have no
	// block here.
	meta := func(ci int) *blockMeta {
		if ci >= jp.nLeft {
			return nil
		}
		return m.meta(ci)
	}
	if jp.zone != nil && jp.zone(meta) {
		return true, false
	}
	// A tuple with a NULL in any key column matches nothing: the block
	// misses when any key column does.
	for k, ci := range jp.li {
		if h.keyZoneMiss(meta(ci), k, jp.keyTypes[k]) {
			return !jp.leftOuter, jp.leftOuter && jp.padAllOK()
		}
	}
	return false, false
}

// vecJoinBlockSkips counts how many of the probe table's blocks the
// semi-join filter and zone maps skip — prune's decision, over the same
// morsels runVecJoin cuts. EXPLAIN reports it as bloom-skip.
func (db *DB) vecJoinBlockSkips(jp *vecJoinPlan, lt, rt *table) (int, error) {
	if db.env.zoneOff.Load() {
		return 0, nil
	}
	ms, err := lt.morsels()
	if err != nil || !slices.ContainsFunc(ms, func(m morsel) bool { return m.bi != wholeChunk }) {
		return 0, err
	}
	// Counting the semi-join's skips takes the build side's keys: this
	// is the one EXPLAIN that hydrates, and only rt.
	h, err := buildJoinHash(db.env, jp, rt)
	if err != nil {
		return 0, err
	}
	skipped := 0
	for i := range ms {
		if skip, padAll := jp.prune(h, &ms[i]); skip || padAll {
			skipped++
		}
	}
	return skipped, nil
}
