package sqldb

// Vectorized hash-join execution path.
//
// When a SELECT is a single equi-join over two base tables — one key
// of hashJoinCols's and nothing else, both columns of one type — the
// planner attaches a vecJoinPlan and runSelect executes the join
// columnar instead of row-at-a-time: the build side (the joined table)
// is ingested from typed column-cache vectors into a compact
// open-addressing hash table keyed on int64 datums / value.FloatBits /
// string datums (no per-row key strings, no []Row buckets), and the
// probe side runs morsel-parallel over the probe table's vectors,
// producing (probe row, build ordinal) selection-vector pairs. Payload
// columns are materialized late: only the key and any pushed-filter
// columns are decoded during the probe, and the pairs either feed
// aggregate kernels directly (fused mode, no joined rows ever built)
// or materialize output rows afterwards.
//
// On top of the table the build phase derives a semi-join filter — a
// two-probe Bloom filter plus the build keys' min/max — and pushes it
// into the probe scan at two granularities: per probe row (range test
// + Bloom test before the hash probe) and per compressed block, where
// it composes with the PR 6 zone maps so a cold block whose key range
// cannot intersect the build side is skipped before decompression.
//
// Semantics are the row engine's exactly: NULL keys never join (on
// either side), keys match by value.Compare's equality (a NaN joins
// only the NaNs, −0.0 joins 0.0: value.FloatBits), and output order is
// probe scan order crossed with ascending build-side ordinals per key
// (the insertion order the row engine's map buckets preserve). Partials
// merge in morsel index order, so results are byte-identical at any
// worker count. The row path remains the fallback and the semantic
// reference; the differential fuzzer holds the two equal.

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"
	"sort"

	"perfbase/internal/value"
)

// joinBloomRangeProbe caps the width of an integer key block's
// [min, max] range below which every candidate value is tested against
// the Bloom filter: a block whose narrow range overlaps the build
// min/max can still be skipped when none of its possible keys is in
// the build set.
const joinBloomRangeProbe = 256

// vecJoinPlan is the vectorized form of a qualifying single equi-join,
// attached to its compiledSelect and cached/invalidated with it. It
// holds only shape (table keys, column offsets, compiled predicates);
// the hash table and Bloom filter are data-dependent and built per
// execution.
type vecJoinPlan struct {
	leftKey, rightKey string // lower-cased table names (probe, build)
	li                int    // key column in the left (probe) scan schema
	ri                int    // key column in the right (build) table schema
	nLeft             int    // width of the left scan schema
	keyType           value.Type
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

	// Fused aggregation: when the query is grouped with at most one
	// plain-column group key and batchable aggregates, the probe pairs
	// feed partial group tables directly (aggregate.go's addBatch) and no
	// joined row is ever materialized; otherwise the join materializes a
	// relation and the row loops finish the query.
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
	if !ok || len(k.l) != 1 || k.filtered {
		return nil
	}
	li, ri := k.l[0], k.r[0]
	// The kernels key typed datums of one type: decline an Integer
	// against a Float (one key class, two datum types), and a Version,
	// whose datum is not its key (its components are).
	kt := ls[li].Type
	if kt != rs[ri].Type || kt == value.Version {
		return nil
	}
	jp := &vecJoinPlan{
		leftKey:  lower(st.From[0].Table),
		rightKey: lower(jc.Right.Table),
		li:       li, ri: ri, nLeft: len(ls),
		keyType:   kt,
		leftOuter: jc.Left,
	}
	// The WHERE clause was typed against the JOINED schema, so name
	// resolution (including ambiguity errors) matches the row engine; it
	// is pushed only when every column it reads is probe-side.
	need := map[int]bool{li: true}
	if where != nil {
		jp.hasWhere = true
		if where.total && !slices.ContainsFunc(where.columns(), func(ci int) bool { return ci >= jp.nLeft }) {
			jp.pred, jp.zone = where.vec(len(p.srcSchema), need)
		}
	}
	jp.planFused(st, p, need)
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
// absent or pushed, at most one group key, and keys and aggregates that
// addBatch can run. Declining only costs fusion — the join still runs
// vectorized and materializes a relation for the row loops.
func (jp *vecJoinPlan) planFused(st *SelectStmt, p *compiledSelect, need map[int]bool) {
	if !p.grouped || (jp.hasWhere && jp.pred == nil) || len(st.GroupBy) > 1 {
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

// joinHash is the build-side structure: an open-addressing hash table
// whose buckets are counting-sorted ranges of build-row ordinals, plus
// the semi-join filter (Bloom bits and key min/max). Slot i is empty
// when counts[i] == 0; a bucket's ordinals sit at rows[starts[i] :
// starts[i]+counts[i]] in build scan order, which reproduces the
// insertion order of the row engine's map buckets.
type joinHash struct {
	mask   uint64
	keysI  []int64 // Integer/Boolean/Timestamp datums, or value.FloatBits
	keysS  []string
	full   []bool // slot occupancy; counts alone can lag a claim
	counts []int32
	starts []int32
	rows   []int32

	bloomMask uint64
	bloom     []uint64

	n          int // non-NULL build keys
	hasMM      bool
	minI, maxI int64
	minF, maxF float64
	minS, maxS string

	seed maphash.Seed
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (h *joinHash) hashStr(s string) uint64 { return maphash.String(h.seed, s) }

func (h *joinHash) bloomSet(hv uint64) {
	b1 := hv & h.bloomMask
	b2 := (hv>>17 | hv<<47) & h.bloomMask
	h.bloom[b1>>6] |= 1 << (b1 & 63)
	h.bloom[b2>>6] |= 1 << (b2 & 63)
}

func (h *joinHash) bloomHas(hv uint64) bool {
	b1 := hv & h.bloomMask
	b2 := (hv>>17 | hv<<47) & h.bloomMask
	return h.bloom[b1>>6]&(1<<(b1&63)) != 0 && h.bloom[b2>>6]&(1<<(b2&63)) != 0
}

// slotI finds the slot of an int64-classed key, claiming an empty slot
// when insert is true; fresh reports a new claim. Returns slot -1 for
// a probe miss.
func (h *joinHash) slotI(k int64, insert bool) (slot int, fresh bool) {
	i := mix64(uint64(k)) & h.mask
	for {
		if !h.full[i] {
			if !insert {
				return -1, false
			}
			h.full[i] = true
			h.keysI[i] = k
			return int(i), true
		}
		if h.keysI[i] == k {
			return int(i), false
		}
		i = (i + 1) & h.mask
	}
}

func (h *joinHash) slotS(k string, insert bool) (slot int, fresh bool) {
	i := h.hashStr(k) & h.mask
	for {
		if !h.full[i] {
			if !insert {
				return -1, false
			}
			h.full[i] = true
			h.keysS[i] = k
			return int(i), true
		}
		if h.keysS[i] == k {
			return int(i), false
		}
		i = (i + 1) & h.mask
	}
}

// intKeyAt converts build key vector row i into its int64-classed
// datum (Integer/Boolean/Timestamp value, or value.FloatBits).
func intKeyAt(v *colVec, i int, kt value.Type) int64 {
	if kt == value.Float {
		return int64(value.FloatBits(v.floats[i]))
	}
	return v.ints[i]
}

// buildJoinHash ingests the build table's key column — from its typed
// column-cache vectors, chunk by chunk — into the hash table and
// semi-join filter. NULL keys are skipped outright (they can never
// match). The error is the build table's, cold and failing to hydrate.
func buildJoinHash(env *execEnv, jp *vecJoinPlan, rt *table) (*joinHash, error) {
	if err := rt.hydrate(); err != nil {
		return nil, err
	}
	list := rt.builtChunks()
	kvs := make([]*colVec, len(list))
	for i, ch := range list {
		kvs[i] = env.cache.colFor(ch, jp.ri, jp.keyType)
	}
	h := &joinHash{seed: maphash.MakeSeed()}
	slots := nextPow2(max(4, 2*rt.nrows))
	h.mask = uint64(slots - 1)
	h.full = make([]bool, slots)
	h.counts = make([]int32, slots)
	if jp.keyType == value.String {
		h.keysS = make([]string, slots)
	} else {
		h.keysI = make([]int64, slots)
	}
	bloomBits := nextPow2(max(64, 10*rt.nrows))
	h.bloomMask = uint64(bloomBits - 1)
	h.bloom = make([]uint64, bloomBits/64)

	// Pass 1: claim slots, count duplicates, set Bloom bits, track the
	// key min/max. String chunks with a dictionary hash each distinct
	// value once instead of once per row.
	for ci, kv := range kvs {
		n := list[ci].len()
		if jp.keyType == value.String {
			if codes, vals := kv.dict(); codes != nil {
				slotOf := make([]int32, len(vals))
				for c, s := range vals {
					slot, fresh := h.slotS(s, true)
					if fresh {
						h.bloomSet(h.hashStr(s))
						widen(h, &h.minS, &h.maxS, s)
					}
					slotOf[c] = int32(slot)
				}
				for i := range n {
					c := codes[i]
					if c < 0 {
						continue
					}
					h.counts[slotOf[c]]++
					h.n++
				}
				continue
			}
			for i := range n {
				if kv.null(i) {
					continue
				}
				s := kv.strs[i]
				slot, fresh := h.slotS(s, true)
				if fresh {
					h.bloomSet(h.hashStr(s))
					widen(h, &h.minS, &h.maxS, s)
				}
				h.counts[slot]++
				h.n++
			}
			continue
		}
		for i := range n {
			if kv.null(i) {
				continue
			}
			k := intKeyAt(kv, i, jp.keyType)
			slot, fresh := h.slotI(k, true)
			if fresh {
				h.bloomSet(mix64(uint64(k)))
				if jp.keyType == value.Float {
					widen(h, &h.minF, &h.maxF, kv.floats[i])
				} else {
					widen(h, &h.minI, &h.maxI, k)
				}
			}
			h.counts[slot]++
			h.n++
		}
	}

	// Prefix-sum the bucket starts, then fill rows in build scan order:
	// every bucket's ordinals come out ascending, matching the append
	// order of the row engine's map buckets.
	h.starts = make([]int32, slots)
	run := int32(0)
	for i, c := range h.counts {
		h.starts[i] = run
		run += c
	}
	h.rows = make([]int32, run)
	next := append([]int32(nil), h.starts...)
	g := int32(0)
	for ci, kv := range kvs {
		for i := range list[ci].len() {
			if kv.null(i) {
				g++
				continue
			}
			var slot int
			if jp.keyType == value.String {
				slot, _ = h.slotS(kv.strs[i], false)
			} else {
				slot, _ = h.slotI(intKeyAt(kv, i, jp.keyType), false)
			}
			h.rows[next[slot]] = g
			next[slot]++
			g++
		}
	}
	return h, nil
}

// widen stretches the build keys' [lo, hi] to x, in value.Compare's
// order, in which a NaN is the least float; the first key opens it.
func widen[T cmp.Ordered](h *joinHash, lo, hi *T, x T) {
	if !h.hasMM || cmp.Less(x, *lo) {
		*lo = x
	}
	if !h.hasMM || cmp.Less(*hi, x) {
		*hi = x
	}
	h.hasMM = true
}

// lookupI returns the bucket range for an int64-classed probe key,
// with the min/max and Bloom semi-join tests applied first.
func (h *joinHash) lookupI(k int64, kt value.Type) (int32, int32) {
	if kt == value.Float {
		if f := math.Float64frombits(uint64(k)); !h.hasMM || cmp.Less(f, h.minF) || cmp.Less(h.maxF, f) {
			return 0, 0
		}
	} else if !h.hasMM || k < h.minI || k > h.maxI {
		return 0, 0
	}
	if !h.bloomHas(mix64(uint64(k))) {
		return 0, 0
	}
	slot, _ := h.slotI(k, false)
	if slot < 0 {
		return 0, 0
	}
	return h.starts[slot], h.starts[slot] + h.counts[slot]
}

func (h *joinHash) lookupS(k string) (int32, int32) {
	if !h.hasMM || k < h.minS || k > h.maxS {
		return 0, 0
	}
	if !h.bloomHas(h.hashStr(k)) {
		return 0, 0
	}
	slot, _ := h.slotS(k, false)
	if slot < 0 {
		return 0, 0
	}
	return h.starts[slot], h.starts[slot] + h.counts[slot]
}

// keyZoneMiss reports whether a probe block's key zone map proves no
// row of the block can find a build match: every key NULL, the block
// range disjoint from the build min/max, or — for a narrow integer
// range — no candidate value present in the Bloom filter. Exact in one
// direction only: false never means "will match".
func (h *joinHash) keyZoneMiss(km *blockMeta, kt value.Type) bool {
	if km == nil {
		return false
	}
	if !km.HasMM && !km.HasNaN || h.n == 0 {
		return true // every key NULL, or no build key
	}
	switch kt {
	case value.Integer, value.Boolean, value.Timestamp:
		if km.MaxI < h.minI || km.MinI > h.maxI {
			return true
		}
		if kt == value.Integer {
			if w := km.MaxI - km.MinI; w >= 0 && w < joinBloomRangeProbe {
				for v := km.MinI; v <= km.MaxI; v++ {
					if h.bloomHas(mix64(uint64(v))) {
						return false
					}
				}
				return true
			}
		}
	case value.Float:
		if lo, hi := floatBounds(km); cmp.Less(hi, h.minF) || cmp.Less(h.maxF, lo) {
			return true
		}
	case value.String:
		if km.MaxS < h.minS || km.MinS > h.maxS {
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

// rep materializes tuple j's joined row.
func (b *joinPairs) rep(j int) Row {
	row := make(Row, 0, b.nLeft+len(b.pad))
	row = append(row, b.rows[b.pl[j]]...)
	if r := b.pr[j]; r >= 0 {
		return append(row, b.build[r]...)
	}
	return append(row, b.pad...)
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
		var mask []bool
		if jp.pred != nil {
			mask = bufs.mask[:n]
			jp.pred(cv, lo, mask)
		}
		pl = make([]int32, 0, n)
		pr = make([]int32, 0, n)
		emit := func(i int, blo, bhi int32) {
			if blo == bhi {
				if jp.leftOuter {
					pl = append(pl, int32(i))
					pr = append(pr, -1)
				}
				return
			}
			for r := blo; r < bhi; r++ {
				pl = append(pl, int32(i))
				pr = append(pr, h.rows[r])
			}
		}
		kv := cv[jp.li]
		switch jp.keyType {
		case value.String:
			if codes, vals := kv.dict(); codes != nil {
				// Dictionary probe: one hash lookup per distinct value,
				// then an array read per row.
				type rng struct{ lo, hi int32 }
				lut := make([]rng, len(vals))
				for c, s := range vals {
					blo, bhi := h.lookupS(s)
					lut[c] = rng{blo, bhi}
				}
				for i := lo; i < hi; i++ {
					if mask != nil && !mask[i-lo] {
						continue
					}
					c := codes[i]
					if c < 0 {
						emit(i, 0, 0) // NULL never joins; LEFT pads
						continue
					}
					emit(i, lut[c].lo, lut[c].hi)
				}
				return pl, pr
			}
			for i := lo; i < hi; i++ {
				if mask != nil && !mask[i-lo] {
					continue
				}
				if kv.null(i) {
					emit(i, 0, 0)
					continue
				}
				blo, bhi := h.lookupS(kv.strs[i])
				emit(i, blo, bhi)
			}
		case value.Float:
			for i := lo; i < hi; i++ {
				if mask != nil && !mask[i-lo] {
					continue
				}
				if kv.null(i) {
					emit(i, 0, 0)
					continue
				}
				blo, bhi := h.lookupI(int64(value.FloatBits(kv.floats[i])), value.Float)
				emit(i, blo, bhi)
			}
		default: // Integer, Boolean, Timestamp
			for i := lo; i < hi; i++ {
				if mask != nil && !mask[i-lo] {
					continue
				}
				if kv.null(i) {
					emit(i, 0, 0)
					continue
				}
				blo, bhi := h.lookupI(kv.ints[i], jp.keyType)
				emit(i, blo, bhi)
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
	// pairs.
	npairs := 0
	for _, part := range parts {
		if part != nil {
			npairs += len(part.pl)
		}
	}
	out := make([]Row, 0, npairs)
	for _, part := range parts {
		if part == nil {
			continue
		}
		for j := range part.pl {
			out = append(out, part.rep(j))
		}
	}
	return nil, singleChunk(p.srcSchema, out), true, nil
}

// prune decides probe morsel m from its zone maps alone, before
// anything is decoded: skip — no pair can come of it, because the WHERE
// clause pushed below the join (valid for INNER and LEFT alike) rejects
// every row, or an inner join's keys all miss the build side's
// key range and Bloom filter; padAll — a LEFT join's block whose keys all
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
	switch {
	case jp.zone != nil && jp.zone(meta):
		return true, false
	case !h.keyZoneMiss(meta(jp.li), jp.keyType):
		return false, false
	}
	return !jp.leftOuter, jp.leftOuter && jp.padAllOK()
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
