package sqldb

// Vectorized execution path.
//
// When a SELECT has the right shape — one table, no joins, no usable
// index probe, a WHERE clause the batch back end takes (a total one,
// texpr.total), plain-column group keys and kernelizable aggregates —
// the planner attaches a vecPlan to the compiled plan and runSelect
// executes it over the columnar projections of colcache.go instead of
// boxed rows: the WHERE clause evaluates into
// boolean masks over typed vectors, masks compact into selection
// vectors, and a grouped statement hands each morsel's selection to a
// partial group table's addBatch — grouping, kernels, merge and render
// are aggregate.go's, which also says which aggregates have kernels.
// This file holds the batch and zone back ends of the expression
// compiler (expr.go). Anything the plan cannot express falls back to the
// row engine, which remains the semantic reference; the differential
// fuzzer holds the two byte-for-byte equal.
//
// Parallelism is morsel-driven: every chunk is cut into fixed-size
// morsels, a bounded worker pool pulls morsel indexes from an atomic
// counter, and each morsel produces a partial (a group table, or
// filtered output rows). Partials are merged in MORSEL index order —
// not worker order — so results are identical no matter how many
// workers ran or how the scheduler interleaved them. Integer SUM, MIN,
// MAX and COUNT are exact; a float sum (SUM or AVG over a float column,
// AVG over an integer column once its sum passes 2^53) may differ from
// the row engine in the last ulp on multi-morsel tables because float
// addition is reordered (this is the one documented divergence, and
// the fuzzer keeps every sum it compares exactly representable so
// byte-for-byte comparison stays valid). A statement with an aggregate
// whose state does not merge (VARIANCE, STDDEV) builds no partials: its
// morsels fold into one group table in index order, the row engine's
// order, and answer byte for byte what it answers.

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

const (
	// vecMorselRows is the morsel size. Chunks larger than this (bulk
	// imports arrive as one chunk) are cut so a single big table still
	// parallelizes; chunks smaller than this are one morsel each.
	vecMorselRows = 4096
	// vecParallelMinRows gates the worker pool: below this a query runs
	// its morsels inline, because goroutine fan-out costs more than the
	// scan.
	vecParallelMinRows = 16384
)

// fpMorsel fires once per morsel before it is processed. The scaling
// benchmarks arm it with a sleep spec to model per-morsel fetch
// latency (as the replication benchmarks model per-node service time),
// which lets worker overlap be measured even on a single-CPU host.
var fpMorsel = failpoint.Site("sqldb/vector/morsel")

// vecPredFn evaluates a predicate over rows [lo, lo+len(mask)) of one
// chunk's vectors, writing the collapsed boolean (NULL → false, which
// is exact at the top level of a WHERE) into mask.
type vecPredFn func(cv []*colVec, lo int, mask []bool)

// zoneFn decides from block zone maps alone whether a whole block can
// be skipped: it returns true only when NO row of the block can pass
// the predicate. meta returns the block's metadata for a column (nil
// when unavailable, which must read as "cannot prune").
type zoneFn func(meta func(ci int) *blockMeta) bool

// vecPlan is the vectorized form of a qualifying SELECT, attached to
// its compiledSelect and cached/invalidated with it.
type vecPlan struct {
	cols []int // distinct source columns needing vectors

	pred vecPredFn // nil when no WHERE clause
	// zone is the zone-map form of pred: evaluated against a block's
	// min/max/null-count before the block is decoded. nil when the
	// predicate cannot be bounded from zone maps (which only costs
	// skipping, never correctness).
	zone zoneFn
	// inOrder is set when an aggregate's state does not merge
	// (aggSpec.mergeable): the scan then folds every morsel into one
	// group table, in scan order, instead of merging per-morsel partials.
	inOrder bool
}

// planVec decides whether st can run vectorized and compiles the plan
// if so. Returns nil — meaning "use the row engine" — for any shape
// outside the supported set; qualification must err on the side of
// declining, never on the side of changing results.
func (sn *snapshot) planVec(st *SelectStmt, p *compiledSelect, where *texpr) *vecPlan {
	if len(st.From) != 1 || len(st.Joins) != 0 {
		return nil
	}
	t, ok := sn.table(st.From[0].Table)
	if !ok {
		return nil
	}
	// An available index probe beats a full vectorized scan; mirror the
	// scan's decision (CREATE INDEX bumps the table version, so cached
	// plans re-qualify).
	if _, _, ok := indexProbe(t, st.Where); ok {
		return nil
	}
	vp := &vecPlan{}
	need := map[int]bool{}
	if where != nil {
		if !where.total {
			return nil
		}
		vp.pred, vp.zone = where.vec(len(p.srcSchema), need)
	}
	if p.grouped {
		if !p.batchable(need) {
			return nil
		}
		vp.inOrder = !p.mergesParts()
	} else if vp.pred == nil {
		// An unfiltered, ungrouped scan is pure row materialization;
		// vectors add nothing.
		return nil
	}
	for ci := range need {
		vp.cols = append(vp.cols, ci)
	}
	return vp
}

// ------------------------------------------------ batch and zone back ends

// vec lowers n, a total WHERE clause over rows width columns wide, to
// both vectorized back ends at once, since every reader wants both: the
// batch back end's mask kernel, and the zone back end's block check —
// nil when it cannot bound n, which composes as "never prunes".
// The columns the kernel reads are recorded in need. A zone check must
// be exact in one direction: true means no row of the block passes
// (NULL rows never do at the top level; a float NaN compares equal to
// everything).
func (n *texpr) vec(width int, need map[int]bool) (vecPredFn, zoneFn) {
	switch n.kind {
	case tLit:
		keep := boolTrue(n.v)
		kern := func(_ []*colVec, _ int, mask []bool) {
			for i := range mask {
				mask[i] = keep
			}
		}
		if keep {
			return kern, nil
		}
		return kern, zoneAlways
	case tCol:
		if n.typ != value.Boolean {
			break
		}
		ci := n.col
		need[ci] = true
		return func(cv []*colVec, lo int, mask []bool) {
				v := cv[ci]
				for i := range mask {
					mask[i] = v.ints[lo+i] != 0 && !v.null(lo+i)
				}
			}, func(meta func(int) *blockMeta) bool {
				m := meta(ci) // prunable when no value is true
				return m != nil && (!m.HasMM || m.MaxI == 0)
			}
	case tIsNull:
		if n.l.kind != tCol {
			break
		}
		ci, negate := n.l.col, n.negate
		need[ci] = true
		return func(cv []*colVec, lo int, mask []bool) {
				v := cv[ci]
				for i := range mask {
					mask[i] = v.null(lo+i) != negate
				}
			}, func(meta func(int) *blockMeta) bool {
				m := meta(ci)
				switch {
				case m == nil:
					return false
				case negate:
					return m.Nulls == m.Rows
				}
				return m.Nulls == 0
			}
	case tBin:
		if n.op == "and" || n.op == "or" {
			return n.vecLogic(width, need)
		}
	}
	if t, ok := n.colTest(); ok {
		if kern, zone := t.kernels(); kern != nil {
			need[t.col] = true
			return kern, zone
		}
	}
	return rowKernel(n, width, need), nil
}

// vecLogic lowers AND and OR. The row back end's AND and OR never yield
// NULL, so a mask, which holds boolTrue of each side, combines exactly.
// A conjunction prunes a block when either side does, a disjunction only
// when both do.
func (n *texpr) vecLogic(width int, need map[int]bool) (vecPredFn, zoneFn) {
	lm, lz := n.l.vec(width, need)
	rm, rz := n.r.vec(width, need)
	and := n.op == "and"
	kern := func(cv []*colVec, lo int, mask []bool) {
		lm(cv, lo, mask)
		tmp := make([]bool, len(mask))
		rm(cv, lo, tmp)
		if and {
			for i := range mask {
				mask[i] = mask[i] && tmp[i]
			}
			return
		}
		for i := range mask {
			mask[i] = mask[i] || tmp[i]
		}
	}
	switch {
	case and && lz == nil:
		return kern, rz
	case and && rz == nil:
		return kern, lz
	case and:
		return kern, func(meta func(int) *blockMeta) bool { return lz(meta) || rz(meta) }
	case lz == nil || rz == nil:
		return kern, nil
	}
	return kern, func(meta func(int) *blockMeta) bool { return lz(meta) && rz(meta) }
}

func vecFalse(_ []*colVec, _ int, mask []bool) { clear(mask) }

func zoneAlways(func(int) *blockMeta) bool { return true }

// rowKernel is the batch back end's kernel for a node it has no mask
// kernel for: the row back end's closure, run per position over a row
// that holds, boxed from their vectors, only the columns the node reads.
// The node is total, so the closure cannot fail.
func rowKernel(n *texpr, width int, need map[int]bool) vecPredFn {
	eval, cols := rowExpr(n), n.columns()
	for _, ci := range cols {
		need[ci] = true
	}
	return func(cv []*colVec, lo int, mask []bool) {
		ctx := &execCtx{row: make(Row, width)}
		for i := range mask {
			for _, ci := range cols {
				ctx.row[ci] = cv[ci].box(lo + i)
			}
			v, _ := eval(ctx)
			mask[i] = boolTrue(v)
		}
	}
}

// colTest is a node that tests one column against literals: a
// comparison (kind tBin; ok holds the outcomes of Compare(column,
// literal) that pass), BETWEEN or IN. An IN's NULL item never matches,
// and a value that matches no item beside one is NULL, which a filter
// drops as it drops false: IN leaves its NULL items out, NOT IN keeps
// them, and its kernel is vecFalse.
type colTest struct {
	kind   tkind
	col    int
	typ    value.Type // the column's
	ok     [3]bool
	negate bool
	lits   []value.Value
}

func (n *texpr) colTest() (t colTest, is bool) {
	t.kind, t.negate = n.kind, n.negate
	switch {
	case n.kind == tBin:
		var lit value.Value
		if t.col, lit, t.ok, is = n.cmpColLit(); !is {
			return t, false
		}
		t.lits = []value.Value{lit}
	case n.kind == tBetween && n.l.kind == tCol && n.r.kind == tLit && n.x.kind == tLit:
		t.col, t.lits = n.l.col, []value.Value{n.r.v, n.x.v}
	case n.kind == tIn && n.l.kind == tCol:
		t.col = n.l.col
		for _, k := range n.list {
			if k.kind != tLit {
				return t, false
			}
			if !k.v.IsNull() || n.negate {
				t.lits = append(t.lits, k.v)
			}
		}
	default:
		return t, false
	}
	t.typ = n.l.typ
	if n.l.kind != tCol { // a comparison with the literal on the left
		t.typ = n.r.typ
	}
	return t, true
}

// kernels lowers t when the column and its literals are of one class
// with an unboxed order — Integers, Floats against numbers a float holds
// exactly, Booleans, Timestamps, Strings — and returns nil otherwise: a
// Version's order is not its datum's, an Integer past 2^53 compares
// exactly only as one, and the other pairs compare by display form, on
// the row back end's kernel.
func (t *colTest) kernels() (vecPredFn, zoneFn) {
	if slices.ContainsFunc(t.lits, value.Value.IsNull) {
		return vecFalse, zoneAlways // a NULL operand: false or NULL on every row
	}
	switch {
	case t.typ == value.Integer && t.of(value.Integer), t.typ == value.Boolean && t.of(value.Boolean),
		t.typ == value.Timestamp && t.of(value.Timestamp):
		return testKernels(t, func(v *colVec) []int64 { return v.ints },
			func(m *blockMeta) (int64, int64) { return m.MinI, m.MaxI }, value.Value.Int)
	case t.typ == value.Float && t.of(value.Integer, value.Float) && !slices.ContainsFunc(t.lits, inexactFloat):
		return testKernels(t, func(v *colVec) []float64 { return v.floats }, floatBounds, value.Value.Float)
	case t.typ == value.String && t.of(value.String):
		return testKernels(t, func(v *colVec) []string { return v.strs },
			func(m *blockMeta) (string, string) { return m.MinS, m.MaxS }, value.Value.Str)
	}
	return nil, nil
}

// of reports whether every literal of t is of one of the types.
func (t *colTest) of(types ...value.Type) bool {
	for _, l := range t.lits {
		if !slices.Contains(types, l.Type()) {
			return false
		}
	}
	return true
}

// testKernels builds t's mask kernel and zone check over a column whose
// vectors hold its datums as elems returns them and whose zone maps
// bound them as bounds does; datum unpacks a literal. Every outcome is
// cmp.Compare's, value.Compare's order over one class. The zone check
// asks whether some value in the block's [min, max] passes — an
// over-approximation is sound, it only prunes less.
func testKernels[T cmp.Ordered](t *colTest, elems func(*colVec) []T, bounds func(*blockMeta) (T, T), datum func(value.Value) T) (vecPredFn, zoneFn) {
	kind, ci, ok, negate := t.kind, t.col, t.ok, t.negate
	lits := make([]T, len(t.lits))
	for i, l := range t.lits {
		lits[i] = datum(l)
	}
	if kind == tIn {
		// Searched, not scanned: slices orders and matches as cmp.Compare
		// does, NaN below every number and equal to itself, −0 equal to 0.
		slices.Sort(lits)
	}
	kern := func(cv []*colVec, lo int, mask []bool) {
		v := cv[ci]
		xs := elems(v)[lo : lo+len(mask)]
		switch kind {
		case tBin:
			lit := lits[0]
			for i, x := range xs {
				mask[i] = ok[cmp.Compare(x, lit)+1]
			}
		case tBetween:
			lo, hi := lits[0], lits[1]
			for i, x := range xs {
				mask[i] = (cmp.Compare(x, lo) >= 0 && cmp.Compare(x, hi) <= 0) != negate
			}
		default: // IN
			for i, x := range xs {
				_, found := slices.BinarySearch(lits, x)
				mask[i] = found != negate
			}
		}
		if v.nulls != nil {
			for i := range mask {
				mask[i] = mask[i] && !v.null(lo+i)
			}
		}
	}
	if kind == tIn && negate {
		return kern, nil // NOT IN cannot be refuted from a range
	}
	return kern, func(meta func(int) *blockMeta) bool {
		m := meta(ci)
		switch {
		case m == nil:
			return false
		case !m.HasMM && !m.HasNaN:
			return true // every row NULL
		}
		min, max := bounds(m)
		switch kind {
		case tBin:
			lit := lits[0]
			return !(ok[0] && cmp.Compare(min, lit) < 0 || ok[2] && cmp.Compare(max, lit) > 0 ||
				ok[1] && cmp.Compare(min, lit) <= 0 && cmp.Compare(max, lit) >= 0)
		case tBetween:
			// Both bound tests are monotone in the value: the block holds a
			// value between the bounds only if its max is above lo and its
			// min below hi, and only such values if its min and max both are.
			if negate {
				return cmp.Compare(min, lits[0]) >= 0 && cmp.Compare(max, lits[1]) <= 0
			}
			return cmp.Compare(max, lits[0]) < 0 || cmp.Compare(min, lits[1]) > 0
		}
		return !slices.ContainsFunc(lits, func(l T) bool { return cmp.Compare(min, l) <= 0 && cmp.Compare(max, l) >= 0 })
	}
}

// floatBounds is a Float column's zone under value.Compare's order, in
// which a NaN is below every number: [NaN, max] when the block holds one.
func floatBounds(m *blockMeta) (lo, hi float64) {
	lo, hi = m.MinF, m.MaxF
	if m.HasNaN {
		lo = math.NaN()
		if !m.HasMM {
			hi = lo
		}
	}
	return lo, hi
}

// inexactFloat reports whether the number l is not a float exactly.
func inexactFloat(l value.Value) bool { return value.Compare(value.NewFloat(l.Float()), l) != 0 }

// ------------------------------------------------------ execution

// morselBufs holds the per-morsel scratch (the filter's mask, the
// selection vector and the group ids, all capped at vecMorselRows, and
// the batch addBatch reads) recycled across morsels to keep the scan
// loop allocation-free. A join's pairs can outnumber its morsel's rows:
// it grows gids to their count.
type morselBufs struct {
	mask      []bool
	sel, gids []int32
	batch     scanBatch
}

var morselBufPool = sync.Pool{
	New: func() any {
		return &morselBufs{
			mask: make([]bool, vecMorselRows),
			sel:  make([]int32, 0, vecMorselRows),
			gids: make([]int32, vecMorselRows),
		}
	},
}

// morsel is one unit of scan work: rows [lo, hi) of chunk ch. A chunk a
// checkpoint holds is cut at its blocks, bi the block's index: its zone
// maps are asked before anything is decoded, and its vectors are the
// block's own, positions 0 to hi-lo. A fresh chunk's morsels have bi
// wholeChunk and are windows over its whole-chunk vectors, positions lo
// to hi, which they share through whole. A morsel carries no rows:
// morselRows asks for them once it has passed its zone check and a row
// is wanted.
type morsel struct {
	ch     *chunk
	bi     int
	lo, hi int
	whole  *wholeVecs
}

// wholeVecs is a fresh chunk's whole-chunk vectors as one cut's morsels
// share them: resolved once, by whichever morsel comes first, and held
// for the scan — asked per morsel, a cache too small for all of them
// would rebuild every one for every morsel.
type wholeVecs struct {
	once sync.Once
	cv   []*colVec
}

// morsels cuts t into morsels, in scan order: the one cut, whether the
// vectorized scan, the vectorized join's probe side or EXPLAIN asks. It
// reads no row; of a cold version it reads the meta segment, once.
func (t *table) morsels() ([]morsel, error) {
	list, err := t.chunkRefs()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, ch := range list {
		n += (ch.len() + vecMorselRows - 1) / vecMorselRows
	}
	out := make([]morsel, 0, n)
	for _, ch := range list {
		rows, blocked := ch.len(), ch.blocks.Load() != nil
		var whole *wholeVecs
		if !blocked {
			whole = &wholeVecs{}
		}
		for lo := 0; lo < rows; lo += vecMorselRows {
			bi := wholeChunk
			if blocked {
				bi = lo / vecMorselRows
			}
			out = append(out, morsel{ch: ch, bi: bi, lo: lo, hi: min(lo+vecMorselRows, rows), whole: whole})
		}
	}
	return out, nil
}

// meta is the zone checks' view of m: the metadata of column ci's block,
// nil — cannot prune — for a window of a fresh chunk.
func (m *morsel) meta(ci int) *blockMeta {
	if m.bi == wholeChunk {
		return nil
	}
	return m.ch.blocks.Load().block(ci, m.bi, m.hi-m.lo)
}

// vecs resolves m to the vectors of the columns cols — cv[ci], the rest
// of cv untouched — and the window [lo, hi) of positions in them that m
// covers: a fresh chunk's whole-chunk vectors, built from its rows on a
// miss, or the block's own, decoded on a miss.
func (e *execEnv) vecs(m *morsel, schema Schema, cols []int, cv []*colVec) (lo, hi int, err error) {
	if w := m.whole; w != nil {
		w.once.Do(func() {
			w.cv = make([]*colVec, len(schema))
			for _, ci := range cols {
				w.cv[ci] = e.cache.colFor(m.ch, ci, schema[ci].Type)
			}
		})
		copy(cv, w.cv)
		return m.lo, m.hi, nil
	}
	for _, ci := range cols {
		if cv[ci], err = e.blockVec(m.ch, m.bi, ci, len(schema)); err != nil {
			return 0, 0, err
		}
	}
	return 0, m.hi - m.lo, nil
}

// morselRows returns the rows of m, indexed by the positions of its
// vectors (see vecs), hydrating a cold t first: what a morsel that has
// passed its zone check asks for once it projects a row or opens a group.
func (t *table) morselRows(m *morsel) ([]Row, error) {
	if err := t.hydrate(); err != nil {
		return nil, err
	}
	if m.bi == wholeChunk {
		return m.ch.rows(), nil
	}
	return m.ch.rows()[m.lo:m.hi], nil
}

// countBlock records in BlockStats what became of m: a block decoded, or
// one its zone maps pruned. A fresh chunk's window is neither.
func (e *execEnv) countBlock(m *morsel, pruned bool) {
	switch {
	case m.bi == wholeChunk:
	case pruned:
		e.blkSkipped.Add(1)
	default:
		e.blkScanned.Add(1)
	}
}

// prunes reports whether the plan's zone predicate proves from m's zone
// maps that none of its rows passes; zoneOn is the database's switch.
func (vp *vecPlan) prunes(m *morsel, zoneOn bool) bool {
	return zoneOn && vp.zone != nil && m.bi != wholeChunk && vp.zone(m.meta)
}

// runVecSelect executes a SELECT through the vectorized path. The
// second return is false when the path declines at runtime (execution
// environment missing or vectorization disabled) and the caller must
// fall back to the row engine. The table is hydrated only when a morsel
// that passed its zone check wants a row.
func (sn *snapshot) runVecSelect(st *SelectStmt, p *compiledSelect) (*Result, bool, error) {
	vp := p.vec
	env := sn.env
	if env == nil || env.vecDisabled.Load() {
		return nil, false, nil
	}
	// The table is the statement's, not the plan's: branches of a
	// compound share a plan across tables with the same columns.
	t, ok := sn.table(st.From[0].Table)
	if !ok {
		return nil, false, nil
	}
	ms, err := t.morsels()
	if err != nil {
		return nil, true, err
	}
	zoneOn := !env.zoneOff.Load()
	// Every morsel's vectors, in one allocation. A morsel clears its own
	// once done: the cache may have let go of them, and so should the scan.
	w := len(t.schema)
	cvs := make([]*colVec, len(ms)*w)
	// scan resolves morsel mi to its vectors and the window of positions
	// in them it covers; cv is nil when the zone maps pruned the morsel.
	scan := func(mi int) (cv []*colVec, lo, hi int, err error) {
		_ = fpMorsel.Inject() // latency-model site
		m := &ms[mi]
		pruned := vp.prunes(m, zoneOn)
		env.countBlock(m, pruned)
		if pruned {
			return nil, 0, 0, nil
		}
		cv = cvs[mi*w : (mi+1)*w : (mi+1)*w]
		lo, hi, err = env.vecs(m, t.schema, vp.cols, cv)
		return cv, lo, hi, err
	}

	if p.grouped {
		// feed hands morsel mi's selection to the table *gt, opened once a
		// row passed; a table that saw none stays nil.
		feed := func(mi int, gt **groupTable) error {
			cv, lo, hi, err := scan(mi)
			defer clear(cv)
			if cv == nil || err != nil {
				return err
			}
			bufs := morselBufPool.Get().(*morselBufs)
			defer morselBufPool.Put(bufs)
			// The selection vector: the positions whose rows pass the WHERE
			// clause, all of them when there is none.
			sel := bufs.sel[:0]
			if vp.pred == nil {
				for i := lo; i < hi; i++ {
					sel = append(sel, int32(i))
				}
			} else {
				mask := bufs.mask[:hi-lo]
				vp.pred(cv, lo, mask)
				for i, keep := range mask {
					if keep {
						sel = append(sel, int32(lo+i))
					}
				}
			}
			if len(sel) == 0 {
				return nil // no row passed: renderParts skips a nil table
			}
			if *gt == nil {
				*gt = newGroupTable(st, p)
			}
			b := &bufs.batch
			defer func() { *b = scanBatch{} }()
			// A columnar chunk's groups keep their rows as positions in its
			// vectors; any other chunk's read its rows.
			*b = scanBatch{cv: cv, sel: sel, from: ms[mi].ch.cols}
			if b.from == nil {
				if b.rows, err = t.morselRows(&ms[mi]); err != nil {
					return err
				}
			}
			(*gt).addBatch(b, bufs.gids[:len(sel)])
			return nil
		}
		if vp.inOrder {
			// An aggregate whose state does not merge: every morsel folds
			// into the one table, in scan order, as the row engine's rows do.
			var one *groupTable
			for mi := range ms {
				if err := feed(mi, &one); err != nil {
					return nil, true, err
				}
			}
			res, err := renderParts(st, p, []*groupTable{one})
			return res, true, err
		}
		parts := make([]*groupTable, len(ms))
		if err := runMorsels(env, len(ms), t.nrows, func(mi int) error { return feed(mi, &parts[mi]) }); err != nil {
			return nil, true, err
		}
		res, err := renderParts(st, p, parts)
		return res, true, err
	}

	needReps := len(st.OrderBy) > 0 && !st.Distinct
	type morselOut struct {
		rows []Row
		reps []Row
	}
	outs := make([]morselOut, len(ms))
	err = runMorsels(env, len(ms), t.nrows, func(mi int) error {
		cv, lo, hi, err := scan(mi)
		defer clear(cv)
		if cv == nil || err != nil {
			return err
		}
		bufs := morselBufPool.Get().(*morselBufs)
		defer morselBufPool.Put(bufs)
		mask := bufs.mask[:hi-lo]
		vp.pred(cv, lo, mask)
		ctx := &execCtx{}
		var mo morselOut
		var rows []Row
		for i, keep := range mask {
			if !keep {
				continue
			}
			if rows == nil {
				if rows, err = t.morselRows(&ms[mi]); err != nil {
					return err
				}
			}
			row := rows[lo+i]
			ctx.row = row
			out, err := p.projectRow(st, ctx, row)
			if err != nil {
				return err
			}
			mo.rows = append(mo.rows, out)
			if needReps {
				mo.reps = append(mo.reps, row)
			}
		}
		outs[mi] = mo
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	var outRows, reps []Row
	for _, mo := range outs {
		outRows = append(outRows, mo.rows...)
		reps = append(reps, mo.reps...)
	}
	res, err := p.finish(st, outRows, reps, nil)
	return res, true, err
}

// runMorsels executes fn(0..n-1), in parallel when the scan is big
// enough and more than one worker is available. Workers pull morsel
// indexes from a shared atomic counter (morsel-driven scheduling);
// result determinism comes from the caller merging by morsel index,
// never by worker or completion order.
func runMorsels(env *execEnv, n, totalRows int, fn func(int) error) error {
	workers := env.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 || totalRows < vecParallelMinRows {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// scanBatch is a single-table morsel as addBatch reads it: the selected
// positions of the morsel's vectors, and its rows indexed by the same —
// or, when the morsel is a window of a columnar chunk, that chunk.
type scanBatch struct {
	cv   []*colVec
	rows []Row
	sel  []int32
	from *colChunk
}

func (b *scanBatch) size() int                           { return len(b.sel) }
func (b *scanBatch) col(ci int) (*colVec, []int32, bool) { return b.cv[ci], b.sel, false }

func (b *scanBatch) setRep(g *group, j int) {
	if b.from != nil {
		g.from, g.at = b.from, b.sel[j]
		return
	}
	g.rep = b.rows[b.sel[j]]
}
