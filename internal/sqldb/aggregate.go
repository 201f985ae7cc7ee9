package sqldb

// Grouped aggregation: the one implementation behind every engine.
//
// A groupTable holds the groups of one grouped SELECT in first-seen
// order — representative row, row count, key — with every group's
// accumulators in one flat array. One index finds a group: a keyIndex,
// an open-addressing table of group ids keyed by a 64-bit hash per tuple
// and compared column by column on typed key columns (lookup), which is
// the vectorized join's build side too (vecjoin.go). The table has
// exactly five operations, and each finds its groups through it:
//
//	addRow    one source row: filter → group → feed. This is the
//	          definition of every aggregate's semantics. Driven by
//	          runSelect's grouped branch (the row engine, and the
//	          reference the differential fuzzer compares against) and by
//	          matView (registration rebuilds and literal-INSERT deltas
//	          alike, so a view's digits are the row engine's).
//	addBatch  one morsel of typed column vectors: the same grouping and
//	          feeding as addRow, unboxed. Break marks stand in front of
//	          the index: only a tuple whose key datum differs from its
//	          predecessor's is looked up, and every other one takes its
//	          predecessor's group. Driven by runVecSelect and the
//	          join-fused runVecJoin, each into one partial table per
//	          morsel — or, when an aggregate's state does not merge,
//	          runVecSelect into one table, morsel after morsel.
//	merge     fold a later morsel's partial table into this one, its key
//	          columns looked up as one batch. The drivers merge in
//	          morsel-index order (renderParts), so the result is
//	          independent of worker count and scheduling.
//	absorb    fold the table a shard built over its share of the rows,
//	          received as the rows a PARTIAL SELECT answers with: a group
//	          is found by this plan's key evaluation over its
//	          representative row, accumulators fold as in merge. Driven
//	          by the shard coordinator (distrib.go) in shard-index order.
//	render    HAVING, projection and the statement tail over the groups.
//	          It does not consume the table: a view renders its retained
//	          table again after every commit. Under PARTIAL it returns
//	          the table itself instead, for a coordinator to absorb.
//
// Batch kernels exist for the aggregates whose state is unboxed and whose
// step the kernel can take exactly as add takes it — COUNT, SUM, AVG, MIN,
// MAX over the column types kernelFor admits, and VARIANCE and STDDEV over
// Integer and Float columns. Everything else — PROD, MEDIAN, GEOMEAN,
// DISTINCT, expression arguments, MIN/MAX over a type ordered by
// value.Compare only, VARIANCE/STDDEV over any other type — is fed by
// addRow alone: the vector planners decline a statement with such an
// aggregate. What merge and absorb can fold is aggSpec.mergeable. VARIANCE
// and STDDEV are not: two Welford states merge only up to rounding, so a
// batch scan that feeds one folds its morsels into one table in scan
// order, taking every step in the row engine's order, and the fused join
// path, which merges per-morsel partials, declines them.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"perfbase/internal/value"
)

// aggOp identifies an aggregate function.
type aggOp uint8

const (
	opCount aggOp = iota
	opSum
	opAvg
	opMin
	opMax
	opProd
	opMedian
	opGeomean
	opVariance
	opStddev
)

// aggOps is the one list of aggregate names; the parser recognizes an
// aggregate call by membership.
var aggOps = map[string]aggOp{
	"count":    opCount,
	"sum":      opSum,
	"avg":      opAvg,
	"min":      opMin,
	"max":      opMax,
	"prod":     opProd,
	"median":   opMedian,
	"geomean":  opGeomean,
	"variance": opVariance,
	"stddev":   opStddev,
}

// typeAny is aggSpec.typ for an argument that is not a plain column:
// its values' types are known only row by row.
const typeAny = value.Type(0xff)

// aggSpec is one aggregate of a grouped plan, resolved at plan time.
type aggSpec struct {
	e   *aggExpr
	op  aggOp
	arg compiledExpr // the argument; nil for COUNT(*)
	col int          // source column when the argument is a plain column, else -1
	typ value.Type   // that column's type; typeAny otherwise
	// kern feeds this aggregate from a column vector; nil when it can
	// only be fed row by row, which keeps the statement off the vector
	// paths.
	kern aggKernel
}

func newAggSpec(e *aggExpr, ec *evalCtx) aggSpec {
	sp := aggSpec{e: e, op: aggOps[e.Name], col: -1, typ: typeAny}
	if e.Star {
		return sp
	}
	arg := ec.typed(e.Arg)
	sp.arg = rowExpr(arg)
	if arg.kind == tCol {
		sp.col, sp.typ = arg.col, arg.typ
		if !e.Distinct {
			sp.kern = kernelFor(sp.op, sp.typ)
		}
	}
	return sp
}

// batchable reports whether addBatch can run the plan's aggregation —
// every key a plain column, every aggregate COUNT(*) (served by the
// group row counts) or one with a kernel — and records the source
// columns it would read in need. The vector planners decline a grouped
// statement otherwise.
func (p *compiledSelect) batchable(need map[int]bool) bool {
	if slices.Contains(p.keyCols, -1) {
		return false
	}
	for i := range p.aggs {
		switch sp := &p.aggs[i]; {
		case sp.e.Star:
		case sp.kern == nil:
			return false
		default:
			need[sp.col] = true
		}
	}
	for _, ci := range p.keyCols {
		need[ci] = true
	}
	return true
}

// mergesParts reports whether every aggregate of the plan is mergeable,
// so that a batch scan may build a partial table per morsel and merge
// them in morsel order.
func (p *compiledSelect) mergesParts() bool {
	for i := range p.aggs {
		if !p.aggs[i].mergeable() {
			return false
		}
	}
	return true
}

// acc accumulates one aggregate over one group. n counts the non-NULL
// inputs; i, f and s hold the running value of the aggregates with a
// kernel, in whichever field the argument type uses (f also serves
// PROD, GEOMEAN's log sum and VARIANCE's running mean). What only a
// row-fed aggregate needs hangs off x, allocated on first use.
type acc struct {
	n int64
	i int64
	f float64
	s string
	x *accExt
}

type accExt struct {
	m2   float64         // VARIANCE, STDDEV: sum of squared deviations from the running mean
	vals []float64       // MEDIAN: every input
	seen map[string]bool // DISTINCT: the value.AppendKey keys of the inputs already folded in
	v    value.Value     // MIN, MAX over values without an unboxed order
	// flag: SUM saw an input that is not an Integer (the result is then
	// the float sum); GEOMEAN saw a non-positive one (the result is NULL).
	flag bool
}

func (a *acc) ext() *accExt {
	if a.x == nil {
		a.x = &accExt{}
	}
	return a.x
}

// The typed steps below are shared by add and the batch kernels, so a
// kernel cannot drift from the scalar definition. They order as
// value.Compare does: a NaN is the least float, and of two equal values
// (−0 and 0) the earlier stays.

func (a *acc) minInt(x int64) {
	if a.n == 0 || x < a.i {
		a.i = x
	}
	a.n++
}

func (a *acc) maxInt(x int64) {
	if a.n == 0 || x > a.i {
		a.i = x
	}
	a.n++
}

func (a *acc) minFloat(x float64) {
	if a.n == 0 || cmp.Less(x, a.f) {
		a.f = x
	}
	a.n++
}

func (a *acc) maxFloat(x float64) {
	if a.n == 0 || cmp.Less(a.f, x) {
		a.f = x
	}
	a.n++
}

func (a *acc) minStr(x string) {
	if a.n == 0 || x < a.s {
		a.s = x
	}
	a.n++
}

func (a *acc) maxStr(x string) {
	if a.n == 0 || x > a.s {
		a.s = x
	}
	a.n++
}

// add folds one argument value in. v points into the source row (or at
// a temporary) only to avoid copying the Value; add never writes
// through it. COUNT(*) is not fed: render backfills the group's row
// count.
func (a *acc) add(sp *aggSpec, v *value.Value) error {
	if v.IsNull() {
		return nil
	}
	if sp.e.Distinct {
		x := a.ext()
		if x.seen == nil {
			x.seen = map[string]bool{}
		}
		var kb [16]byte
		k := value.AppendKey(kb[:0], *v)
		if x.seen[string(k)] {
			return nil
		}
		x.seen[string(k)] = true
	}
	if sp.op == opMin || sp.op == opMax {
		isMin := sp.op == opMin
		switch {
		case (sp.typ == value.Integer || sp.typ == value.Timestamp) && isMin:
			a.minInt(v.Int())
		case sp.typ == value.Integer || sp.typ == value.Timestamp:
			a.maxInt(v.Int())
		case sp.typ == value.Float && isMin:
			a.minFloat(v.Float())
		case sp.typ == value.Float:
			a.maxFloat(v.Float())
		case sp.typ == value.String && isMin:
			a.minStr(v.Str())
		case sp.typ == value.String:
			a.maxStr(v.Str())
		default:
			x := a.ext()
			if c := value.Compare(*v, x.v); a.n == 0 || (isMin && c < 0) || (!isMin && c > 0) {
				x.v = *v
			}
			a.n++
		}
		return nil
	}
	a.n++
	if sp.op == opCount {
		return nil
	}
	if !v.Type().Numeric() {
		return errorf("%s requires numeric input, got %s", sp.e.Name, v.Type())
	}
	f := v.Float()
	switch sp.op {
	case opSum:
		// Integer inputs keep a wrapping integer sum beside the float
		// one; which of the two is the result is the column's type, or
		// for an expression whether every input was an Integer.
		if v.Type() == value.Integer {
			a.i += v.Int()
		} else if sp.typ == typeAny {
			a.ext().flag = true
		}
		a.f += f
	case opAvg:
		a.f += f
	case opProd:
		if a.n == 1 {
			a.f = f
		} else {
			a.f *= f
		}
	case opMedian:
		x := a.ext()
		x.vals = append(x.vals, f)
	case opGeomean:
		if f > 0 {
			a.f += math.Log(f)
		} else {
			a.ext().flag = true
		}
	case opVariance, opStddev:
		a.welford(f)
	}
	return nil
}

// welford is Welford's update by x, which a.n already counts: mean in f,
// squared deviations in m2. The textbook sumsq − n·mean² cancels to 0 for
// a small spread around a large mean, which is what bandwidths in bytes
// per second are.
func (a *acc) welford(x float64) {
	d := x - a.f
	a.f += d / float64(a.n)
	a.ext().m2 += d * (x - a.f)
}

// AggResultType is the declared type of the result of the aggregate
// called name (lower case) over an argument of type arg — what result
// boxes, said once: the expression compiler types projections with it
// and the query layer its operators' columns. ok is false for no
// aggregate's name.
func AggResultType(name string, arg value.Type) (typ value.Type, ok bool) {
	op, ok := aggOps[name]
	switch {
	case op == opCount:
		return value.Integer, ok
	case op == opMin || op == opMax:
		return arg, ok
	case op == opSum && arg == value.Integer:
		return value.Integer, ok
	}
	return value.Float, ok
}

// result boxes the aggregate's value, of type AggResultType. No input
// yields NULL (typed Float, whatever the argument), except for COUNT,
// which yields 0.
func (sp *aggSpec) result(a *acc) value.Value {
	if sp.op == opCount {
		return value.NewInt(a.n)
	}
	if a.n == 0 {
		return value.Null(value.Float)
	}
	switch sp.op {
	case opSum:
		if sp.typ == value.Float || (a.x != nil && a.x.flag) {
			return value.NewFloat(a.f)
		}
		return value.NewInt(a.i)
	case opAvg:
		return value.NewFloat(a.f / float64(a.n))
	case opMin, opMax:
		switch sp.typ {
		case value.Integer:
			return value.NewInt(a.i)
		case value.Timestamp:
			return value.NewTimestampNano(a.i)
		case value.Float:
			return value.NewFloat(a.f)
		case value.String:
			return value.NewString(a.s)
		}
		return a.x.v
	case opProd:
		return value.NewFloat(a.f)
	case opMedian:
		// Sorted in place: the order of the retained inputs carries no
		// meaning, so a later add and render see the same multiset.
		vals := a.x.vals
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return value.NewFloat(vals[mid])
		}
		return value.NewFloat((vals[mid-1] + vals[mid]) / 2)
	case opGeomean:
		if a.x != nil && a.x.flag {
			return value.Null(value.Float)
		}
		return value.NewFloat(math.Exp(a.f / float64(a.n)))
	}
	// Sample variance, like PostgreSQL's VARIANCE/STDDEV.
	variance := 0.0
	if a.n > 1 {
		variance = a.x.m2 / float64(a.n-1)
	}
	if sp.op == opStddev {
		return value.NewFloat(math.Sqrt(variance))
	}
	return value.NewFloat(variance)
}

// mergeable reports whether merge folds this aggregate and n, i, f and s
// are all of its state: COUNT and AVG of anything, SUM over a column
// (over an expression, which sum is the result hangs off x), MIN and MAX
// over the types with an unboxed order. Only these are ever merged or
// travel as a PARTIAL SELECT's state; to add one is a change to merge,
// to the state row if it needs more fields, and to this list.
func (sp *aggSpec) mergeable() bool {
	if sp.e.Distinct {
		return false
	}
	switch sp.op {
	case opCount, opAvg:
		return true
	case opSum:
		return sp.typ != typeAny
	case opMin, opMax:
		return sp.typ == value.Integer || sp.typ == value.Float || sp.typ == value.String || sp.typ == value.Timestamp
	}
	return false
}

// merge folds b, the same mergeable aggregate over a later share of the
// group's rows (a morsel's, a shard's), into a. MIN and MAX compare all
// three fields: the two the argument type leaves unused are zero on both
// sides.
func (a *acc) merge(op aggOp, b *acc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	a.n += b.n
	switch op {
	case opSum, opAvg:
		a.i += b.i
		a.f += b.f
	case opMin:
		if b.i < a.i {
			a.i = b.i
		}
		if cmp.Less(b.f, a.f) {
			a.f = b.f
		}
		if b.s < a.s {
			a.s = b.s
		}
	case opMax:
		if b.i > a.i {
			a.i = b.i
		}
		if cmp.Less(a.f, b.f) {
			a.f = b.f
		}
		if b.s > a.s {
			a.s = b.s
		}
	}
}

// ------------------------------------------------------ batch kernels

// aggKernel feeds one aggregate from a column vector: input j is
// v[pos[j]] and goes to accumulator k of group gids[j], slot
// accs[gids[j]*stride+k] of the table's flat array. One tight loop per
// (op, type class), no Value boxing anywhere.
type aggKernel func(v *colVec, pos, gids []int32, accs []acc, stride, k int)

// kernelFor returns the batch kernel of an aggregate over a column of
// type typ, nil when there is none. It is the one list of what the
// vector paths can aggregate. Version orders component-wise and
// Boolean has no unboxed order at all, so their MIN and MAX stay with
// value.Compare in add; a Timestamp's MIN and MAX are its nanoseconds'.
func kernelFor(op aggOp, typ value.Type) aggKernel {
	if op == opCount {
		return countKernel
	}
	switch typ {
	case value.Timestamp:
		switch op {
		case opMin:
			return minIntKernel
		case opMax:
			return maxIntKernel
		}
	case value.Integer:
		switch op {
		case opSum:
			return sumIntKernel
		case opAvg:
			return avgIntKernel
		case opMin:
			return minIntKernel
		case opMax:
			return maxIntKernel
		case opVariance, opStddev:
			return varIntKernel
		}
	case value.Float:
		switch op {
		case opSum, opAvg:
			return sumFloatKernel
		case opMin:
			return minFloatKernel
		case opMax:
			return maxFloatKernel
		case opVariance, opStddev:
			return varFloatKernel
		}
	case value.String:
		switch op {
		case opMin:
			return minStrKernel
		case opMax:
			return maxStrKernel
		}
	}
	return nil
}

func countKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	if v.nulls == nil {
		for _, g := range gids {
			accs[int(g)*stride+k].n++
		}
		return
	}
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].n++
		}
	}
}

// sumIntKernel keeps SUM's wrapping integer sum.
func sumIntKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			a := &accs[int(gids[j])*stride+k]
			a.n++
			a.i += v.ints[i]
		}
	}
}

// avgIntKernel accumulates floats, as add does: an integer sum would
// wrap, and round differently past 2^53.
func avgIntKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			a := &accs[int(gids[j])*stride+k]
			a.n++
			a.f += float64(v.ints[i])
		}
	}
}

func sumFloatKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			a := &accs[int(gids[j])*stride+k]
			a.n++
			a.f += v.floats[i]
		}
	}
}

// varIntKernel and varFloatKernel take add's Welford step.
func varIntKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			a := &accs[int(gids[j])*stride+k]
			a.n++
			a.welford(float64(v.ints[i]))
		}
	}
}

func varFloatKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			a := &accs[int(gids[j])*stride+k]
			a.n++
			a.welford(v.floats[i])
		}
	}
}

func minIntKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].minInt(v.ints[i])
		}
	}
}

func maxIntKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].maxInt(v.ints[i])
		}
	}
}

func minFloatKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].minFloat(v.floats[i])
		}
	}
}

func maxFloatKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].maxFloat(v.floats[i])
		}
	}
}

func minStrKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].minStr(v.strs[i])
		}
	}
}

func maxStrKernel(v *colVec, pos, gids []int32, accs []acc, stride, k int) {
	for j, i := range pos {
		if !v.null(int(i)) {
			accs[int(gids[j])*stride+k].maxStr(v.strs[i])
		}
	}
}

// ------------------------------------------------------ group table

// group is one group of a groupTable: the first source row that fell
// into it (what the grouping columns and bare columns project from) and
// its row count (what COUNT(*) returns).
type group struct {
	rep Row
	n   int64
	// from and at stand in for rep when a batch over a columnar chunk
	// opened the group: its representative row is position at of from's
	// vectors, and boxReps boxes it only if the group is rendered.
	from *colChunk
	at   int32
}

// groupTable is the state of one grouped SELECT; see the file header.
// It is confined to one goroutine: a morsel worker's partial, or the
// table its driver merges into and renders. Its index's entries are its
// groups, entry g group g; a plan without GROUP BY has an index without
// key columns, whose one entry is group 0.
type groupTable struct {
	st *SelectStmt
	p  *compiledSelect

	groups []group // first-seen order
	accs   []acc   // len(p.aggs) per group, group g's at g*len(p.aggs)

	keyIndex

	ctx             execCtx // addRow's evaluation context
	row, batch      *probe  // addRow's and addBatch's lookup scratch
	padPos, padGids []int32 // addBatch's: the tuples of a padded side that are not pads
}

// keyVec is one key column of a batch: its vector and the tuples'
// positions in it, where -1 is a pad.
type keyVec struct {
	v   *colVec
	pos []int32
}

// keyForm is the type a datum of type typ is kept, hashed and compared
// in: an integer, boolean or timestamp as its word and a float as its
// value.FloatBits, an Integer; a string as itself; a version as its
// value.AppendVersionKey bytes. Two datums have one form exactly when
// value.Compare calls them equal; a NULL has the zero form and its null
// bit set. In a probe a form whose bytes are scratch — a version's, an
// expression's value.AppendKey — is a Version, and an index keeps a copy
// of them as a String.
func keyForm(typ value.Type) value.Type {
	if typ == value.String || typ == value.Version {
		return typ
	}
	return value.Integer
}

// keyType is the type of GROUP BY item k's values: its column's, or for
// an expression String, its value.AppendKey bytes.
func (p *compiledSelect) keyType(k int) value.Type {
	if ci := p.keyCols[k]; ci >= 0 {
		return p.srcSchema[ci].Type
	}
	return value.String
}

func newGroupTable(st *SelectStmt, p *compiledSelect) *groupTable {
	t := &groupTable{st: st, p: p}
	if len(p.keyCols) > 0 {
		var few [4]value.Type // on the stack for the usual few keys
		typs := few[:0]
		for k := range p.keyCols {
			typs = append(typs, p.keyType(k))
		}
		t.keyIndex = newKeyIndex(typs, 0)
	}
	return t
}

// open appends a group; the caller sets its rep.
func (t *groupTable) open() {
	if n := len(t.groups); n == cap(t.groups) {
		// Doubled by hand: append's own growth tapers to a quarter, under
		// which a table opened group by group allocates five times its
		// final size on the way.
		c := max(2*n, 4)
		t.groups = append(make([]group, 0, c), t.groups...)
		t.accs = append(make([]acc, 0, c*len(t.p.aggs)), t.accs...)
	}
	t.groups = append(t.groups, group{})
	t.accs = append(t.accs, make([]acc, len(t.p.aggs))...)
}

// lookup sets pr.gs[m] to the group of tuple pr.at[m] of keys, opening
// groups in first-seen order, and returns pr.gs.
func (t *groupTable) lookup(keys []keyVec, pr *probe) []int32 {
	gs := t.keyIndex.lookup(keys, pr, true)
	t.opened()
	return gs
}

// find returns the group whose key is tuple m of q, whose hash is h,
// opening it if the table holds none.
func (t *groupTable) find(q []colVec, m int, h uint64) int32 {
	g := t.keyIndex.find(q, m, h, true)
	t.opened()
	return g
}

// opened opens the groups of the entries the index has opened.
func (t *groupTable) opened() {
	for len(t.groups) < t.entries() {
		t.open()
	}
}

// probe is a lookup's scratch: the tuples it looks up, their key forms
// (key column k's in q[k], tuple m's at m, backed by nulls[k] and
// vkeys[k]) and hashes, and the entries found.
type probe struct {
	at    []int32
	q     []colVec
	nulls [][]uint64
	vkeys [][]byte
	hs    []uint64
	gs    []int32
}

// probePool holds the probes of the tables a scan has rendered — a
// morsel's partial table is new, its batch is not — and of the join
// probes.
var probePool = sync.Pool{New: func() any { return new(probe) }}

// scratch returns the table's batch probe, which it keeps until
// renderParts hands it back.
func (t *groupTable) scratch() *probe {
	if t.batch == nil {
		t.batch = probePool.Get().(*probe)
	}
	return t.batch
}

// A key's hash folds, column after column, a form's word or strHash x
// into h as (h^x)·keyMul, and a table reads it from the top bits:
// Fibonacci hashing. A NULL hashes as its zero form.
const keyMul = 0x9e3779b97f4a7c15 // 2^64 over the golden ratio

// keySeed varies from process to process which strings collide.
var keySeed = rand.Uint64()

// strHash folds a string's 8-byte words as a key folds its columns.
func strHash(s string) uint64 {
	h := keySeed ^ uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = (h ^ binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(s), 8))) * keyMul
	}
	var w uint64
	for i := range len(s) {
		w |= uint64(s[i]) << (8 * i)
	}
	return (h ^ w) * keyMul
}

// gather puts the key forms of the tuples pr.at of keys in pr.q and
// their hashes in pr.hs: one typed loop per key column.
func (pr *probe) gather(keys []keyVec) {
	n, w := len(pr.at), (len(pr.at)+63)/64
	if cap(pr.q) < len(keys) {
		pr.q, pr.nulls, pr.vkeys = make([]colVec, len(keys)), make([][]uint64, len(keys)), make([][]byte, len(keys))
	}
	pr.q, pr.nulls, pr.vkeys = pr.q[:len(keys)], pr.nulls[:len(keys)], pr.vkeys[:len(keys)]
	pr.hs = slices.Grow(pr.hs[:0], n)[:n]
	clear(pr.hs)
	for k, kv := range keys {
		v, pos, q, hs := kv.v, kv.pos, &pr.q[k], pr.hs
		q.typ, q.ints, q.strs = keyForm(v.typ), q.ints[:0], q.strs[:0]
		nulls := slices.Grow(pr.nulls[k][:0], w)[:w]
		clear(nulls)
		// datum reports whether position i of v holds a datum, and marks
		// tuple m NULL if it does not.
		datum := func(m int, i int32) bool {
			if i >= 0 && !v.null(int(i)) {
				return true
			}
			nulls[m>>6] |= 1 << (uint(m) & 63)
			return false
		}
		switch v.typ {
		case value.String:
			for m, j := range pr.at {
				var x string
				if i := pos[j]; datum(m, i) {
					x = v.strs[i]
				}
				q.strs = append(q.strs, x)
			}
		case value.Version:
			b, from := pr.vkeys[k][:0], 0
			for m, j := range pr.at {
				if i := pos[j]; datum(m, i) {
					b = value.AppendVersionKey(b, v.strs[i])
				}
				q.ints = append(q.ints, int64(len(b))) // the key's end
			}
			for _, end := range q.ints {
				q.strs, from = append(q.strs, unsafe.String(unsafe.SliceData(b[from:]), int(end)-from)), int(end)
			}
			q.ints, pr.vkeys[k] = q.ints[:0], b
		default:
			for m, j := range pr.at {
				var x int64
				if i := pos[j]; !datum(m, i) {
				} else if v.typ == value.Float {
					x = int64(value.FloatBits(v.floats[i]))
				} else {
					x = v.ints[i]
				}
				q.ints, hs[m] = append(q.ints, x), (hs[m]^uint64(x))*keyMul
			}
		}
		for m, x := range q.strs {
			hs[m] = (hs[m] ^ strHash(x)) * keyMul
		}
		pr.nulls[k], q.nulls = nulls, nil
		if slices.ContainsFunc(nulls, func(b uint64) bool { return b != 0 }) {
			q.nulls = nulls
		}
	}
}

// ------------------------------------------------------ hash index

// keyIndex is the hash index of grouping and joining: it finds the entry
// of a tuple of typed keys, which is a group of a groupTable or a
// distinct key of a hash join's build side (vecjoin.go). keys holds the
// entries' keys as typed columns, one per key column, entry e's key form
// at e; hashes holds entry e's hash; and slots, a power of two long and
// at most half full, holds entry ids plus one (0 is empty) from their
// hashes' top bits on, probed linearly. An index without key columns has
// no slots and one entry, 0, which every tuple finds.
type keyIndex struct {
	keys   []colVec
	hashes []uint64
	slots  []int32
}

// newKeyIndex returns an empty index over key columns of the types typs,
// with room for n entries.
func newKeyIndex(typs []value.Type, n int) keyIndex {
	slots := 8
	for slots < 2*n {
		slots *= 2
	}
	ix := keyIndex{keys: make([]colVec, len(typs)), hashes: make([]uint64, 0, n), slots: make([]int32, slots)}
	for k, typ := range typs {
		if c := &ix.keys[k]; keyForm(typ) == value.Integer {
			c.typ, c.ints = value.Integer, make([]int64, 0, n)
		} else {
			c.typ, c.strs = value.String, make([]string, 0, n)
		}
	}
	return ix
}

// entries is the number of entries the index holds.
func (ix *keyIndex) entries() int {
	if ix.slots == nil {
		return 1
	}
	return len(ix.hashes)
}

// lookup sets pr.gs[m] to the entry of tuple pr.at[m] of keys and returns
// pr.gs. A tuple without one opens it, in first-seen order, if open is
// true, and gets −1 otherwise. A tuple's candidate is the first entry on
// its probe sequence with its hash, kept if their key columns agree,
// compared column by column. find finds, or opens, the entry of a tuple
// whose candidate differs (−2), and opens that of a tuple without a
// candidate (−1), whose hash no entry has.
func (ix *keyIndex) lookup(keys []keyVec, pr *probe, open bool) []int32 {
	pr.gather(keys)
	gs, mask := slices.Grow(pr.gs[:0], len(pr.hs))[:len(pr.hs)], len(ix.slots)-1
	shift := bits.LeadingZeros64(uint64(mask))
	for m, h := range pr.hs {
		gs[m] = -1
		for s := int(h >> shift); mask > 0 && ix.slots[s] != 0; s = (s + 1) & mask {
			if g := ix.slots[s] - 1; ix.hashes[g] == h {
				gs[m] = g
				break
			}
		}
	}
	for k := range pr.q {
		c, q := &ix.keys[k], &pr.q[k]
		for m, g := range gs {
			if g >= 0 && (c.typ == value.Integer && c.ints[g] != q.ints[m] || c.typ != value.Integer && c.strs[g] != q.strs[m] ||
				(c.nulls != nil || q.nulls != nil) && c.null(int(g)) != q.null(m)) {
				gs[m] = -2
			}
		}
	}
	for m, g := range gs {
		if g == -2 || g == -1 && (open || mask < 0) {
			gs[m] = ix.find(pr.q, m, pr.hs[m], open)
		}
	}
	pr.gs = gs
	return gs
}

// find returns the entry whose key is tuple m of q, whose hash is h. If
// the index holds none, it opens one when open is true and returns −1
// otherwise.
func (ix *keyIndex) find(q []colVec, m int, h uint64, open bool) int32 {
	if ix.slots == nil {
		return 0
	}
	mask := len(ix.slots) - 1
	s := int(h >> bits.LeadingZeros64(uint64(mask)))
	for ; ix.slots[s] != 0; s = (s + 1) & mask {
		if g := ix.slots[s] - 1; ix.hashes[g] == h && ix.equal(q, m, g) {
			return g
		}
	}
	if !open {
		return -1
	}
	g := int32(len(ix.hashes))
	if n := len(ix.hashes); n == cap(ix.hashes) {
		// Doubled by hand, as a groupTable's groups are, so that a few
		// entries cost a few allocations.
		c := max(2*n, 4)
		ix.hashes = slices.Grow(ix.hashes, c-n)
		for k := range ix.keys {
			if kc := &ix.keys[k]; kc.typ == value.Integer {
				kc.ints = slices.Grow(kc.ints, c-n)
			} else {
				kc.strs = slices.Grow(kc.strs, c-n)
			}
		}
	}
	for k := range q {
		c, x := &ix.keys[k], &q[k]
		switch x.typ {
		case value.Integer:
			c.ints = append(c.ints, x.ints[m])
		case value.Version:
			c.strs = append(c.strs, strings.Clone(x.strs[m])) // scratch bytes
		default:
			c.strs = append(c.strs, x.strs[m])
		}
		if x.null(m) {
			c.markNulls(int(g), 1)
		} else if c.nulls != nil && len(c.nulls)*64 == int(g) {
			c.nulls = append(c.nulls, 0)
		}
	}
	ix.hashes = append(ix.hashes, h)
	if 2*len(ix.hashes) <= len(ix.slots) {
		ix.slots[s] = g + 1
		return g
	}
	ix.slots = make([]int32, 2*len(ix.slots))
	mask = len(ix.slots) - 1
	for g, h := range ix.hashes {
		s := int(h >> bits.LeadingZeros64(uint64(mask)))
		for ix.slots[s] != 0 {
			s = (s + 1) & mask
		}
		ix.slots[s] = int32(g) + 1
	}
	return g
}

// equal reports whether tuple m of q is entry g's key: per key column,
// the same null bit and the same form.
func (ix *keyIndex) equal(q []colVec, m int, g int32) bool {
	for k := range q {
		c, x := &ix.keys[k], &q[k]
		if c.null(int(g)) != x.null(m) || c.typ == value.Integer && c.ints[g] != x.ints[m] ||
			c.typ != value.Integer && c.strs[g] != x.strs[m] {
			return false
		}
	}
	return true
}

// rowKey puts the key form of the row in ctx in t.row, a one-tuple
// probe, as gather puts a batch's, and returns its hash. An expression's
// form is its value.AppendKey bytes, scratch bytes as a version's are.
func (t *groupTable) rowKey(ctx *execCtx) (uint64, error) {
	p := t.p
	if t.row == nil {
		t.row = &probe{q: make([]colVec, len(p.groupBy)), vkeys: make([][]byte, len(p.groupBy))}
		for k := range t.row.q {
			q := &t.row.q[k]
			q.typ, q.ints, q.strs, q.nulls = keyForm(p.keyType(k)), make([]int64, 1), make([]string, 1), make([]uint64, 1)
			if p.keyCols[k] < 0 {
				q.typ = value.Version // scratch bytes
			}
		}
	}
	var h uint64
	for k, g := range p.groupBy {
		x, err := g(ctx)
		if err != nil {
			return 0, err
		}
		q, b := &t.row.q[k], t.row.vkeys[k][:0]
		q.ints[0], q.strs[0], q.nulls[0] = 0, "", 0
		switch {
		case p.keyCols[k] < 0:
			b = value.AppendKey(b, x)
		case x.IsNull():
			q.nulls[0] = 1
		case q.typ == value.Version:
			b = value.AppendVersionKey(b, x.Str())
		case q.typ == value.String:
			q.strs[0] = x.Str()
		case p.keyType(k) == value.Float:
			q.ints[0] = int64(value.FloatBits(x.Float()))
		default:
			q.ints[0] = x.Int()
		}
		if len(b) > 0 {
			t.row.vkeys[k], q.strs[0] = b, unsafe.String(unsafe.SliceData(b), len(b))
		}
		if q.typ == value.Integer {
			h = (h ^ uint64(q.ints[0])) * keyMul
		} else {
			h = (h ^ strHash(q.strs[0])) * keyMul
		}
	}
	return h, nil
}

// add folds one row into its group, which the plan's key over the row
// finds. A source row (state nil) is filtered, counted and fed to every
// aggregate: addRow. The representative row of a group another table
// built — it has the group's key — comes with that group's state, its
// row count and accumulators as a PARTIAL SELECT sends them, which are
// merged in: absorb. One function, so the lookup is said once and a
// source row still costs one call.
func (t *groupTable) add(row, state Row) error {
	p := t.p
	ctx := &t.ctx
	ctx.row = row
	if state == nil {
		if keep, err := p.keep(ctx); !keep || err != nil {
			return err
		}
	}
	h, err := t.rowKey(ctx)
	if err != nil {
		return err
	}
	fresh := int32(len(t.groups))
	gi := t.find(t.row.q, 0, h)
	g := &t.groups[gi]
	if gi == fresh {
		g.rep = row
	}
	accs := t.accs[int(gi)*len(p.aggs):]
	if state != nil {
		g.n += state[0].Int()
		for k, c := 0, state[1:]; k < len(p.aggs); k, c = k+1, c[4:] {
			b := acc{n: c[0].Int(), i: c[1].Int(), f: c[2].Float(), s: c[3].Str()}
			accs[k].merge(p.aggs[k].op, &b)
		}
		return nil
	}
	g.n++
	for i := range p.aggs {
		sp := &p.aggs[i]
		switch {
		case sp.col >= 0:
			if err := accs[i].add(sp, &row[sp.col]); err != nil {
				return err
			}
		case sp.arg != nil:
			v, err := sp.arg(ctx)
			if err != nil {
				return err
			}
			if err := accs[i].add(sp, &v); err != nil {
				return err
			}
		}
	}
	return nil
}

// addRow filters one source row, finds or opens its group and feeds
// every aggregate.
func (t *groupTable) addRow(row Row) error { return t.add(row, nil) }

// aggBatch is one morsel's input to addBatch: size tuples, each a
// position into one or (joined) two sets of column vectors.
type aggBatch interface {
	size() int
	// col returns source column ci's vector and the tuples' positions in
	// it. pads says a position may be -1, which reads as NULL: the
	// build side of a LEFT join's unmatched probe rows.
	col(ci int) (v *colVec, pos []int32, pads bool)
	// setRep gives g, a group tuple j opens, tuple j's source row.
	setRep(g *group, j int)
}

// addBatch is addRow over a morsel: it assigns every tuple its group and
// runs each aggregate's kernel over the tuples at once. The filter has
// already run: the batch holds the surviving tuples. gids is scratch, one
// entry per tuple. Only plans whose keys are plain columns and whose
// aggregates are all batchable come here.
//
// Groups are found per key run. One pass per key column marks, in gids,
// every tuple whose key datum differs from its predecessor's; only a
// marked tuple is looked up, and every tuple up to the next mark takes
// its group. A filtered parameter, a run's once parameters and a swept
// one repeated per iteration all come in such runs, so a source's
// reduction looks up a group per run, not per row.
func (t *groupTable) addBatch(b aggBatch, gids []int32) {
	p := t.p
	n := b.size()
	if n == 0 {
		return
	}
	gids = gids[:n]
	clear(gids)
	gids[0] = -1      // the first tuple opens a run
	var few [4]keyVec // on the stack for the usual few keys
	keys := few[:0]
	for _, ci := range p.keyCols {
		v, pos, pads := b.col(ci)
		keys = append(keys, keyVec{v, pos})
		v.markRuns(pos, pads, gids)
	}
	// Marks are looked up a window at a time, so that the groups one
	// window opens are the next one's candidates: 16 marks, then twice
	// as many up to 256, as a fresh table's groups are mostly opened by
	// its first marks. The groups a batch opens are numbered in the
	// order of their marks, which hold their rows.
	pr := t.scratch()
	fresh, gi := int32(len(t.groups)), int32(0)
	for lo, hi, win := 0, 0, 16; lo < n; lo, win = hi, min(2*win, 256) {
		for pr.at = pr.at[:0]; hi < n && len(pr.at) < win; hi++ {
			if gids[hi] < 0 {
				pr.at = append(pr.at, int32(hi))
			}
		}
		gs, m := t.lookup(keys, pr), 0
		for j := lo; j < hi; j++ {
			if gids[j] < 0 {
				if gi, m = gs[m], m+1; gi == fresh {
					b.setRep(&t.groups[gi], j)
					fresh++
				}
			}
			gids[j] = gi
			t.groups[gi].n++
		}
	}
	// A kernel cannot index a pad: drop those tuples once, for every
	// aggregate that reads the padded side.
	padded := false
	for k := range p.aggs {
		sp := &p.aggs[k]
		if sp.e.Star {
			continue
		}
		v, pos, pads := b.col(sp.col)
		g := gids
		if pads {
			if !padded {
				t.padPos, t.padGids = t.padPos[:0], t.padGids[:0]
				for j, i := range pos {
					if i >= 0 {
						t.padPos, t.padGids = append(t.padPos, i), append(t.padGids, gids[j])
					}
				}
				padded = true
			}
			pos, g = t.padPos, t.padGids
		}
		sp.kern(v, pos, g, t.accs, len(p.aggs), k)
	}
}

// markRuns sets gids[j] to -1 where tuple j's key datum xs[pos[j]] differs
// from tuple j-1's, and leaves every other entry alone. NULL — a set bit
// of nulls, or under pads a position of -1 — is a datum of its own. A
// mark is conservative: equal datums have one key, but one key may have
// unequal datums (two NaNs, two spellings of a Version), and such a break
// only costs the lookup that finds them one group.
func markRuns[T comparable](xs []T, nulls []uint64, pos []int32, pads bool, gids []int32) {
	if nulls == nil && !pads {
		prev := xs[pos[0]]
		for j, i := range pos[1:] {
			if x := xs[i]; x != prev {
				gids[j+1] = -1
				prev = x
			}
		}
		return
	}
	isNull := func(i int32) bool { return i < 0 || nulls != nil && nulls[i>>6]&(1<<(uint(i)&63)) != 0 }
	var prev T
	prevNull := isNull(pos[0])
	if !prevNull {
		prev = xs[pos[0]]
	}
	for j, i := range pos[1:] {
		if isNull(i) {
			if !prevNull {
				gids[j+1] = -1
			}
			prevNull = true
			continue
		}
		if x := xs[i]; prevNull || x != prev {
			gids[j+1] = -1
			prev = x
		}
		prevNull = false
	}
}

// strHeader is a string's header: two strings with one header are equal.
type strHeader struct {
	p *byte
	n int
}

// markRuns marks the breaks of the vector's runs at the positions pos:
// an integer, boolean or timestamp by its word, a float by ==, under
// which −0 and 0 are one run, and a string or version by its header, so
// that a copy of one string (a constant, a once parameter poured into
// every row of its run) runs without a byte compared.
func (v *colVec) markRuns(pos []int32, pads bool, gids []int32) {
	switch v.typ {
	case value.Integer, value.Boolean, value.Timestamp:
		markRuns(v.ints, v.nulls, pos, pads, gids)
	case value.Float:
		markRuns(v.floats, v.nulls, pos, pads, gids)
	default:
		hs := unsafe.Slice((*strHeader)(unsafe.Pointer(unsafe.SliceData(v.strs))), len(v.strs))
		markRuns(hs, v.nulls, pos, pads, gids)
	}
}

// merge folds part, the partial table of a later morsel, into t:
// groups t has not seen are appended in part's order, so first-seen
// order across morsels merged in index order is scan order. part's key
// columns are the batch that finds them, one tuple per group.
func (t *groupTable) merge(part *groupTable) {
	pr := t.scratch()
	pr.at = pr.at[:0]
	for pi := range part.groups {
		pr.at = append(pr.at, int32(pi))
	}
	keys := make([]keyVec, len(part.keys))
	for k := range keys {
		keys[k] = keyVec{&part.keys[k], pr.at}
	}
	stride, fresh := len(t.p.aggs), int32(len(t.groups))
	for pi, gi := range t.lookup(keys, pr) {
		from, to := part.accs[pi*stride:(pi+1)*stride], t.accs[int(gi)*stride:]
		if gi == fresh {
			t.groups[gi], fresh = part.groups[pi], fresh+1
			copy(to, from)
			continue
		}
		t.groups[gi].n += part.groups[pi].n
		for k := range from {
			to[k].merge(t.p.aggs[k].op, &from[k])
		}
	}
}

// renderParts merges the partial tables of a morsel scan in morsel
// index order — nil entries are morsels that were pruned or selected
// nothing — and renders the result.
func renderParts(st *SelectStmt, p *compiledSelect, parts []*groupTable) (*Result, error) {
	var t *groupTable
	for _, part := range parts {
		switch {
		case part == nil:
		case t == nil:
			t = part
		default:
			t.merge(part)
		}
	}
	for _, part := range parts {
		if part != nil && part.batch != nil {
			probePool.Put(part.batch)
			part.batch = nil
		}
	}
	if t == nil {
		t = newGroupTable(st, p)
	}
	return t.render()
}

// render produces the statement's result from the groups accumulated
// so far: per group the aggregate results, HAVING and the projection,
// then the statement tail. It is re-entrant — a view renders the same
// retained table after every commit and goes on adding rows to it: the
// COUNT(*) backfill is an idempotent store, MEDIAN's in-place sort
// leaves the multiset alone, and the group an aggregate query without
// GROUP BY yields over an empty input is synthesized here per call and
// never retained, so the first real row still opens a real group.
func (t *groupTable) render() (*Result, error) {
	p, st := t.p, t.st
	t.boxReps()
	if st.Partial {
		return t.state()
	}
	stride := len(p.aggs)
	groups, accs := t.groups, t.accs
	if len(groups) == 0 && len(p.groupBy) == 0 {
		rep := make(Row, len(p.srcSchema))
		for i := range rep {
			rep[i] = value.Null(p.srcSchema[i].Type)
		}
		groups, accs = []group{{rep: rep}}, make([]acc, stride)
	}
	// For ORDER BY fallback resolution, the representative row and
	// aggregate results behind each output row. DISTINCT breaks the
	// alignment, so ordering then uses output columns only.
	needReps := len(st.OrderBy) > 0 && !st.Distinct
	var outRows, reps []Row
	var aggVs []map[*aggExpr]value.Value
	ctx := &execCtx{}
	for gi := range groups {
		g := &groups[gi]
		aggV := make(map[*aggExpr]value.Value, stride)
		for k := range p.aggs {
			sp, a := &p.aggs[k], &accs[gi*stride+k]
			if sp.e.Star {
				a.n = g.n
			}
			aggV[sp.e] = sp.result(a)
		}
		ctx.row, ctx.aggs = g.rep, aggV
		if p.having != nil {
			v, err := p.having(ctx)
			if err != nil {
				return nil, err
			}
			if !boolTrue(v) {
				continue
			}
		}
		row, err := p.projectRow(st, ctx, g.rep)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, row)
		if needReps {
			reps = append(reps, g.rep)
			aggVs = append(aggVs, aggV)
		}
	}
	return p.finish(st, outRows, reps, aggVs)
}

// boxReps boxes the representative rows the groups hold as positions in
// a columnar chunk's vectors, all into one backing array.
func (t *groupTable) boxReps() {
	size := 0
	for i := range t.groups {
		if g := &t.groups[i]; g.from != nil {
			size += len(g.from.vecs)
		}
	}
	if size == 0 {
		return
	}
	slab := make([]value.Value, size)
	for i := range t.groups {
		g := &t.groups[i]
		if g.from == nil {
			continue
		}
		w := len(g.from.vecs)
		g.rep, slab = slab[:w:w], slab[w:]
		for ci := range g.from.vecs {
			g.rep[ci] = g.from.vecs[ci].box(int(g.at))
		}
		g.from = nil
	}
}

// stateSchema is the layout of a grouped PARTIAL SELECT's answer: per
// group the representative row, the row count, and n, i, f, s of each
// accumulator in plan order.
func (p *compiledSelect) stateSchema() Schema {
	sch := append(p.srcSchema.clone(), Column{Name: "_n", Type: value.Integer})
	for k := range p.aggs {
		a := "_a" + itoa(k)
		sch = append(sch, Column{Name: a + "n", Type: value.Integer}, Column{Name: a + "i", Type: value.Integer},
			Column{Name: a + "f", Type: value.Float}, Column{Name: a + "s", Type: value.String})
	}
	return sch
}

// state returns the table itself as a result, in first-seen order.
func (t *groupTable) state() (*Result, error) {
	p := t.p
	for k := range p.aggs {
		if !p.aggs[k].mergeable() {
			return nil, fmt.Errorf("%w: %s has none to send", ErrPartialState, p.aggs[k].e.Name)
		}
	}
	stride := len(p.aggs)
	res := &Result{Columns: p.stateSchema(), Rows: make([]Row, len(t.groups))}
	for gi := range t.groups {
		g := &t.groups[gi]
		row := append(make(Row, 0, len(res.Columns)), g.rep...)
		row = append(row, value.NewInt(g.n))
		for _, a := range t.accs[gi*stride : (gi+1)*stride] {
			row = append(row, value.NewInt(a.n), value.NewInt(a.i), value.NewFloat(a.f), value.NewString(a.s))
		}
		res.Rows[gi] = row
	}
	return res, nil
}

// absorb folds state, the answer of a PARTIAL SELECT of this plan's
// statement, into t. A row is checked before it touches an accumulator:
// every cell of its column's type, no counter NULL, no count negative.
func (t *groupTable) absorb(state *Result) error {
	p := t.p
	nsrc, want := len(p.srcSchema), p.stateSchema()
	if err := checkState(state, want); err != nil {
		return err
	}
	for ri, row := range state.Rows {
		for ci := range row {
			v, d := &row[ci], ci-nsrc // d: 0 the row count, then n, i, f, s per aggregate
			if v.IsNull() && d < 0 {
				continue
			}
			if v.IsNull() || v.Type() != want[ci].Type || ((d == 0 || d%4 == 1) && v.Int() < 0) {
				return fmt.Errorf("%w: row %d column %d holds %s", ErrPartialState, ri+1, ci+1, v.SQL())
			}
		}
		if err := t.add(row[:nsrc:nsrc], row[nsrc:]); err != nil {
			return err
		}
	}
	return nil
}
