package sqldb

// Vectorized execution path.
//
// When a SELECT has the right shape — one table, no joins, no usable
// index probe, a WHERE clause built from column-vs-literal comparisons,
// plain-column group keys and kernelizable aggregates — the planner
// attaches a vecPlan to the compiled plan and runSelect executes it
// over the columnar projections of colcache.go instead of boxed rows:
// predicates evaluate into boolean masks over typed vectors, masks
// compact into selection vectors, and a grouped statement hands each
// morsel's selection to a partial group table's addBatch — grouping,
// kernels, merge and render are aggregate.go's, which also says which
// aggregates have kernels. Anything the plan cannot express falls back
// to the row engine, which remains the semantic reference; the
// differential fuzzer holds the two byte-for-byte equal.
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
// byte-for-byte comparison stays valid).

import (
	"math"
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
	// predicate shape cannot be reasoned about from zone maps (which
	// only costs skipping, never correctness).
	zone zoneFn
}

// planVec decides whether st can run vectorized and compiles the plan
// if so. Returns nil — meaning "use the row engine" — for any shape
// outside the supported set; qualification must err on the side of
// declining, never on the side of changing results.
func (sn *snapshot) planVec(st *SelectStmt, p *compiledSelect, ec *evalCtx) *vecPlan {
	if len(st.From) != 1 || len(st.Joins) != 0 {
		return nil
	}
	if _, ok := sn.table(st.From[0].Table); !ok {
		return nil
	}
	// An available index probe beats a full vectorized scan; mirror the
	// scan's decision (CREATE INDEX bumps the table version, so cached
	// plans re-qualify).
	if _, ok := sn.explainIndexProbe(st.From[0], st.Where); ok {
		return nil
	}
	vp := &vecPlan{}
	need := map[int]bool{}
	if st.Where != nil {
		vp.pred = compileVecPred(st.Where, ec, p.srcSchema, need)
		if vp.pred == nil {
			return nil
		}
		vp.zone = compileZonePred(st.Where, ec, p.srcSchema)
	}
	if p.grouped {
		if !p.batchable(need) {
			return nil
		}
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

// ------------------------------------------------------ predicates

// compileVecPred lowers a WHERE clause into a mask kernel, recording
// the columns it reads in need. Returns nil for any unsupported shape:
// NOT and LIKE (whose three-valued semantics do not collapse to a
// boolean mask), expressions over non-columns, comparisons across
// value classes, and Version/Timestamp operands.
func compileVecPred(e sqlExpr, ec *evalCtx, src Schema, need map[int]bool) vecPredFn {
	switch t := e.(type) {
	case *litExpr:
		keep := boolTrue(t.v)
		return func(_ []*colVec, _ int, mask []bool) {
			for i := range mask {
				mask[i] = keep
			}
		}
	case *colExpr:
		ci, err := ec.lookup(t.Table, t.Name)
		if err != nil || src[ci].Type != value.Boolean {
			return nil
		}
		need[ci] = true
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			for i := range mask {
				mask[i] = v.ints[lo+i] != 0 && !v.null(lo+i)
			}
		}
	case *binExpr:
		switch t.Op {
		case "and":
			l := compileVecPred(t.L, ec, src, need)
			r := compileVecPred(t.R, ec, src, need)
			if l == nil || r == nil {
				return nil
			}
			return func(cv []*colVec, lo int, mask []bool) {
				l(cv, lo, mask)
				tmp := make([]bool, len(mask))
				r(cv, lo, tmp)
				for i := range mask {
					mask[i] = mask[i] && tmp[i]
				}
			}
		case "or":
			l := compileVecPred(t.L, ec, src, need)
			r := compileVecPred(t.R, ec, src, need)
			if l == nil || r == nil {
				return nil
			}
			return func(cv []*colVec, lo int, mask []bool) {
				l(cv, lo, mask)
				tmp := make([]bool, len(mask))
				r(cv, lo, tmp)
				for i := range mask {
					mask[i] = mask[i] || tmp[i]
				}
			}
		case "=", "<>", "<", "<=", ">", ">=":
			ok := cmpOutcome(t.Op)
			if ce, isCol := t.L.(*colExpr); isCol {
				if le, isLit := t.R.(*litExpr); isLit {
					return compileVecCmp(ce, le.v, ok, false, ec, src, need)
				}
			}
			if ce, isCol := t.R.(*colExpr); isCol {
				if le, isLit := t.L.(*litExpr); isLit {
					return compileVecCmp(ce, le.v, ok, true, ec, src, need)
				}
			}
		}
		return nil
	case *isNullExpr:
		ce, isCol := t.E.(*colExpr)
		if !isCol {
			return nil
		}
		ci, err := ec.lookup(ce.Table, ce.Name)
		if err != nil || src[ci].Type == value.Timestamp {
			return nil
		}
		need[ci] = true
		negate := t.Negate
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			for i := range mask {
				mask[i] = v.null(lo+i) != negate
			}
		}
	case *betweenExpr:
		return compileVecBetween(t, ec, src, need)
	case *inExpr:
		return compileVecIn(t, ec, src, need)
	}
	return nil
}

func cmpOutcome(op string) func(int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "<>":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	}
	return func(c int) bool { return c >= 0 }
}

func vecFalse(_ []*colVec, _ int, mask []bool) {
	for i := range mask {
		mask[i] = false
	}
}

// compileVecCmp builds the column-vs-literal comparison kernel. The
// comparison classes mirror value.ComparePtr exactly: int/int compares
// integers, any other numeric pair compares as float64 (so NaN
// compares "equal" to everything, matching the row engine's quirk),
// booleans order false < true, strings compare bytewise. Cross-class
// shapes (which ComparePtr resolves via display forms) decline.
func compileVecCmp(ce *colExpr, lit value.Value, ok func(int) bool, swapped bool, ec *evalCtx, src Schema, need map[int]bool) vecPredFn {
	ci, err := ec.lookup(ce.Table, ce.Name)
	if err != nil {
		return nil
	}
	typ := src[ci].Type
	var okLUT [3]bool
	for c := -1; c <= 1; c++ {
		r := c
		if swapped {
			r = -r
		}
		okLUT[c+1] = ok(r)
	}
	supported := func() bool {
		switch typ {
		case value.Integer, value.Float:
			return lit.Type().Numeric() || lit.IsNull()
		case value.Boolean:
			return lit.Type() == value.Boolean || lit.IsNull()
		case value.String:
			return lit.Type() == value.String || lit.IsNull()
		}
		return false
	}
	if !supported() {
		return nil
	}
	need[ci] = true
	if lit.IsNull() {
		return vecFalse
	}
	switch {
	case typ == value.Integer && lit.Type() == value.Integer,
		typ == value.Boolean:
		litI := lit.Int()
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			ints := v.ints[lo : lo+len(mask)]
			if v.nulls == nil {
				for i, x := range ints {
					c := 1
					if x < litI {
						c = -1
					} else if x == litI {
						c = 0
					}
					mask[i] = okLUT[c+1]
				}
				return
			}
			for i, x := range ints {
				if v.null(lo + i) {
					mask[i] = false
					continue
				}
				c := 1
				if x < litI {
					c = -1
				} else if x == litI {
					c = 0
				}
				mask[i] = okLUT[c+1]
			}
		}
	case typ == value.Integer: // float literal
		litF := lit.Float()
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			ints := v.ints[lo : lo+len(mask)]
			for i, x := range ints {
				if v.nulls != nil && v.null(lo+i) {
					mask[i] = false
					continue
				}
				cf := float64(x)
				c := 0
				if cf < litF {
					c = -1
				} else if cf > litF {
					c = 1
				}
				mask[i] = okLUT[c+1]
			}
		}
	case typ == value.Float:
		litF := lit.Float()
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			floats := v.floats[lo : lo+len(mask)]
			if v.nulls == nil {
				for i, x := range floats {
					c := 0
					if x < litF {
						c = -1
					} else if x > litF {
						c = 1
					}
					mask[i] = okLUT[c+1]
				}
				return
			}
			for i, x := range floats {
				if v.null(lo + i) {
					mask[i] = false
					continue
				}
				c := 0
				if x < litF {
					c = -1
				} else if x > litF {
					c = 1
				}
				mask[i] = okLUT[c+1]
			}
		}
	default: // String vs String
		litS := lit.Str()
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			strs := v.strs[lo : lo+len(mask)]
			for i, x := range strs {
				if v.nulls != nil && v.null(lo+i) {
					mask[i] = false
					continue
				}
				c := 0
				if x < litS {
					c = -1
				} else if x > litS {
					c = 1
				}
				mask[i] = okLUT[c+1]
			}
		}
	}
}

// compileVecBetween handles col BETWEEN lit AND lit. The row engine
// computes Compare(v,lo) >= 0 && Compare(v,hi) <= 0, each bound
// comparing int/int as integers and any other numeric pair as floats;
// the kernel reproduces that bound-by-bound.
func compileVecBetween(t *betweenExpr, ec *evalCtx, src Schema, need map[int]bool) vecPredFn {
	ce, isCol := t.E.(*colExpr)
	if !isCol {
		return nil
	}
	loL, loOK := t.Lo.(*litExpr)
	hiL, hiOK := t.Hi.(*litExpr)
	if !loOK || !hiOK {
		return nil
	}
	ci, err := ec.lookup(ce.Table, ce.Name)
	if err != nil {
		return nil
	}
	typ := src[ci].Type
	negate := t.Negate
	lo, hi := loL.v, hiL.v
	switch typ {
	case value.Integer, value.Float:
		if !lo.Type().Numeric() && !lo.IsNull() || !hi.Type().Numeric() && !hi.IsNull() {
			return nil
		}
	case value.String:
		if lo.Type() != value.String && !lo.IsNull() || hi.Type() != value.String && !hi.IsNull() {
			return nil
		}
	default:
		return nil
	}
	need[ci] = true
	if lo.IsNull() || hi.IsNull() {
		return vecFalse // NULL bound → NULL result → row excluded
	}
	if typ == value.String {
		loS, hiS := lo.Str(), hi.Str()
		return func(cv []*colVec, lo_ int, mask []bool) {
			v := cv[ci]
			for i := range mask {
				if v.null(lo_ + i) {
					mask[i] = false
					continue
				}
				x := v.strs[lo_+i]
				mask[i] = (x >= loS && x <= hiS) != negate
			}
		}
	}
	// Numeric: per-bound comparison class. ge means Compare(v, lo) >= 0,
	// which for floats is !(v < lo) — this keeps the row engine's NaN
	// behaviour (NaN is "between" anything).
	intCol := typ == value.Integer
	loInt := intCol && lo.Type() == value.Integer
	hiInt := intCol && hi.Type() == value.Integer
	loI, loF := lo.Int(), lo.Float()
	hiI, hiF := hi.Int(), hi.Float()
	return func(cv []*colVec, lo_ int, mask []bool) {
		v := cv[ci]
		for i := range mask {
			if v.null(lo_ + i) {
				mask[i] = false
				continue
			}
			var ge, le bool
			if intCol {
				x := v.ints[lo_+i]
				if loInt {
					ge = x >= loI
				} else {
					ge = !(float64(x) < loF)
				}
				if hiInt {
					le = x <= hiI
				} else {
					le = !(float64(x) > hiF)
				}
			} else {
				x := v.floats[lo_+i]
				ge = !(x < loF)
				le = !(x > hiF)
			}
			mask[i] = (ge && le) != negate
		}
	}
}

// compileVecIn handles col IN (literals). NULL list items never match
// (as in the row engine); a NULL probe value yields false.
func compileVecIn(t *inExpr, ec *evalCtx, src Schema, need map[int]bool) vecPredFn {
	ce, isCol := t.E.(*colExpr)
	if !isCol {
		return nil
	}
	ci, err := ec.lookup(ce.Table, ce.Name)
	if err != nil {
		return nil
	}
	typ := src[ci].Type
	negate := t.Negate
	var lits []value.Value
	for _, item := range t.List {
		le, isLit := item.(*litExpr)
		if !isLit {
			return nil
		}
		if le.v.IsNull() {
			continue
		}
		lits = append(lits, le.v)
	}
	switch typ {
	case value.Integer, value.Float, value.Boolean:
		allInt := typ != value.Float
		for _, l := range lits {
			if typ == value.Boolean {
				if l.Type() != value.Boolean {
					return nil
				}
				continue
			}
			if !l.Type().Numeric() {
				return nil
			}
			if l.Type() != value.Integer {
				allInt = false
			}
		}
		need[ci] = true
		if typ != value.Float && allInt {
			ints := make([]int64, len(lits))
			for i, l := range lits {
				ints[i] = l.Int()
			}
			return func(cv []*colVec, lo int, mask []bool) {
				v := cv[ci]
				for i := range mask {
					if v.null(lo + i) {
						mask[i] = false
						continue
					}
					x := v.ints[lo+i]
					found := false
					for _, l := range ints {
						if x == l {
							found = true
							break
						}
					}
					mask[i] = found != negate
				}
			}
		}
		floats := make([]float64, len(lits))
		for i, l := range lits {
			floats[i] = l.Float()
		}
		intCol := typ == value.Integer
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			for i := range mask {
				if v.null(lo + i) {
					mask[i] = false
					continue
				}
				var x float64
				if intCol {
					x = float64(v.ints[lo+i])
				} else {
					x = v.floats[lo+i]
				}
				found := false
				for _, l := range floats {
					// Compare-style equality (neither less nor greater),
					// not ==: a NaN probe matches every list item, as it
					// does in the row engine.
					if !(x < l) && !(x > l) {
						found = true
						break
					}
				}
				mask[i] = found != negate
			}
		}
	case value.String:
		for _, l := range lits {
			if l.Type() != value.String {
				return nil
			}
		}
		need[ci] = true
		strs := make([]string, len(lits))
		for i, l := range lits {
			strs[i] = l.Str()
		}
		return func(cv []*colVec, lo int, mask []bool) {
			v := cv[ci]
			for i := range mask {
				if v.null(lo + i) {
					mask[i] = false
					continue
				}
				x := v.strs[lo+i]
				found := false
				for _, l := range strs {
					if x == l {
						found = true
						break
					}
				}
				mask[i] = found != negate
			}
		}
	}
	return nil
}

// ------------------------------------------------------ zone maps

// compileZonePred lowers a WHERE clause into a block-skipping check
// over zone maps, mirroring the mask kernels of compileVecPred leaf by
// leaf. It is only ever compiled for predicates compileVecPred
// accepted, and must be EXACT in one direction: returning true means
// every row of the block evaluates to false under the mask semantics
// (NULL rows always mask false at the top level; float NaN compares
// "equal" to everything). Any leaf it cannot reason about compiles to
// nil, which composes as "never prunes".
func compileZonePred(e sqlExpr, ec *evalCtx, src Schema) zoneFn {
	switch t := e.(type) {
	case *litExpr:
		if boolTrue(t.v) {
			return zoneNever
		}
		return zoneAlways
	case *colExpr:
		ci, err := ec.lookup(t.Table, t.Name)
		if err != nil || src[ci].Type != value.Boolean {
			return nil
		}
		// mask = x != 0 && !null: prunable when the block has no non-null
		// true value.
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			return !m.HasMM || m.MaxI == 0
		}
	case *binExpr:
		switch t.Op {
		case "and":
			l := compileZonePred(t.L, ec, src)
			r := compileZonePred(t.R, ec, src)
			// A conjunction is all-false when either side is: one pruning
			// side suffices, and an unknown side drops out.
			if l == nil {
				return r
			}
			if r == nil {
				return l
			}
			return func(meta func(int) *blockMeta) bool {
				return l(meta) || r(meta)
			}
		case "or":
			l := compileZonePred(t.L, ec, src)
			r := compileZonePred(t.R, ec, src)
			// A disjunction needs BOTH sides all-false; an unknown side
			// makes the whole OR unknowable.
			if l == nil || r == nil {
				return nil
			}
			return func(meta func(int) *blockMeta) bool {
				return l(meta) && r(meta)
			}
		case "=", "<>", "<", "<=", ">", ">=":
			ok := cmpOutcome(t.Op)
			if ce, isCol := t.L.(*colExpr); isCol {
				if le, isLit := t.R.(*litExpr); isLit {
					return compileZoneCmp(ce, le.v, ok, false, ec, src)
				}
			}
			if ce, isCol := t.R.(*colExpr); isCol {
				if le, isLit := t.L.(*litExpr); isLit {
					return compileZoneCmp(ce, le.v, ok, true, ec, src)
				}
			}
		}
		return nil
	case *isNullExpr:
		ce, isCol := t.E.(*colExpr)
		if !isCol {
			return nil
		}
		ci, err := ec.lookup(ce.Table, ce.Name)
		if err != nil || src[ci].Type == value.Timestamp {
			return nil
		}
		negate := t.Negate
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if negate {
				return m.Nulls == m.Rows // IS NOT NULL over an all-null block
			}
			return m.Nulls == 0 // IS NULL over a null-free block
		}
	case *betweenExpr:
		return compileZoneBetween(t, ec, src)
	case *inExpr:
		return compileZoneIn(t, ec, src)
	}
	return nil
}

func zoneNever(func(int) *blockMeta) bool  { return false }
func zoneAlways(func(int) *blockMeta) bool { return true }

// compileZoneCmp is the zone form of compileVecCmp. canMatch asks: can
// ANY non-null value in [min, max] produce an accepted comparison
// outcome? The three outcomes map to range tests — "less than lit" is
// achievable iff min < lit, "greater" iff max > lit, "equal" iff lit
// lies inside [min, max] (an over-approximation for int columns vs
// float literals, which only under-prunes).
func compileZoneCmp(ce *colExpr, lit value.Value, ok func(int) bool, swapped bool, ec *evalCtx, src Schema) zoneFn {
	ci, err := ec.lookup(ce.Table, ce.Name)
	if err != nil {
		return nil
	}
	typ := src[ci].Type
	var okLUT [3]bool
	for c := -1; c <= 1; c++ {
		r := c
		if swapped {
			r = -r
		}
		okLUT[c+1] = ok(r)
	}
	if lit.IsNull() {
		return zoneAlways // the kernel is vecFalse
	}
	switch {
	case typ == value.Integer && lit.Type() == value.Integer,
		typ == value.Boolean && lit.Type() == value.Boolean:
		litI := lit.Int()
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if !m.HasMM {
				return true // every row NULL → mask all false
			}
			can := okLUT[0] && m.MinI < litI ||
				okLUT[2] && m.MaxI > litI ||
				okLUT[1] && m.MinI <= litI && litI <= m.MaxI
			return !can
		}
	case typ == value.Integer && lit.Type().Numeric(): // float literal
		litF := lit.Float()
		if math.IsNaN(litF) {
			return nil
		}
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if !m.HasMM {
				return true
			}
			minF, maxF := float64(m.MinI), float64(m.MaxI)
			can := okLUT[0] && minF < litF ||
				okLUT[2] && maxF > litF ||
				okLUT[1] && minF <= litF && litF <= maxF
			return !can
		}
	case typ == value.Float && lit.Type().Numeric():
		litF := lit.Float()
		if math.IsNaN(litF) {
			return nil
		}
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			// A NaN row compares "equal" to everything, so it matches
			// whenever the equal outcome is accepted — and min/max never
			// cover NaN.
			if m.HasNaN && okLUT[1] {
				return false
			}
			if !m.HasMM {
				return true // all rows NULL or NaN, and NaN cannot match
			}
			can := okLUT[0] && m.MinF < litF ||
				okLUT[2] && m.MaxF > litF ||
				okLUT[1] && m.MinF <= litF && litF <= m.MaxF
			return !can
		}
	case typ == value.String && lit.Type() == value.String:
		litS := lit.Str()
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if !m.HasMM {
				return true
			}
			can := okLUT[0] && m.MinS < litS ||
				okLUT[2] && m.MaxS > litS ||
				okLUT[1] && m.MinS <= litS && litS <= m.MaxS
			return !can
		}
	}
	return nil
}

// compileZoneBetween is the zone form of compileVecBetween. ge is
// monotone non-decreasing in the column value and le monotone
// non-increasing, so a non-negated BETWEEN is satisfiable within the
// block iff ge(max) && le(min), and a negated one is unsatisfiable iff
// ge(min) && le(max) (every row inside the bounds).
func compileZoneBetween(t *betweenExpr, ec *evalCtx, src Schema) zoneFn {
	ce, isCol := t.E.(*colExpr)
	if !isCol {
		return nil
	}
	loL, loOK := t.Lo.(*litExpr)
	hiL, hiOK := t.Hi.(*litExpr)
	if !loOK || !hiOK {
		return nil
	}
	ci, err := ec.lookup(ce.Table, ce.Name)
	if err != nil {
		return nil
	}
	typ := src[ci].Type
	negate := t.Negate
	lo, hi := loL.v, hiL.v
	if lo.IsNull() || hi.IsNull() {
		return zoneAlways // the kernel is vecFalse
	}
	if typ == value.String {
		if lo.Type() != value.String || hi.Type() != value.String {
			return nil
		}
		loS, hiS := lo.Str(), hi.Str()
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if !m.HasMM {
				return true
			}
			if negate {
				return m.MinS >= loS && m.MaxS <= hiS
			}
			return m.MaxS < loS || m.MinS > hiS
		}
	}
	if typ != value.Integer && typ != value.Float {
		return nil
	}
	if !lo.Type().Numeric() || !hi.Type().Numeric() {
		return nil
	}
	intCol := typ == value.Integer
	loInt := intCol && lo.Type() == value.Integer
	hiInt := intCol && hi.Type() == value.Integer
	loI, loF := lo.Int(), lo.Float()
	hiI, hiF := hi.Int(), hi.Float()
	if intCol {
		ge := func(x int64) bool {
			if loInt {
				return x >= loI
			}
			return !(float64(x) < loF)
		}
		le := func(x int64) bool {
			if hiInt {
				return x <= hiI
			}
			return !(float64(x) > hiF)
		}
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if !m.HasMM {
				return true
			}
			if negate {
				return ge(m.MinI) && le(m.MaxI)
			}
			return !(ge(m.MaxI) && le(m.MinI))
		}
	}
	return func(meta func(int) *blockMeta) bool {
		m := meta(ci)
		if m == nil {
			return false
		}
		if !negate && m.HasNaN {
			// NaN is "between" anything (ge = !(NaN < lo) = true), so a
			// NaN row always matches a non-negated BETWEEN.
			return false
		}
		if !m.HasMM {
			// All rows NULL or NaN. Negated: NaN rows are inside the
			// bounds, so they mask false too — prunable either way.
			return true
		}
		ge := func(x float64) bool { return !(x < loF) }
		le := func(x float64) bool { return !(x > hiF) }
		if negate {
			return ge(m.MinF) && le(m.MaxF)
		}
		return !(ge(m.MaxF) && le(m.MinF))
	}
}

// compileZoneIn is the zone form of compileVecIn: a non-negated IN can
// match only if some list item lies within [min, max]. NOT IN cannot
// be refuted from a range alone, so it never prunes.
func compileZoneIn(t *inExpr, ec *evalCtx, src Schema) zoneFn {
	ce, isCol := t.E.(*colExpr)
	if !isCol || t.Negate {
		return nil
	}
	ci, err := ec.lookup(ce.Table, ce.Name)
	if err != nil {
		return nil
	}
	typ := src[ci].Type
	var lits []value.Value
	for _, item := range t.List {
		le, isLit := item.(*litExpr)
		if !isLit {
			return nil
		}
		if le.v.IsNull() {
			continue
		}
		lits = append(lits, le.v)
	}
	if len(lits) == 0 {
		return zoneAlways // nothing can match an all-NULL list
	}
	switch typ {
	case value.Integer, value.Float, value.Boolean:
		allInt := typ != value.Float
		for _, l := range lits {
			if typ == value.Boolean {
				if l.Type() != value.Boolean {
					return nil
				}
				continue
			}
			if !l.Type().Numeric() {
				return nil
			}
			if l.Type() != value.Integer {
				allInt = false
			}
		}
		if typ != value.Float && allInt {
			ints := make([]int64, len(lits))
			for i, l := range lits {
				ints[i] = l.Int()
			}
			return func(meta func(int) *blockMeta) bool {
				m := meta(ci)
				if m == nil {
					return false
				}
				if !m.HasMM {
					return true
				}
				for _, l := range ints {
					if m.MinI <= l && l <= m.MaxI {
						return false
					}
				}
				return true
			}
		}
		floats := make([]float64, len(lits))
		for i, l := range lits {
			floats[i] = l.Float()
			if math.IsNaN(floats[i]) {
				return nil // a NaN list item matches every row
			}
		}
		intCol := typ == value.Integer
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if m.HasNaN {
				return false // a NaN row matches every list item
			}
			if !m.HasMM {
				return true
			}
			minF, maxF := m.MinF, m.MaxF
			if intCol {
				minF, maxF = float64(m.MinI), float64(m.MaxI)
			}
			for _, l := range floats {
				if minF <= l && l <= maxF {
					return false
				}
			}
			return true
		}
	case value.String:
		for _, l := range lits {
			if l.Type() != value.String {
				return nil
			}
		}
		strs := make([]string, len(lits))
		for i, l := range lits {
			strs[i] = l.Str()
		}
		return func(meta func(int) *blockMeta) bool {
			m := meta(ci)
			if m == nil {
				return false
			}
			if !m.HasMM {
				return true
			}
			for _, l := range strs {
				if m.MinS <= l && l <= m.MaxS {
					return false
				}
			}
			return true
		}
	}
	return nil
}

// ------------------------------------------------------ execution

// morselBufs holds the per-morsel scratch (selection vector and group
// ids, both capped at vecMorselRows) recycled across morsels to keep
// the scan loop allocation-free.
type morselBufs struct {
	sel, gids []int32
}

var morselBufPool = sync.Pool{
	New: func() any {
		return &morselBufs{
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
		if cv[ci], err = e.blockVec(m.ch, m.bi, ci); err != nil {
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
		parts := make([]*groupTable, len(ms))
		err := runMorsels(env, len(ms), t.nrows, func(mi int) error {
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
				mask := make([]bool, hi-lo)
				vp.pred(cv, lo, mask)
				for i, keep := range mask {
					if keep {
						sel = append(sel, int32(lo+i))
					}
				}
			}
			if len(sel) == 0 {
				return nil // no row passed: nil partial, renderParts skips it
			}
			rows, err := t.morselRows(&ms[mi])
			if err != nil {
				return err
			}
			parts[mi] = newGroupTable(st, p)
			parts[mi].addBatch(scanBatch{cv, rows, sel}, bufs.gids[:len(sel)])
			return nil
		})
		if err != nil {
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
		mask := make([]bool, hi-lo)
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
// positions of the morsel's vectors, and its rows indexed by the same.
type scanBatch struct {
	cv   []*colVec
	rows []Row
	sel  []int32
}

func (b scanBatch) size() int                           { return len(b.sel) }
func (b scanBatch) col(ci int) (*colVec, []int32, bool) { return b.cv[ci], b.sel, false }
func (b scanBatch) rep(j int) Row                       { return b.rows[b.sel[j]] }
