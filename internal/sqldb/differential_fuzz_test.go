// Differential SQL fuzzing: a byte-driven generator produces random
// but well-typed statement sequences and runs them against three
// implementations at once —
//
//  1. the engine itself (compiled executor + plan cache, vectorized
//     path enabled — qualifying SELECTs run through the batch
//     kernels),
//  2. a naive test-side reference model (plain Go slices, no SQL),
//  3. a second engine behind the TCP wire protocol, fed the identical
//     stream partly through single Execs and partly through pipelined
//     batches, and
//  4. a row-engine twin: the same engine with SetVectorized(false),
//     so every query the vectorized path serves is also answered by
//     the row-at-a-time reference executor and must match it
//     byte-for-byte, and
//  5. a block-backed twin: a durable engine whose column cache is
//     capped at ~0 bytes and which checkpoints periodically, so its
//     vectorized scans hydrate from compressed column blocks on disk
//     (decode + zone-map pruning) instead of RAM-resident vectors —
//     and which every third checkpoint is closed and reopened, so its
//     tables come back cold and hydrate from those blocks too.
//
// Besides fixed statement shapes, the generator writes WHERE clauses
// from a grammar that covers every node the expression compiler lowers
// (predGen): comparisons of columns, arithmetic and literals of either
// class, NOT, nested AND and OR, [NOT] BETWEEN, [NOT] IN, IS [NOT]
// NULL, [NOT] LIKE, and division, which fails on a zero divisor — when
// the model says a row fails, every oracle must fail with one error.
//
// At every generated SELECT the five answers must agree exactly
// (floats within 1e-9 for AVG against the model; engine-vs-engine
// comparisons are byte-identical — the fuzz schema keeps aggregate
// columns integer, and every value of v in the table at one time is
// the same power of two times an int8, so that the float sum AVG keeps
// is exact in whatever order the morsels add it up. That power is 1,
// 2^53 or 2^55: the last two put v where a float no longer holds every
// integer and where an int64 sum wraps after three rows). The
// package is sqldb_test rather than sqldb because the wire package
// imports sqldb: an in-package test would close an import cycle.
package sqldb_test

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

// mrow is the reference model's row: the fuzz schema is fixed as
// m (k integer, grp string, v integer) with k unique and increasing so
// ORDER BY k is total and comparisons are deterministic. m2 and m3 have
// the same columns and are empty between statements: rows pass through
// them on their way into m (opcode 2).
type mrow struct {
	k   int64
	grp string
	v   int64
}

// jrow models the join table j (jk integer, tag string, ord integer):
// jk is the equi-join key (nullable — NULL never joins), ord is unique
// and increasing so ORDER BY (m.k, j.ord) totally orders join output.
type jrow struct {
	null bool
	jk   int64
	tag  string
	ord  int64
}

// diffState threads the generator through one fuzz input.
type diffState struct {
	t     *testing.T
	db    *sqldb.Session // oracle 1: in-process engine (vectorized)
	rdb   *sqldb.Session // oracle 4: same engine, row path forced
	bdb   *sqldb.DB      // oracle 5: durable engine, cold block-backed scans
	bses  *sqldb.Session // the session statements run on in bdb
	bdir  string         // its directory, for the reopens
	wc    *wire.Client   // oracle 3: same statements over TCP
	model []mrow         // oracle 2: naive reference
	saved []mrow         // model backup for ROLLBACK
	// join-table mirror; mutated only outside transactions so ROLLBACK
	// never needs to restore it.
	jmodel  []jrow
	xmodel  [][]value.Value // the equality table x, filled at the end
	inTxn   bool
	scale   int64 // what an operand byte is multiplied by to give a v
	nextK   int64
	nextOrd int64
	muts    int // mutations since open, drives bdb checkpoints
	// pending statements not yet applied to the wire mirror; flushed
	// alternately via ExecPipeline and via per-statement Exec so both
	// transports are exercised.
	pending []sqldb.PipelineRequest
	flushes int
}

// val turns an operand byte into a value of (or a bound on) m.v.
func (s *diffState) val(b byte) int64 { return int64(int8(b)) * s.scale }

// exec applies one mutation statement to the engine and queues it for
// the wire mirror. Generated statements are well-typed by
// construction, so any error is a finding.
func (s *diffState) exec(sql string) {
	s.t.Helper()
	if _, err := s.db.Exec(sql); err != nil {
		s.t.Fatalf("engine rejected generated statement %q: %v", sql, err)
	}
	if _, err := s.rdb.Exec(sql); err != nil {
		s.t.Fatalf("row-path engine rejected generated statement %q: %v", sql, err)
	}
	if _, err := s.bses.Exec(sql); err != nil {
		s.t.Fatalf("block-backed engine rejected generated statement %q: %v", sql, err)
	}
	// Periodic checkpoints re-encode the table into compressed column
	// blocks and register them, so later SELECTs on the cold-cache twin
	// decode from disk; every third one is a Close and reopen instead,
	// after which the tables themselves are decoded from the blocks on
	// first touch. Never inside a transaction: it lives in the session.
	s.muts++
	if !s.inTxn && sql != "BEGIN" && s.muts%7 == 0 {
		if s.muts%21 != 0 {
			if err := s.bdb.Checkpoint(); err != nil {
				s.t.Fatalf("block-backed engine checkpoint: %v", err)
			}
		} else {
			if err := s.bdb.Close(); err != nil {
				s.t.Fatalf("block-backed engine close: %v", err)
			}
			var err error
			if s.bdb, err = sqldb.OpenWithPolicy(s.bdir, sqldb.SyncOff); err != nil {
				s.t.Fatalf("block-backed engine reopen: %v", err)
			}
			s.bdb.ColumnCacheLimit(0)
			s.bses = s.bdb.NewSession()
		}
	}
	s.pending = append(s.pending, sqldb.PipelineRequest{SQL: sql})
}

// flush catches the wire mirror up with the engine.
func (s *diffState) flush() {
	s.t.Helper()
	if len(s.pending) == 0 {
		return
	}
	s.flushes++
	if s.flushes%2 == 0 {
		if _, err := s.wc.ExecPipeline(s.pending); err != nil {
			s.t.Fatalf("wire pipeline rejected mirrored batch: %v", err)
		}
	} else {
		for _, req := range s.pending {
			if _, err := s.wc.Exec(req.SQL); err != nil {
				s.t.Fatalf("wire rejected mirrored statement %q: %v", req.SQL, err)
			}
		}
	}
	s.pending = s.pending[:0]
}

// modelRows returns a sorted copy of the reference rows (by k).
func (s *diffState) modelRows() []mrow {
	out := append([]mrow(nil), s.model...)
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// resultString renders a Result canonically for engine-vs-wire
// comparison: both sides run the same engine, so the rendering must be
// byte-identical.
func resultString(res *sqldb.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('\t')
			}
			if v.IsNull() {
				b.WriteString("NULL")
			} else {
				b.WriteString(v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// query runs one SELECT on engine and wire, checks they agree exactly,
// and returns the engine result for the reference check.
func (s *diffState) query(sql string) *sqldb.Result {
	s.t.Helper()
	res, err := s.db.Exec(sql)
	if err != nil {
		s.t.Fatalf("engine rejected generated query %q: %v", sql, err)
	}
	rres, err := s.rdb.Exec(sql)
	if err != nil {
		s.t.Fatalf("row-path engine rejected generated query %q: %v", sql, err)
	}
	if eng, row := resultString(res), resultString(rres); eng != row {
		s.t.Fatalf("vectorized and row paths disagree on %q:\nvectorized:\n%srow:\n%s", sql, eng, row)
	}
	bres, err := s.bses.Exec(sql)
	if err != nil {
		s.t.Fatalf("block-backed engine rejected generated query %q: %v", sql, err)
	}
	if eng, blk := resultString(res), resultString(bres); eng != blk {
		s.t.Fatalf("RAM-resident and block-backed scans disagree on %q:\nRAM:\n%sblocks:\n%s", sql, eng, blk)
	}
	s.flush()
	wres, err := s.wc.Exec(sql)
	if err != nil {
		s.t.Fatalf("wire rejected generated query %q: %v", sql, err)
	}
	if eng, wr := resultString(res), resultString(wres); eng != wr {
		s.t.Fatalf("engine and wire disagree on %q:\nengine:\n%swire:\n%s", sql, eng, wr)
	}
	return res
}

func (s *diffState) fail(sql string, res *sqldb.Result, format string, argv ...any) {
	s.t.Helper()
	s.t.Fatalf("engine and reference disagree on %q: %s\nengine rows: %v\nmodel: %+v",
		sql, fmt.Sprintf(format, argv...), res.Rows, s.modelRows())
}

// checkFullScan: SELECT k, grp, v FROM m ORDER BY k.
func (s *diffState) checkFullScan() {
	const sql = "SELECT k, grp, v FROM m ORDER BY k"
	res := s.query(sql)
	want := s.modelRows()
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Int() != w.k || r[1].Str() != w.grp || r[2].Int() != w.v {
			s.fail(sql, res, "row %d = (%v, %v, %v), want %+v", i, r[0], r[1], r[2], w)
		}
	}
}

// checkGroupBy: per-group COUNT/SUM/MIN/MAX.
func (s *diffState) checkGroupBy() {
	const sql = "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY grp ORDER BY grp"
	res := s.query(sql)
	type agg struct {
		n, sum, min, max int64
	}
	groups := map[string]*agg{}
	for _, r := range s.model {
		a, ok := groups[r.grp]
		if !ok {
			groups[r.grp] = &agg{n: 1, sum: r.v, min: r.v, max: r.v}
			continue
		}
		a.n++
		a.sum += r.v
		if r.v < a.min {
			a.min = r.v
		}
		if r.v > a.max {
			a.max = r.v
		}
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	if len(res.Rows) != len(names) {
		s.fail(sql, res, "group count %d, want %d", len(res.Rows), len(names))
	}
	for i, g := range names {
		r, a := res.Rows[i], groups[g]
		if r[0].Str() != g || r[1].Int() != a.n || r[2].Int() != a.sum || r[3].Int() != a.min || r[4].Int() != a.max {
			s.fail(sql, res, "group %q = %v, want %+v", g, r, *a)
		}
	}
}

// checkFilter: SELECT k, v FROM m WHERE v >= c ORDER BY k.
func (s *diffState) checkFilter(c int64) {
	sql := fmt.Sprintf("SELECT k, v FROM m WHERE v >= %d ORDER BY k", c)
	res := s.query(sql)
	var want []mrow
	for _, r := range s.modelRows() {
		if r.v >= c {
			want = append(want, r)
		}
	}
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].Int() != w.k || res.Rows[i][1].Int() != w.v {
			s.fail(sql, res, "row %d = %v, want %+v", i, res.Rows[i], w)
		}
	}
}

// tri is a predicate's value in the engine's logic: false, true or NULL.
// AND and OR yield no NULL: they keep what is true.
type tri uint8

const (
	fls tri = iota
	tru
	unk
)

func triOf(b bool) tri {
	if b {
		return tru
	}
	return fls
}

// mval is a value of the predicate model: an integer, a string or NULL.
type mval struct {
	null, str bool
	i         int64
	s         string
}

// mcmp is value.Compare over model values: integers by magnitude,
// strings bytewise, an integer against a string by its decimal form.
func mcmp(a, b mval) int {
	as, bs := a.s, b.s
	switch {
	case !a.str && !b.str:
		return cmp.Compare(a.i, b.i)
	case !a.str:
		as = strconv.FormatInt(a.i, 10)
	case !b.str:
		bs = strconv.FormatInt(b.i, 10)
	}
	return strings.Compare(as, bs)
}

// likeMatch is LIKE over ASCII: % any run, _ any one character, letters
// in either case.
func likeMatch(s, pat string) bool {
	switch {
	case pat == "":
		return s == ""
	case pat[0] == '%':
		for i := 0; i <= len(s); i++ {
			if likeMatch(s[i:], pat[1:]) {
				return true
			}
		}
		return false
	case s == "":
		return false
	case pat[0] == '_' || strings.EqualFold(s[:1], pat[:1]):
		return likeMatch(s[1:], pat[1:])
	}
	return false
}

// A model expression or predicate evaluates over one row; the bool
// reports that the evaluation failed, on a division by zero — the one
// failure the grammar can reach.
type (
	mexpr func(mrow) (mval, bool)
	mpred func(mrow) (tri, bool)
)

// predGen generates a WHERE clause over m from the input, together with
// its model, which follows the engine's evaluation order: operands left
// to right, AND and OR stopping at a left side that decides, IN at a NULL
// probe or the first matching item — so it knows which rows fail, not
// only which pass.
type predGen struct{ next func() byte }

func (g predGen) lit(v mval) mexpr { return func(mrow) (mval, bool) { return v, false } }

// num is an integer expression: k, v, a small constant, or arithmetic
// over two of them, division included.
func (g predGen) num(depth int) (string, mexpr) {
	op := g.next() % 7
	if depth <= 0 {
		op %= 3
	}
	switch op {
	case 0:
		return "k", func(r mrow) (mval, bool) { return mval{i: r.k}, false }
	case 1:
		return "v", func(r mrow) (mval, bool) { return mval{i: r.v}, false }
	case 2:
		c := int64(g.next()%5) - 2
		return strconv.FormatInt(c, 10), g.lit(mval{i: c})
	}
	ls, l := g.num(depth - 1)
	rs, r := g.num(depth - 1)
	sym := [...]string{"+", "-", "*", "/"}[op-3]
	return "(" + ls + " " + sym + " " + rs + ")", func(row mrow) (mval, bool) {
		a, fail := l(row)
		if fail {
			return a, true
		}
		b, fail := r(row)
		switch {
		case fail:
			return b, true
		case sym == "+":
			a.i += b.i
		case sym == "-":
			a.i -= b.i
		case sym == "*":
			a.i *= b.i
		case b.i == 0:
			return a, true
		default:
			a.i /= b.i
		}
		return a, false
	}
}

// val is an operand of a comparison: an integer expression, grp, a
// string literal — against an integer, a cross-class one — or NULL.
func (g predGen) val(depth int) (string, mexpr) {
	switch g.next() % 6 {
	case 3:
		return "grp", func(r mrow) (mval, bool) { return mval{str: true, s: r.grp}, false }
	case 4:
		s := [...]string{"g1", "g9", "10", "-1", "abc", "G2"}[g.next()%6]
		return "'" + s + "'", g.lit(mval{str: true, s: s})
	case 5:
		return "NULL", g.lit(mval{null: true})
	}
	return g.num(depth)
}

// vals evaluates operands in order, stopping at the first that fails.
func vals(row mrow, es ...mexpr) ([]mval, bool) {
	out := make([]mval, len(es))
	for i, e := range es {
		v, fail := e(row)
		if fail {
			return nil, true
		}
		out[i] = v
	}
	return out, false
}

// pred is a predicate: a comparison, [NOT] BETWEEN, [NOT] IN, IS [NOT]
// NULL or [NOT] LIKE, and above depth 0 also NOT, AND and OR over
// predicates.
func (g predGen) pred(depth int) (string, mpred) {
	op := g.next() % 8
	if depth <= 0 {
		op = 3 + op%5
	}
	not := g.next()%2 == 0
	notKw := ""
	if not {
		notKw = "NOT "
	}
	switch op {
	case 0, 1:
		ls, l := g.pred(depth - 1)
		rs, r := g.pred(depth - 1)
		and := op == 0
		kw := map[bool]string{true: " AND ", false: " OR "}[and]
		return "(" + ls + ")" + kw + "(" + rs + ")", func(row mrow) (tri, bool) {
			a, fail := l(row)
			if fail || and && a == fls || !and && a == tru {
				return a, fail
			}
			b, fail := r(row)
			if and {
				return triOf(a == tru && b == tru), fail
			}
			return triOf(a == tru || b == tru), fail
		}
	case 2:
		ps, p := g.pred(depth - 1)
		return "NOT (" + ps + ")", func(row mrow) (tri, bool) {
			a, fail := p(row)
			if a == unk {
				return a, fail
			}
			return 1 - a, fail
		}
	case 3:
		xs, x := g.val(1)
		los, lo := g.val(1)
		his, hi := g.val(1)
		return xs + " " + notKw + "BETWEEN " + los + " AND " + his, func(row mrow) (tri, bool) {
			v, fail := vals(row, x, lo, hi)
			switch {
			case fail:
				return fls, true
			case v[0].null || v[1].null || v[2].null:
				return unk, false
			}
			return triOf((mcmp(v[0], v[1]) >= 0 && mcmp(v[0], v[2]) <= 0) != not), false
		}
	case 4:
		xs, x := g.val(1)
		items, list := make([]string, 1+g.next()%3), []mexpr{}
		for i := range items {
			var e mexpr
			items[i], e = g.val(1)
			list = append(list, e)
		}
		return xs + " " + notKw + "IN (" + strings.Join(items, ", ") + ")", func(row mrow) (tri, bool) {
			v, fail := x(row)
			if fail || v.null {
				return unk, fail
			}
			sawNull := false
			for _, e := range list {
				iv, fail := e(row)
				if fail {
					return fls, true
				}
				if iv.null {
					sawNull = true
				} else if mcmp(v, iv) == 0 {
					return triOf(!not), false
				}
			}
			if sawNull {
				return unk, false // a NULL item might have matched
			}
			return triOf(not), false
		}
	case 5:
		xs, x := g.val(1)
		return xs + " IS " + notKw + "NULL", func(row mrow) (tri, bool) {
			v, fail := x(row)
			return triOf(v.null != not), fail
		}
	case 6:
		pat := [...]string{"g%", "_1", "%9", "x", "G_", "%"}[g.next()%6]
		return "grp " + notKw + "LIKE '" + pat + "'", func(row mrow) (tri, bool) {
			return triOf(likeMatch(row.grp, pat) != not), false
		}
	}
	ls, l := g.val(2)
	rs, r := g.val(2)
	c := modelCmps[g.next()%6]
	return ls + " " + c.op + " " + rs, func(row mrow) (tri, bool) {
		v, fail := vals(row, l, r)
		switch {
		case fail:
			return fls, true
		case v[0].null || v[1].null:
			return unk, false
		}
		return triOf(c.ok[mcmp(v[0], v[1])+1]), false
	}
}

// modelCmps are the comparison operators and the outcomes of mcmp each
// accepts, at index outcome+1.
var modelCmps = [...]struct {
	op string
	ok [3]bool
}{
	{"=", [3]bool{false, true, false}}, {"<>", [3]bool{true, false, true}},
	{"<", [3]bool{true, false, false}}, {"<=", [3]bool{true, true, false}},
	{">", [3]bool{false, false, true}}, {">=", [3]bool{false, true, true}},
}

// checkWhere: SELECT k, v FROM m WHERE <a generated clause> ORDER BY k.
// Every oracle answers the rows the model keeps — or, when the model
// says some row fails, every oracle fails, with the engine's message.
func (s *diffState) checkWhere(g predGen) {
	where, keep := g.pred(2)
	sql := "SELECT k, v FROM m WHERE " + where + " ORDER BY k"
	var want []mrow
	for _, r := range s.modelRows() {
		t, fail := keep(r)
		if fail {
			s.queryFails(sql)
			return
		}
		if t == tru {
			want = append(want, r)
		}
	}
	res := s.query(sql)
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].Int() != w.k || res.Rows[i][1].Int() != w.v {
			s.fail(sql, res, "row %d = %v, want %+v", i, res.Rows[i], w)
		}
	}
}

// queryFails requires every oracle to fail sql with one error: the
// engine's, which the wire carries.
func (s *diffState) queryFails(sql string) {
	s.t.Helper()
	_, want := s.db.Exec(sql)
	if want == nil {
		s.t.Fatalf("engine answered %q, where the model has a row fail\nmodel: %+v", sql, s.modelRows())
	}
	for name, q := range map[string]sqldb.Querier{"row-path engine": s.rdb, "block-backed engine": s.bses} {
		if _, err := q.Exec(sql); err == nil || err.Error() != want.Error() {
			s.t.Fatalf("%s answered %q with %v, the engine with %v", name, sql, err, want)
		}
	}
	s.flush()
	if _, err := s.wc.Exec(sql); err == nil || !strings.Contains(err.Error(), want.Error()) {
		s.t.Fatalf("wire answered %q with %v, the engine with %v", sql, err, want)
	}
}

// checkCountAvg: whole-table COUNT and AVG (float, 1e-9 tolerance).
func (s *diffState) checkCountAvg() {
	const sql = "SELECT COUNT(*), AVG(v) FROM m"
	res := s.query(sql)
	if len(res.Rows) != 1 {
		s.fail(sql, res, "row count %d, want 1", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].Int() != int64(len(s.model)) {
		s.fail(sql, res, "COUNT = %v, want %d", r[0], len(s.model))
	}
	if len(s.model) == 0 {
		if !r[1].IsNull() {
			s.fail(sql, res, "AVG of empty table = %v, want NULL", r[1])
		}
		return
	}
	var sum float64 // exact: see the file comment
	for _, m := range s.model {
		sum += float64(m.v)
	}
	want := sum / float64(len(s.model))
	if got := r[1].Float(); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		s.fail(sql, res, "AVG = %g, want %g", got, want)
	}
}

// checkTopK: bounded-heap ORDER BY ... LIMIT against the model's full
// sort. The (v, k) key is total (k unique), so the prefix is exact.
func (s *diffState) checkTopK(n int64) {
	if n < 0 {
		n = -n
	}
	n %= 9 // 0..8 rows, exercising k = 0 and k >= len
	sql := fmt.Sprintf("SELECT k, v FROM m WHERE v >= %d ORDER BY v, k LIMIT %d", -128*s.scale, n)
	res := s.query(sql)
	want := append([]mrow(nil), s.model...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].v != want[j].v {
			return want[i].v < want[j].v
		}
		return want[i].k < want[j].k
	})
	if int64(len(want)) > n {
		want = want[:n]
	}
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].Int() != w.k || res.Rows[i][1].Int() != w.v {
			s.fail(sql, res, "row %d = %v, want %+v", i, res.Rows[i], w)
		}
	}
}

// joinMatches returns the j rows matching v, in ord (insertion) order —
// the bucket order the engine's hash join preserves.
func (s *diffState) joinMatches(v int64) []jrow {
	var out []jrow
	for _, j := range s.jmodel {
		if !j.null && j.jk == v {
			out = append(out, j)
		}
	}
	return out
}

// checkJoinCount: COUNT(*) over an INNER or LEFT equi-join, optionally
// with a probe-side filter (which the vectorized path pushes below the
// join), with both ON operand orders exercised.
func (s *diffState) checkJoinCount(left, swapped bool, filter *int64) {
	kind, on := "JOIN", "m.v = j.jk"
	if left {
		kind = "LEFT JOIN"
	}
	if swapped {
		on = "j.jk = m.v"
	}
	where := ""
	if filter != nil {
		where = fmt.Sprintf(" WHERE m.v >= %d", *filter)
	}
	sql := fmt.Sprintf("SELECT COUNT(*) FROM m %s j ON %s%s", kind, on, where)
	res := s.query(sql)
	var want int64
	for _, r := range s.model {
		if filter != nil && r.v < *filter {
			continue
		}
		n := int64(len(s.joinMatches(r.v)))
		if n == 0 && left {
			n = 1
		}
		want += n
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
		s.fail(sql, res, "COUNT = %v, want %d (jmodel: %+v)", res.Rows[0][0], want, s.jmodel)
	}
}

// checkJoinRows: full join output ordered by the total (m.k, j.ord)
// key. LEFT pads carry NULL ord — the pad is the only row for its k,
// so the order stays total.
func (s *diffState) checkJoinRows(left bool) {
	kind := "JOIN"
	if left {
		kind = "LEFT JOIN"
	}
	sql := fmt.Sprintf("SELECT m.k, j.ord FROM m %s j ON m.v = j.jk ORDER BY m.k, j.ord", kind)
	res := s.query(sql)
	type pair struct {
		k   int64
		pad bool
		ord int64
	}
	var want []pair
	for _, r := range s.modelRows() {
		ms := s.joinMatches(r.v)
		if len(ms) == 0 {
			if left {
				want = append(want, pair{k: r.k, pad: true})
			}
			continue
		}
		for _, j := range ms {
			want = append(want, pair{k: r.k, ord: j.ord})
		}
	}
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d (jmodel: %+v)", len(res.Rows), len(want), s.jmodel)
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Int() != w.k || r[1].IsNull() != w.pad || (!w.pad && r[1].Int() != w.ord) {
			s.fail(sql, res, "row %d = %v, want %+v", i, r, w)
		}
	}
}

// checkJoinGroupBy: join + GROUP BY on the build side's tag with
// COUNT/SUM kernels (the fused vec-join aggregation path).
func (s *diffState) checkJoinGroupBy() {
	const sql = "SELECT j.tag, COUNT(*), SUM(m.v) FROM m JOIN j ON m.v = j.jk GROUP BY j.tag ORDER BY j.tag"
	res := s.query(sql)
	type agg struct{ n, sum int64 }
	groups := map[string]*agg{}
	for _, r := range s.model {
		for _, j := range s.joinMatches(r.v) {
			a, ok := groups[j.tag]
			if !ok {
				a = &agg{}
				groups[j.tag] = a
			}
			a.n++
			a.sum += r.v
		}
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	if len(res.Rows) != len(names) {
		s.fail(sql, res, "group count %d, want %d (jmodel: %+v)", len(res.Rows), len(names), s.jmodel)
	}
	for i, g := range names {
		r, a := res.Rows[i], groups[g]
		if r[0].Str() != g || r[1].Int() != a.n || r[2].Int() != a.sum {
			s.fail(sql, res, "group %q = %v, want %+v", g, r, *a)
		}
	}
}

// checkJoinTopK: join + ORDER BY/LIMIT over the total (m.k, j.ord) key.
func (s *diffState) checkJoinTopK(n int64) {
	if n < 0 {
		n = -n
	}
	n %= 7
	sql := fmt.Sprintf("SELECT m.k, j.ord FROM m JOIN j ON m.v = j.jk ORDER BY m.k, j.ord LIMIT %d", n)
	res := s.query(sql)
	type pair struct{ k, ord int64 }
	var want []pair
	for _, r := range s.modelRows() {
		for _, j := range s.joinMatches(r.v) {
			want = append(want, pair{r.k, j.ord})
		}
	}
	if int64(len(want)) > n {
		want = want[:n]
	}
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].Int() != w.k || res.Rows[i][1].Int() != w.ord {
			s.fail(sql, res, "row %d = %v, want %+v", i, res.Rows[i], w)
		}
	}
}

// checkUnion: a compound select is the concatenation of its branches'
// results in branch order. The branches split m at a threshold (in
// insertion order, the physical order every engine scans in — DELETE
// and UPDATE keep it), optionally followed by an aggregate branch and,
// with mixed set, a constant branch whose float forces the v column of
// every branch to reconcile to float and whose NULL key adopts integer.
func (s *diffState) checkUnion(c int64, agg, mixed bool) {
	sql := fmt.Sprintf("SELECT k, v FROM m WHERE v >= %d UNION ALL SELECT k, v FROM m WHERE v < %d", c, c)
	type row struct {
		null bool
		k    int64
		v    float64
	}
	var want []row
	for _, keep := range []func(int64) bool{func(v int64) bool { return v >= c }, func(v int64) bool { return v < c }} {
		for _, r := range s.model {
			if keep(r.v) {
				want = append(want, row{k: r.k, v: float64(r.v)})
			}
		}
	}
	if agg {
		sql += " UNION ALL SELECT COUNT(*), COUNT(*) - 1 FROM m"
		want = append(want, row{k: int64(len(s.model)), v: float64(len(s.model) - 1)})
	}
	vType := "integer"
	if mixed {
		sql += " UNION ALL SELECT NULL, 0.5"
		want = append(want, row{null: true, v: 0.5})
		vType = "float"
	}
	res := s.query(sql)
	if got := res.Columns[0].Type.String() + "," + res.Columns[1].Type.String(); got != "integer,"+vType {
		s.fail(sql, res, "column types %s, want integer,%s", got, vType)
	}
	if len(res.Rows) != len(want) {
		s.fail(sql, res, "row count %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].IsNull() != w.null || (!w.null && r[0].Int() != w.k) || r[1].Type().String() != vType || r[1].Float() != w.v {
			s.fail(sql, res, "row %d = %v, want %+v", i, r, w)
		}
	}
}

// checkUnionRejected: a compound the engine does not support — UNION
// without ALL, branches of different arity or of irreconcilable type —
// is refused by every engine and over the wire, as a SELECT and as the
// source of an INSERT.
func (s *diffState) checkUnionRejected(which byte) {
	sql := [...]string{
		"SELECT k FROM m UNION SELECT k FROM m",
		"SELECT k FROM m UNION ALL SELECT k, v FROM m",
		"SELECT k, v FROM m UNION ALL SELECT k, grp FROM m",
		"INSERT INTO m SELECT k, grp, v FROM m UNION ALL SELECT k, v, grp FROM m",
	}[which%4]
	s.flush()
	for name, q := range map[string]sqldb.Querier{"engine": s.db, "row-path engine": s.rdb, "block-backed engine": s.bses} {
		if _, err := q.Exec(sql); !errors.Is(err, sqldb.ErrCompound) {
			s.t.Fatalf("%s answered %q with %v, want ErrCompound", name, sql, err)
		}
	}
	if _, err := s.wc.Exec(sql); err == nil {
		s.t.Fatalf("wire accepted %q", sql)
	}
}

// xPool holds, per column of the equality table x (a string, b string,
// f float, ts timestamp), the edges of value.Compare's equality: strings
// holding the bytes a separator-joined display key used, NaN, ±0, 1e6
// against 1000000, −Inf, two instants 0.5 s apart and one instant in two
// zones. NULL is the first of each.
var xPool = [4][]value.Value{
	{value.Null(value.String), value.NewString("a\x1f"), value.NewString("a"), value.NewString("\x1fb"),
		value.NewString("b"), value.NewString("\x00NULL"), value.NewString("z"), value.NewString("")},
	{value.Null(value.String), value.NewString("b"), value.NewString("\x1fb"), value.NewString("z")},
	{value.Null(value.Float), value.NewFloat(1e6), value.NewInt(1000000), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(0), value.NewFloat(math.NaN()), value.NewFloat(0.5), value.NewFloat(math.Inf(-1))},
	{value.Null(value.Timestamp), value.NewTimestamp(time.Date(2004, 11, 23, 18, 30, 30, 0, time.UTC)),
		value.NewTimestamp(time.Date(2004, 11, 23, 18, 30, 30, 5e8, time.UTC)),
		value.NewTimestamp(time.Date(2004, 11, 23, 19, 30, 30, 0, time.FixedZone("", 3600)))},
}

// xLit is v as an SQL literal that inserts v itself: a float without a
// literal of its own (NaN, ±Inf, −0) is a CAST of its text.
func xLit(v value.Value) string {
	if f := v.Float(); v.Type() == value.Float && !v.IsNull() && (f != f || math.IsInf(f, 0) || f == 0 && math.Signbit(f)) {
		return "CAST('" + strconv.FormatFloat(f, 'g', -1, 64) + "' AS FLOAT)"
	}
	return v.SQL()
}

// fillX inserts into x one row per input byte (up to 12), each column
// drawn from xPool by bits of the byte, and indexes f and a when the
// first byte is odd, so that WHERE probes go through the hash index.
// An Integer drawn for f is stored as the Float it converts to.
func (s *diffState) fillX(data []byte) {
	s.exec("CREATE TABLE x (a string, b string, f float, ts timestamp)")
	if len(data) > 0 && data[0]%2 == 1 {
		s.exec("CREATE INDEX ON x (f)")
		s.exec("CREATE INDEX ON x (a)")
	}
	for i := 0; i < len(data) && i < 12; i++ {
		b := data[len(data)-1-i]
		row := []value.Value{xPool[0][b%8], xPool[1][b>>3%4], xPool[2][b>>5%8], xPool[3][(b+byte(i))%4]}
		lits := make([]string, len(row))
		for c, v := range row {
			lits[c] = xLit(v)
		}
		s.exec("INSERT INTO x VALUES (" + strings.Join(lits, ", ") + ")")
		row[2], _ = row[2].Convert(value.Float)
		s.xmodel = append(s.xmodel, row)
	}
}

// xGroups is the model of GROUP BY (and DISTINCT) over x's columns cols:
// the first row of each group of rows whose columns compare equal under
// value.Compare, pairwise — never through a key — with its row count,
// in first-seen order.
func (s *diffState) xGroups(cols ...int) (reps [][]value.Value, counts []int64) {
next:
	for _, r := range s.xmodel {
		for g, rep := range reps {
			if !slices.ContainsFunc(cols, func(c int) bool { return value.Compare(r[c], rep[c]) != 0 }) {
				counts[g]++
				continue next
			}
		}
		reps, counts = append(reps, r), append(counts, 1)
	}
	return reps, counts
}

// checkXRows requires sql's rows to be want's, cell by cell in SQL form
// (which tells −0 from 0, NaN from NULL and instants 0.5 s apart).
func (s *diffState) checkXRows(sql string, want [][]value.Value) {
	res := s.query(sql)
	if len(res.Rows) != len(want) {
		s.t.Fatalf("%q: %d rows, want %d\nengine: %v\nmodel: %v", sql, len(res.Rows), len(want), res.Rows, want)
	}
	for i, w := range want {
		for c := range w {
			if got := res.Rows[i][c]; got.SQL() != w[c].SQL() {
				s.t.Fatalf("%q: row %d column %d = %s, want %s\nengine: %v\nmodel: %v", sql, i, c, got.SQL(), w[c].SQL(), res.Rows, want)
			}
		}
	}
}

// checkX cross-checks x: a composite GROUP BY, SELECT DISTINCT,
// single-column GROUP BY on f and on ts (ordered: NaN sorts first),
// COUNT(DISTINCT), WHERE equalities the index may serve, and two-key
// self-joins, inner and left.
func (s *diffState) checkX() {
	// grouped is the rows of groups reps projected to cols, with their
	// counts unless counts is nil.
	grouped := func(reps [][]value.Value, counts []int64, cols ...int) [][]value.Value {
		out := make([][]value.Value, len(reps))
		for g, r := range reps {
			for _, c := range cols {
				out[g] = append(out[g], r[c])
			}
			if counts != nil {
				out[g] = append(out[g], value.NewInt(counts[g]))
			}
		}
		return out
	}
	reps, counts := s.xGroups(0, 1)
	s.checkXRows("SELECT a, b, COUNT(*) FROM x GROUP BY a, b", grouped(reps, counts, 0, 1))
	s.checkXRows("SELECT DISTINCT a, b FROM x", grouped(reps, nil, 0, 1))
	for _, c := range []int{2, 3} {
		name := [...]string{"a", "b", "f", "ts"}[c]
		reps, counts := s.xGroups(c)
		rows := grouped(reps, counts, c)
		slices.SortStableFunc(rows, func(p, q []value.Value) int { return value.Compare(p[0], q[0]) })
		s.checkXRows(fmt.Sprintf("SELECT %[1]s, COUNT(*) FROM x GROUP BY %[1]s ORDER BY %[1]s", name), rows)
		distinct := int64(len(reps))
		if slices.ContainsFunc(reps, func(r []value.Value) bool { return r[c].IsNull() }) {
			distinct--
		}
		s.checkXRows(fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM x", name), [][]value.Value{{value.NewInt(distinct)}})
	}
	for _, w := range []struct {
		col int
		lit value.Value
	}{{2, value.NewInt(0)}, {2, value.NewInt(1000000)}, {2, value.NewFloat(0.5)}, {0, value.NewString("a")},
		{3, xPool[3][2]}, {3, xPool[3][3]}} {
		n := int64(0)
		for _, r := range s.xmodel {
			if !r[w.col].IsNull() && value.Compare(r[w.col], w.lit) == 0 {
				n++
			}
		}
		name := [...]string{"a", "b", "f", "ts"}[w.col]
		s.checkXRows(fmt.Sprintf("SELECT COUNT(*) FROM x WHERE %s = %s", name, w.lit.SQL()), [][]value.Value{{value.NewInt(n)}})
	}
	for _, keys := range [][2]int{{0, 1}, {0, 2}, {2, 3}, {1, 3}} {
		for _, left := range []bool{false, true} {
			n := int64(0)
			for _, p := range s.xmodel {
				m := int64(0)
				for _, q := range s.xmodel {
					if !slices.ContainsFunc(keys[:], func(c int) bool {
						return p[c].IsNull() || q[c].IsNull() || value.Compare(p[c], q[c]) != 0
					}) {
						m++
					}
				}
				if m == 0 && left {
					m = 1
				}
				n += m
			}
			kind, names := "JOIN", [...]string{"a", "b", "f", "ts"}
			if left {
				kind = "LEFT JOIN"
			}
			sql := fmt.Sprintf("SELECT COUNT(*) FROM x p %s x q ON p.%s = q.%[2]s AND q.%[3]s = p.%[3]s", kind, names[keys[0]], names[keys[1]])
			s.checkXRows(sql, [][]value.Value{{value.NewInt(n)}})
		}
	}
}

// FuzzSQLDifferential interprets the fuzz input as a program over the
// fixed schema and cross-checks every query against all four oracles.
func FuzzSQLDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("insert update delete begin commit rollback select"))
	f.Add([]byte{4, 200, 4, 100, 4, 50, 7, 0, 5, 1, 9, 4, 12, 6, 2, 9, 3, 255, 7, 1})
	f.Add([]byte{4, 1, 4, 2, 5, 0, 4, 3, 6, 0, 7, 0, 5, 0, 4, 4, 5, 0, 7, 1, 7, 2, 7, 3})
	f.Add([]byte{2, 130, 9, 2, 1, 200, 7, 5, 3, 0, 5, 2, 200, 3, 7, 5, 0, 250, 7, 6, 1, 6, 7, 5, 2, 9, 7, 6, 3})
	// The three-table compound, filtered both ways, in and out of a
	// transaction that rolls back.
	f.Add([]byte{2, 194, 5, 2, 197, 9, 7, 0, 5, 2, 193, 3, 2, 196, 4, 7, 1, 6, 7, 0, 2, 255, 100, 7, 5, 1, 50})
	// The scaled values: three rows of 126 * 2^55, whose integer sum
	// wraps where their AVG must not, checked alone, grouped and joined;
	// then, m emptied and rescaled, ten of 127 * 2^53.
	f.Add([]byte{6, 6, 0, 0, 126, 0, 1, 126, 0, 0, 126, 7, 3, 7, 1, 8, 126, 0, 9, 4, 4, 127, 6, 6,
		0, 0, 127, 0, 0, 127, 0, 1, 127, 2, 2, 127, 0, 0, 127, 0, 3, 127, 0, 0, 127, 0, 0, 127, 0, 1, 127, 0, 0, 127, 7, 3, 7, 1})
	// Generated WHERE clauses over seven rows, one with v = 0: v NOT IN
	// (2, -1, NULL); k BETWEEN -1 AND v; v > '10'; grp LIKE 'x' AND
	// k / v > 0, whose division its left side never lets run; NOT (v IS
	// NULL OR k = v); grp NOT LIKE 'G_'; grp NOT BETWEEN 'g1' AND 'g9';
	// NULL IS NOT NULL; and grp LIKE 'g%' AND k / v > 0, which fails.
	f.Add([]byte{0, 1, 5, 0, 2, 0, 0, 3, 250, 0, 0, 9, 0, 1, 1, 0, 2, 2, 0, 3, 3,
		7, 7, 4, 0, 1, 1, 2, 2, 2, 4, 2, 2, 1, 5, 7, 7, 3, 1, 0, 0, 2, 2, 1, 1, 1, 7, 7, 7, 1, 1, 1, 4, 2, 4,
		7, 7, 0, 1, 6, 1, 3, 7, 1, 0, 6, 0, 1, 2, 2, 2, 4, 7, 7, 2, 1, 1, 1, 2, 1, 1, 1, 4, 1, 0, 0, 1, 1, 0,
		7, 7, 6, 0, 4, 7, 7, 3, 0, 3, 4, 0, 4, 1, 7, 7, 5, 0, 5, 7, 7, 0, 1, 6, 1, 0, 7, 1, 0, 6, 0, 1, 2, 2, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		db := sqldb.NewMemory()
		srv := wire.NewServer(sqldb.NewMemory())
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Skip("loopback unavailable")
		}
		defer srv.Close()
		wc, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Skip("loopback unavailable")
		}
		defer wc.Close()

		rdb := sqldb.NewMemory()
		rdb.SetVectorized(false)
		bdir := t.TempDir()
		bdb, err := sqldb.OpenWithPolicy(bdir, sqldb.SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		bdb.ColumnCacheLimit(0) // every vector hydration decodes from disk
		s := &diffState{t: t, db: db.NewSession(), rdb: rdb.NewSession(), bdb: bdb, bses: bdb.NewSession(), bdir: bdir, wc: wc, scale: 1}
		defer func() { s.bdb.Close() }()
		s.exec("CREATE TABLE m (k integer, grp string, v integer)")
		s.exec("CREATE TABLE j (jk integer, tag string, ord integer)")
		s.exec("CREATE TABLE m2 (k integer, grp string, v integer)")
		s.exec("CREATE TABLE m3 (k integer, grp string, v integer)")

		// Each opcode consumes one selector byte plus up to two operand
		// bytes. 64 ops keeps a single input fast while still producing
		// transactions that span many mutations.
		byteAt := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pos := 0
		next := func() byte { b := byteAt(pos); pos++; return b }
		for ops := 0; pos < len(data) && ops < 64; ops++ {
			switch next() % 10 {
			case 0, 1: // single-row INSERT
				grp := fmt.Sprintf("g%d", next()%4)
				v := s.val(next())
				k := s.nextK
				s.nextK++
				s.exec(fmt.Sprintf("INSERT INTO m VALUES (%d, '%s', %d)", k, grp, v))
				s.model = append(s.model, mrow{k, grp, v})
			case 2: // multi-row INSERT (one atomic statement)
				sel := next()
				grp := fmt.Sprintf("g%d", sel%4)
				v := s.val(next())
				k1, k2 := s.nextK, s.nextK+1
				s.nextK += 2
				if sel >= 192 {
					// The same two rows through the staging tables, which
					// have m's schema: three branches of one shape — one
					// plan — that differ in their table and the group they
					// project. The threshold keeps m's own rows out; an even
					// selector filters by a column, which the vectorized
					// path serves, an odd one by an expression, which leaves
					// the row engine to pour what it keeps. The statements
					// leave the staging tables empty, as a ROLLBACK does.
					filter := "k"
					if sel%2 == 1 {
						filter = "k + 0"
					}
					s.exec(fmt.Sprintf("INSERT INTO m2 VALUES (%d, 'x', %d)", k1, v))
					s.exec(fmt.Sprintf("INSERT INTO m3 VALUES (%d, 'y', %d)", k2, -v))
					s.exec(fmt.Sprintf("INSERT INTO m (v, grp, k) SELECT v, 'g9', k FROM m WHERE %[1]s >= %[2]d"+
						" UNION ALL SELECT v, '%[3]s', k FROM m2 WHERE %[1]s >= %[2]d UNION ALL SELECT v, '%[3]s', k FROM m3 WHERE %[1]s >= %[2]d",
						filter, k1, grp))
					s.exec("DELETE FROM m2")
					s.exec("DELETE FROM m3")
				} else if sel >= 128 { // the same two rows from a compound select
					s.exec(fmt.Sprintf("INSERT INTO m (v, grp, k) SELECT %d, '%s', %d UNION ALL SELECT -v, grp, k + 1 FROM m WHERE k = %d",
						v, grp, k1, k1))
					// Branch two reads the state before the statement,
					// where k1 does not exist yet: one row so far.
					s.exec(fmt.Sprintf("INSERT INTO m SELECT k + 1, grp, -v FROM m WHERE k = %d UNION ALL SELECT k, grp, v FROM m WHERE k < 0", k1))
				} else {
					s.exec(fmt.Sprintf("INSERT INTO m VALUES (%d, '%s', %d), (%d, '%s', %d)",
						k1, grp, v, k2, grp, -v))
				}
				s.model = append(s.model, mrow{k1, grp, v}, mrow{k2, grp, -v})
			case 3: // UPDATE one group
				grp := fmt.Sprintf("g%d", next()%4)
				v := s.val(next())
				s.exec(fmt.Sprintf("UPDATE m SET v = %d WHERE grp = '%s'", v, grp))
				for i := range s.model {
					if s.model[i].grp == grp {
						s.model[i].v = v
					}
				}
			case 4: // DELETE below a threshold
				c := s.val(next())
				s.exec(fmt.Sprintf("DELETE FROM m WHERE v < %d", c))
				kept := s.model[:0]
				for _, r := range s.model {
					if r.v >= c {
						kept = append(kept, r)
					}
				}
				s.model = kept
			case 5: // BEGIN / COMMIT toggle
				if s.inTxn {
					s.exec("COMMIT")
					s.inTxn, s.saved = false, nil
				} else {
					s.exec("BEGIN")
					s.inTxn = true
					s.saved = append([]mrow(nil), s.model...)
				}
			case 6: // ROLLBACK; outside a transaction, the next scale
				if s.inTxn {
					s.exec("ROLLBACK")
					s.model, s.saved, s.inTxn = s.saved, nil, false
				} else if len(s.model) == 0 {
					// Only while m is empty: its rows must share one scale
					// (see the file comment).
					s.scale = map[int64]int64{1: 1 << 53, 1 << 53: 1 << 55, 1 << 55: 1}[s.scale]
				}
			case 7: // cross-checked SELECT
				switch next() % 8 {
				case 0:
					s.checkFullScan()
				case 1:
					s.checkGroupBy()
				case 2:
					s.checkFilter(s.val(next()))
				case 3:
					s.checkCountAvg()
				case 4:
					s.checkTopK(int64(int8(next())))
				case 5:
					b := next()
					s.checkUnion(s.val(next()), b&1 != 0, b&2 != 0)
				case 6:
					s.checkUnionRejected(next())
				case 7:
					s.checkWhere(predGen{next})
				}
			case 8: // INSERT into the join table (NULL keys included).
				// Outside transactions only, so ROLLBACK never has to
				// restore the join-table mirror.
				if s.inTxn {
					continue
				}
				b := next()
				ord := s.nextOrd
				s.nextOrd++
				tag := fmt.Sprintf("t%d", next()%3)
				if b%5 == 0 {
					s.exec(fmt.Sprintf("INSERT INTO j VALUES (NULL, '%s', %d)", tag, ord))
					s.jmodel = append(s.jmodel, jrow{null: true, tag: tag, ord: ord})
				} else {
					jk := s.val(b)
					s.exec(fmt.Sprintf("INSERT INTO j VALUES (%d, '%s', %d)", jk, tag, ord))
					s.jmodel = append(s.jmodel, jrow{jk: jk, tag: tag, ord: ord})
				}
			case 9: // cross-checked two-table equi-join SELECT
				switch next() % 6 {
				case 0:
					s.checkJoinCount(false, false, nil)
				case 1:
					s.checkJoinCount(true, false, nil)
				case 2:
					c := s.val(next())
					s.checkJoinCount(next()%2 == 0, true, &c)
				case 3:
					s.checkJoinRows(next()%2 == 0)
				case 4:
					s.checkJoinGroupBy()
				case 5:
					s.checkJoinTopK(int64(int8(next())))
				}
			}
		}
		// Final full comparison regardless of what the input generated.
		s.checkFullScan()
		s.checkGroupBy()
		s.checkCountAvg()
		s.checkTopK(5)
		s.checkUnion(0, true, true)
		s.checkJoinCount(false, false, nil)
		s.checkJoinRows(true)
		s.checkJoinGroupBy()
		if s.inTxn {
			s.exec("COMMIT")
			s.inTxn = false
		}
		s.fillX(data)
		s.checkX()
	})
}
