package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"perfbase/internal/value"
)

// ExplainStmt is EXPLAIN SELECT ...: it reports the access paths the
// engine will choose — full scan vs hash-index probe, hash join vs
// nested loop — without executing the query. The ablation benchmarks
// quantify these choices; EXPLAIN makes them inspectable.
type ExplainStmt struct {
	Query *SelectStmt
}

func (*ExplainStmt) stmt() {}

// explainUnion renders a compound select: a header with the number of
// branches and of the plans they run on, then each run of consecutive
// branches that share a plan (planSelect) once — the steps of its first
// branch, without table names and row counts, headed by how many
// branches follow it and the path they take: the vector path, or the
// row path, poured where the branch is one a pour gathers straight into
// the columns of the statement's destination (pourVec).
func (db *DB) explainUnion(sn *snapshot, q *SelectStmt) ([]string, error) {
	p, err := sn.planSelect(q)
	if err != nil {
		return nil, err
	}
	lines := []string{""}
	plans := 0
	for bi := 0; bi < len(q.Union); plans++ {
		bp, first := p.union[bi], bi
		for bi < len(q.Union) && p.union[bi] == bp {
			bi++
		}
		steps, vec, err := db.explainBranch(sn, q.Union[first], bp, true)
		if err != nil {
			return nil, err
		}
		path := "row path"
		switch {
		case vec:
			path = "vector path"
		case bp.pours(q.Union[first]):
			path = "row path, poured"
		}
		lines = append(lines, fmt.Sprintf("%d branch(es) from branch %d [%s]:", bi-first, first+1, path))
		for _, l := range steps {
			lines = append(lines, "  "+l)
		}
	}
	lines[0] = fmt.Sprintf("UNION ALL (%d branches, %d plans)", len(q.Union), plans)
	if plans == 1 {
		lines[0] = fmt.Sprintf("UNION ALL (%d branches, 1 plan)", len(q.Union))
	}
	return lines, nil
}

// explainBranch renders the steps of one plain SELECT and reports
// whether it runs on the vectorized path. p is the plan q runs on, nil
// if it has none (its steps are then the row engine's, up to the one
// that will fail). With generic set, table names and row counts are
// left out, so that the steps read true of every branch on the plan.
func (db *DB) explainBranch(sn *snapshot, q *SelectStmt, p *compiledSelect, generic bool) ([]string, bool, error) {
	vecOn := p != nil && db.env != nil && !db.env.vecDisabled.Load()
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	name := func(fi fromItem) string {
		if generic {
			return "<table>"
		}
		return fi.Table
	}
	full := func(fi fromItem, t *table) string {
		if generic {
			return "<table> (full)"
		}
		return fmt.Sprintf("%s (full, %d rows)", fi.Table, t.nrows)
	}
	vec := false

	switch {
	case len(q.From) == 0:
		add("no table: single synthetic row")
	case len(q.From) == 1 && len(q.Joins) == 0:
		fi := q.From[0]
		t, ok := sn.table(fi.Table)
		if !ok {
			return nil, false, errorf("no such table %q", fi.Table)
		}
		if col, keys, ok := indexProbe(t, q.Where); ok && len(keys) > 1 {
			add("scan %s via hash index on %s (%d keys)", name(fi), col, len(keys))
		} else if ok {
			add("scan %s via hash index on %s", name(fi), col)
		} else {
			add("scan %s", full(fi, t))
		}
		// Report which execution path the compiled plan will take; the
		// same qualification (planVec) runs at plan time, so this is the
		// decision, not a guess.
		switch {
		case !vecOn || p.vec == nil:
			add("fused single pass: scan, filter, project/aggregate")
		case generic: // morsels and blocks are the table's, not the plan's
			vec = true
			add("fused single pass: batch scan, filter, aggregate [vectorized]")
		default:
			vec = true
			ms, err := t.morsels()
			if err != nil {
				return nil, false, err
			}
			add("fused single pass: batch scan, filter, aggregate [vectorized] [morsels=%d]", len(ms))
			if line := db.explainBlocks(t, p.vec, ms); line != "" {
				add("%s", line)
			}
		}
	default:
		// Track the accumulated left-side schema so the hash-join
		// report matches what join() will actually do: a condition
		// whose columns both land on one side (ON a.x = a.y) runs as
		// a nested loop, and EXPLAIN must say so.
		var acc Schema
		for _, fi := range q.From {
			t, ok := sn.table(fi.Table)
			if !ok {
				return nil, false, errorf("no such table %q", fi.Table)
			}
			add("scan %s", full(fi, t))
			s, err := sn.scanSchema(fi)
			if err != nil {
				return nil, false, err
			}
			acc = append(acc, s...)
		}
		if len(q.From) > 1 {
			add("cross join of %d tables", len(q.From))
		}
		// Same rule as the single-table branch: the plan carries the
		// vec-join decision, so EXPLAIN reports it rather than guessing.
		var jp *vecJoinPlan
		if vecOn && p.vecJoin != nil {
			jp, vec = p.vecJoin, true
		}
		for _, jc := range q.Joins {
			rs, err := sn.scanSchema(jc.Right)
			if err != nil {
				return nil, false, err
			}
			kind := "inner"
			if jc.Left {
				kind = "left outer"
			}
			if _, ok := hashJoinCols(jc.On, acc, rs); !ok {
				add("%s nested-loop join with %s", kind, name(jc.Right))
			} else if jp != nil {
				lt, lok := sn.table(jp.leftKey)
				rt, rok := sn.table(jp.rightKey)
				skip := 0
				if lok && rok {
					if skip, err = db.vecJoinBlockSkips(jp, lt, rt); err != nil {
						return nil, false, err
					}
				}
				add("%s hash join with %s [vec-join build=%d probe=%d bloom-skip=%d]",
					kind, name(jc.Right), rt.nrows, lt.nrows, skip)
			} else {
				add("%s hash join with %s", kind, name(jc.Right))
			}
			acc = append(acc, rs...)
		}
	}
	// Expression-mode labels: "compiled" when every reference resolves
	// against the source schema at plan time, "interpreted" when
	// resolution is deferred to evaluation (unknown or ambiguous
	// columns fall back to per-row errors).
	src, err := sn.selectSourceSchema(q)
	if err != nil {
		return nil, false, err
	}
	ec := newEvalCtx(src)
	mode := func(exprs ...sqlExpr) string {
		for _, e := range exprs {
			if e != nil && !ec.typed(e).resolved() {
				return "interpreted"
			}
		}
		return "compiled"
	}
	if q.Where != nil {
		add("filter rows (WHERE) [%s]", mode(q.Where))
	}
	var aggs []*aggExpr
	for _, it := range q.Items {
		if it.E != nil {
			collectAggs(it.E, &aggs)
		}
	}
	if q.Having != nil {
		collectAggs(q.Having, &aggs)
	}
	if len(q.GroupBy) > 0 || len(aggs) > 0 {
		for _, ob := range q.OrderBy {
			collectAggs(ob.E, &aggs)
		}
		add("aggregate %d function(s) over %d group key(s)", len(aggs), len(q.GroupBy))
	}
	if q.Having != nil {
		add("filter groups (HAVING) [%s]", mode(q.Having))
	}
	var items []sqlExpr
	for _, it := range q.Items {
		if !it.Star {
			items = append(items, it.E)
		}
	}
	add("project %d column(s) [%s]", len(q.Items), mode(items...))
	if q.Distinct {
		add("deduplicate rows (DISTINCT)")
	}
	if len(q.OrderBy) > 0 {
		if q.Limit >= 0 {
			add("sort by %d key(s) [topk k=%d]", len(q.OrderBy), q.Limit+q.Offset)
		} else {
			add("sort by %d key(s)", len(q.OrderBy))
		}
	}
	if q.Limit >= 0 || q.Offset > 0 {
		add("limit/offset")
	}
	return lines, vec, nil
}

// execExplain renders one plan line per step, followed by a
// concurrency trailer: the snapshot id the query would execute
// against, the versions of the referenced tables in that snapshot, and
// the WAL sync policy — so MVCC behaviour is observable from SQL.
func (db *DB) execExplain(sn *snapshot, st *ExplainStmt) (*Result, error) {
	q := st.Query
	var lines []string
	var err error
	if len(q.Union) > 0 {
		lines, err = db.explainUnion(sn, q)
	} else {
		p, _ := sn.planSelect(q) // the steps say what a statement without a plan fails at
		lines, _, err = db.explainBranch(sn, q, p, false)
	}
	if err != nil {
		return nil, err
	}
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	// Concurrency trailer.
	refs := referencedTables(q)
	sort.Strings(refs)
	var vb strings.Builder
	for i, v := range sn.schemaVers(refs) {
		if i > 0 {
			vb.WriteString(", ")
		}
		fmt.Fprintf(&vb, "%s@v%d", refs[i], v)
	}
	policy := "none (memory database)"
	if db.dir != "" {
		policy = db.policy.String()
	}
	rec := db.Recovery()
	add("role=%s pos=%s recovery[frames=%d stmts=%d torn=%v stale=%v]",
		db.Role(), db.Pos(), rec.Frames, rec.Statements, rec.TornTail, rec.StaleWAL)
	add("snapshot %d [%s] wal sync=%s", sn.id, vb.String(), policy)

	res := &Result{Columns: Schema{{Name: "plan", Type: value.String}}}
	for _, l := range lines {
		res.Rows = append(res.Rows, Row{value.NewString(l)})
	}
	return res, nil
}

// explainBlocks reports how the checkpoint's column blocks serve the
// vectorized scan of t, cut into ms: how many blocks it decodes and how
// many the plan's zone predicate prunes — the scan's own decision
// (vecPlan.prunes) over the scan's own morsels, asked of the zone maps
// alone, so a cold table stays cold — plus the dominant encoding of each
// column the plan reads. Empty when no chunk of the table is in a
// checkpoint.
func (db *DB) explainBlocks(t *table, vp *vecPlan, ms []morsel) string {
	zoneOn := !db.env.zoneOff.Load()
	scanned, skipped := 0, 0
	var chunks []*storeChunk
	for i := range ms {
		m := &ms[i]
		switch {
		case m.bi == wholeChunk:
			continue
		case vp.prunes(m, zoneOn):
			skipped++
		default:
			scanned++
		}
		if m.bi == 0 {
			chunks = append(chunks, m.ch.blocks.Load())
		}
	}
	if chunks == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "column blocks [blocks=%d/%d] enc", scanned, skipped)
	cols := append([]int(nil), vp.cols...)
	sort.Ints(cols)
	for _, ci := range cols {
		fmt.Fprintf(&b, " %s=%s", t.schema[ci].Name, dominantEnc(chunks, ci))
	}
	return b.String()
}
