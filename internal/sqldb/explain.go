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

// explainUnion renders a compound select: a header with the branch
// count, then the steps of each distinct branch shape once — branches
// whose steps differ only in table names and row counts share a shape
// — headed by how many branches have it and the path (vector or row)
// they run on.
func (db *DB) explainUnion(sn *snapshot, q *SelectStmt) ([]string, error) {
	type shape struct {
		path     string
		steps    []string
		first    int
		branches int
	}
	var shapes []*shape
	byKey := map[string]*shape{}
	for bi, b := range q.Union {
		steps, vec, err := db.explainBranch(sn, b, true)
		if err != nil {
			return nil, err
		}
		path := "row path"
		if vec {
			path = "vector path"
		}
		key := path + "\n" + strings.Join(steps, "\n")
		sh := byKey[key]
		if sh == nil {
			sh = &shape{path: path, steps: steps, first: bi + 1}
			byKey[key] = sh
			shapes = append(shapes, sh)
		}
		sh.branches++
	}
	lines := []string{fmt.Sprintf("UNION ALL (%d branches)", len(q.Union))}
	for _, sh := range shapes {
		lines = append(lines, fmt.Sprintf("%d branch(es) like branch %d [%s]:", sh.branches, sh.first, sh.path))
		for _, l := range sh.steps {
			lines = append(lines, "  "+l)
		}
	}
	return lines, nil
}

// explainBranch renders the steps of one plain SELECT and reports
// whether it runs on the vectorized path. With generic set, table
// names and row counts are left out, so that branches of one shape
// render alike.
func (db *DB) explainBranch(sn *snapshot, q *SelectStmt, generic bool) ([]string, bool, error) {
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
		if col, ok := sn.explainIndexProbe(fi, q.Where); ok {
			add("scan %s via hash index on %s", name(fi), col)
		} else {
			add("scan %s", full(fi, t))
		}
		// Report which execution path the compiled plan will take; the
		// same qualification (planVec) runs at plan time, so this is the
		// decision, not a guess.
		if p, err := sn.planSelect(q); err == nil && p.vec != nil && db.env != nil && !db.env.vecDisabled.Load() {
			vec = true
			add("fused single pass: batch scan, filter, aggregate [vectorized] [morsels=%d]", vecMorselCount(t))
			line, err := db.explainBlocks(t, p.vec)
			if err != nil {
				return nil, false, err
			}
			if line != "" {
				add("%s", line)
			}
		}
		if !vec {
			add("fused single pass: scan, filter, project/aggregate")
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
		if p, err := sn.planSelect(q); err == nil && p.vecJoin != nil && db.env != nil && !db.env.vecDisabled.Load() {
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
			if _, _, ok := hashJoinCols(jc.On, acc, rs); !ok {
				add("%s nested-loop join with %s", kind, name(jc.Right))
			} else if jp != nil {
				lt, lok := sn.table(jp.leftKey)
				rt, rok := sn.table(jp.rightKey)
				skip := 0
				if lok && rok {
					if skip, _, err = db.vecJoinBlockSkips(sn, jp, lt, rt); err != nil {
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
			if e != nil && !resolvable(e, ec) {
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
		lines, _, err = db.explainBranch(sn, q, false)
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
	if db.wal != nil {
		policy = db.wal.policy.String()
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

// explainBlocks reports how the checkpoint's column blocks would serve
// the vectorized scan: how many blocks would be decoded vs pruned by the
// plan's zone predicate (evaluated statically against the zone maps, no
// data touched — a cold table stays cold), plus the dominant encoding of
// each column the plan reads. Empty when no chunk of the table is
// block-resident.
func (db *DB) explainBlocks(t *table, vp *vecPlan) (string, error) {
	chunks, err := db.env.tableBlocks(t)
	if err != nil || len(chunks) == 0 {
		return "", err
	}
	zoneOn := vp.zone != nil && !db.env.zoneOff.Load()
	scanned, skipped := 0, 0
	for _, sc := range chunks {
		for lo := 0; lo < sc.rows; lo += vecMorselRows {
			bi, nrows := lo/vecMorselRows, min(vecMorselRows, sc.rows-lo)
			if zoneOn && vp.zone(func(ci int) *blockMeta { return sc.block(ci, bi, nrows) }) {
				skipped++
				continue
			}
			scanned++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "column blocks [blocks=%d/%d] enc", scanned, skipped)
	cols := append([]int(nil), vp.cols...)
	sort.Ints(cols)
	for _, ci := range cols {
		fmt.Fprintf(&b, " %s=%s", t.schema[ci].Name, dominantEnc(chunks, ci))
	}
	return b.String(), nil
}

// explainIndexProbe mirrors indexedScan's decision without touching
// rows, returning the probed column.
func (sn *snapshot) explainIndexProbe(fi fromItem, where sqlExpr) (string, bool) {
	t, ok := sn.table(fi.Table)
	if !ok || where == nil || !t.indexed() {
		return "", false
	}
	cands := map[string]value.Value{}
	equalityCandidates(where, cands)
	for col := range cands {
		if t.hasIndex(col) && t.schema.Index(col) >= 0 {
			return col, true
		}
	}
	return "", false
}
