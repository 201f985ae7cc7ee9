package sqldb

// Join agreement + determinism battery for the vectorized hash-join
// path (vecjoin.go). The row engine is the semantic reference: every
// query runs on a vectorized database and a SetVectorized(false) twin
// and the rendered results must match byte-for-byte — including NULL
// join keys, NaN float keys, LEFT padding, duplicate keys, and the
// shapes that must decline to the row path. Determinism: byte-identical
// output at workers 1/2/4/8 with the morsel-latency failpoint armed.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

// joinTestDBs builds the two-table join fixture on a vectorized
// database and a row-engine twin: an experiments catalog (build side)
// and a results table (probe side), with NULL keys, duplicate keys,
// NaN floats, and keys that miss the other side entirely.
func joinTestDBs(t *testing.T) (*DB, *DB) {
	t.Helper()
	setup := []string{
		"CREATE TABLE runs (rid integer, exp integer, metric float, tag string, ok boolean)",
		"CREATE TABLE exps (eid integer, name string, fkey float, weight integer)",
	}
	vdb, rdb := vecTestDBs(t, setup)
	rng := rand.New(rand.NewSource(42))
	var runs []Row
	for k := 0; k < 900; k++ {
		exp := value.NewInt(int64(rng.Intn(40))) // some miss the 0..29 build keys
		if k%13 == 0 {
			exp = value.Null(value.Integer)
		}
		f := float64(rng.Intn(16)) * 0.5
		if k%19 == 0 {
			f = math.NaN()
		}
		runs = append(runs, Row{
			value.NewInt(int64(k)),
			exp,
			value.NewFloat(f),
			value.NewString(fmt.Sprintf("t%02d", rng.Intn(8))),
			value.NewBool(k%3 == 0),
		})
	}
	var exps []Row
	for k := 0; k < 60; k++ {
		eid := value.NewInt(int64(k % 30)) // every key twice: duplicate buckets
		if k%11 == 0 {
			eid = value.Null(value.Integer)
		}
		f := float64(k%16) * 0.5
		if k%17 == 0 {
			f = math.NaN()
		}
		exps = append(exps, Row{
			eid,
			value.NewString(fmt.Sprintf("e%02d", k%7)),
			value.NewFloat(f),
			value.NewInt(int64(k * 3)),
		})
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("runs", []string{"rid", "exp", "metric", "tag", "ok"}, runs); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRows("exps", []string{"eid", "name", "fkey", "weight"}, exps); err != nil {
			t.Fatal(err)
		}
	}
	return vdb, rdb
}

var joinAgreementQueries = []string{
	// Plain INNER and LEFT equi-joins, both ON operand orders.
	"SELECT r.rid, e.name FROM runs r JOIN exps e ON r.exp = e.eid ORDER BY r.rid, e.weight",
	"SELECT r.rid, e.name FROM runs r JOIN exps e ON e.eid = r.exp ORDER BY r.rid, e.weight",
	"SELECT r.rid, e.eid, e.weight FROM runs r LEFT JOIN exps e ON r.exp = e.eid ORDER BY r.rid, e.weight",
	// Un-ordered projections: output order itself must be identical.
	"SELECT r.rid, e.weight FROM runs r JOIN exps e ON r.exp = e.eid",
	"SELECT r.rid, e.weight FROM runs r LEFT JOIN exps e ON r.exp = e.eid",
	// Float keys: NaN joins only NaN, -0.0 joins 0.0 (value.Compare).
	"SELECT r.rid, e.weight FROM runs r JOIN exps e ON r.metric = e.fkey",
	"SELECT r.rid, e.weight FROM runs r LEFT JOIN exps e ON r.metric = e.fkey",
	// String keys (dictionary-eligible low cardinality).
	"SELECT r.rid, e.weight FROM runs r JOIN exps e ON r.tag = e.name",
	"SELECT COUNT(*) FROM runs r LEFT JOIN exps e ON r.tag = e.name",
	// Pushed and unpushable WHERE clauses.
	"SELECT r.rid, e.weight FROM runs r JOIN exps e ON r.exp = e.eid WHERE r.rid < 100",
	"SELECT r.rid, e.weight FROM runs r LEFT JOIN exps e ON r.exp = e.eid WHERE r.rid BETWEEN 50 AND 150",
	"SELECT r.rid, e.weight FROM runs r JOIN exps e ON r.exp = e.eid WHERE e.weight > 60",
	"SELECT r.rid FROM runs r LEFT JOIN exps e ON r.exp = e.eid WHERE e.weight IS NULL ORDER BY r.rid",
	"SELECT COUNT(*) FROM runs r JOIN exps e ON r.exp = e.eid WHERE NOT (r.rid < 100)",
	// Join + GROUP BY: group key on either side, all kernel aggregates.
	"SELECT e.name, COUNT(*), SUM(r.rid), MIN(r.metric), MAX(r.metric) FROM runs r JOIN exps e ON r.exp = e.eid GROUP BY e.name ORDER BY e.name",
	"SELECT r.tag, COUNT(*), SUM(e.weight), AVG(e.weight) FROM runs r JOIN exps e ON r.exp = e.eid GROUP BY r.tag ORDER BY r.tag",
	"SELECT e.name, COUNT(*), COUNT(e.weight), SUM(e.weight) FROM runs r LEFT JOIN exps e ON r.exp = e.eid GROUP BY e.name ORDER BY e.name",
	"SELECT r.ok, COUNT(*), MIN(e.name), MAX(e.name) FROM runs r LEFT JOIN exps e ON r.exp = e.eid GROUP BY r.ok ORDER BY r.ok",
	"SELECT COUNT(*), SUM(r.rid), SUM(e.weight) FROM runs r JOIN exps e ON r.exp = e.eid",
	"SELECT COUNT(*), COUNT(e.weight) FROM runs r LEFT JOIN exps e ON r.exp = e.eid",
	"SELECT e.name, SUM(r.rid) FROM runs r JOIN exps e ON r.exp = e.eid GROUP BY e.name HAVING SUM(r.rid) > 1000 ORDER BY e.name",
	"SELECT e.name, COUNT(*) FROM runs r JOIN exps e ON r.exp = e.eid WHERE r.rid < 400 GROUP BY e.name ORDER BY e.name",
	// Grouped by a build-side column over a LEFT join whose probe rows
	// past weight 177 all miss: their pads form one run of NULL keys.
	"SELECT e.name, COUNT(*), COUNT(e.weight), SUM(r.rid) FROM runs r LEFT JOIN exps e ON r.rid = e.weight GROUP BY e.name ORDER BY e.name",
	// Join + ORDER BY/LIMIT/OFFSET tails.
	"SELECT r.rid, e.weight FROM runs r JOIN exps e ON r.exp = e.eid ORDER BY e.weight DESC, r.rid LIMIT 15",
	"SELECT r.rid, e.weight FROM runs r LEFT JOIN exps e ON r.exp = e.eid ORDER BY r.rid LIMIT 10 OFFSET 5",
	// Aggregates over an empty join result.
	"SELECT COUNT(*), SUM(e.weight) FROM runs r JOIN exps e ON r.exp = e.eid WHERE r.rid > 100000",
	"SELECT e.name, COUNT(*) FROM runs r JOIN exps e ON r.exp = e.eid WHERE r.rid > 100000 GROUP BY e.name",
	// Self-join: both sides read the same table.
	"SELECT COUNT(*) FROM exps a JOIN exps b ON a.eid = b.eid",
	"SELECT a.weight, b.weight FROM exps a LEFT JOIN exps b ON a.weight = b.weight ORDER BY a.weight, b.weight",
	// Shapes that decline — agreement still required: an Integer key
	// against a Float one and a same-side condition (nested loop) take
	// the row engine's join; DISTINCT and expression aggregates decline
	// only fusion, and the join materializes for the row loops.
	"SELECT COUNT(*) FROM runs r JOIN exps e ON r.exp = e.fkey",
	"SELECT COUNT(*) FROM runs r JOIN exps e ON r.exp = r.rid",
	"SELECT DISTINCT e.name FROM runs r JOIN exps e ON r.exp = e.eid ORDER BY e.name",
	"SELECT e.name, SUM(r.rid + 1) FROM runs r JOIN exps e ON r.exp = e.eid GROUP BY e.name ORDER BY e.name",
	"SELECT COUNT(DISTINCT e.name) FROM runs r JOIN exps e ON r.exp = e.eid",
}

// TestVecJoinRowAgreement runs the full join battery on the vectorized
// and row engines and requires byte-identical results.
func TestVecJoinRowAgreement(t *testing.T) {
	vdb, rdb := joinTestDBs(t)
	checkAgree(t, vdb, rdb, joinAgreementQueries)
}

// compositeJoinTestDBs builds the fixture of the key shapes beyond one
// Integer, Float or String column, on a vectorized database and a
// row-engine twin: a probe table pa and a build table pb sharing an op
// (String), chunk (Integer), flag (Boolean), ts (Timestamp) and ver
// (Version) column, NULLs in every key column of both sides, duplicate
// keys, and versions spelled '1.2', '1-2' and '01.2'.
func compositeJoinTestDBs(t *testing.T) (*DB, *DB) {
	t.Helper()
	setup := []string{
		"CREATE TABLE pa (op string, chunk integer, flag boolean, ts timestamp, ver version, x float)",
		"CREATE TABLE pb (op string, chunk integer, flag boolean, ts timestamp, ver version, w integer)",
	}
	vdb, rdb := vecTestDBs(t, setup)
	ops := []string{"write", "rewrite", "read"}
	vers := []string{"1.2", "1-2", "01.2", "1.10", "2"}
	row := func(k, n int, last value.Value) Row {
		r := Row{
			value.NewString(ops[k%len(ops)]),
			value.NewInt(int64(1024 << (k % 5))),
			value.NewBool(k%4 == 0),
			value.NewTimestampNano(int64(k%6) * 1e9),
			value.NewVersion(vers[k%len(vers)]),
			last,
		}
		if k%n < len(r)-1 { // one key column NULL in every n rows
			r[k%n] = value.Null(r[k%n].Type())
		}
		return r
	}
	var as, bs []Row
	for k := range 300 {
		as = append(as, row(k*7, 17, value.NewFloat(float64(k)/4)))
	}
	for k := range 40 {
		bs = append(bs, row(k, 13, value.NewInt(int64(k))))
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("pa", []string{"op", "chunk", "flag", "ts", "ver", "x"}, as); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRows("pb", []string{"op", "chunk", "flag", "ts", "ver", "w"}, bs); err != nil {
			t.Fatal(err)
		}
	}
	return vdb, rdb
}

// TestVecJoinCompositeKeys runs the shapes the vector join takes through
// the group index — the Fig. 8 relate's String plus Integer key, three
// keys, a two-key GROUP BY over a join (fused), a single Version,
// Boolean and Timestamp key — INNER and LEFT, and requires the planner to
// take every one and the row engine to answer the same.
func TestVecJoinCompositeKeys(t *testing.T) {
	vdb, rdb := compositeJoinTestDBs(t)
	var queries []string
	for _, kind := range []string{"JOIN", "LEFT JOIN"} {
		from := " FROM pa a " + kind + " pb b ON "
		queries = append(queries,
			"SELECT a.op, a.chunk, a.x, b.w"+from+"a.op = b.op AND a.chunk = b.chunk ORDER BY a.op, a.chunk, a.x, b.w",
			"SELECT a.op, a.chunk, a.x, b.w"+from+"a.op = b.op AND a.chunk = b.chunk",
			"SELECT a.x, b.w"+from+"b.chunk = a.chunk AND a.flag = b.flag AND a.op = b.op",
			"SELECT a.op, b.flag, COUNT(*), COUNT(b.w), SUM(b.w), MIN(a.x)"+from+"a.chunk = b.chunk GROUP BY a.op, b.flag ORDER BY a.op, b.flag",
			"SELECT a.x, a.ver, b.ver, b.w"+from+"a.ver = b.ver",
			"SELECT a.x, b.w"+from+"a.flag = b.flag",
			"SELECT a.x, a.ts, b.w"+from+"a.ts = b.ts",
		)
	}
	for _, sql := range queries {
		p, err := vdb.state.Load().planSelect(mustParseSelect(t, sql))
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if p.vecJoin == nil || p.vecJoin.fused != p.grouped {
			t.Errorf("%q: vector join %v, want it (fused when grouped)", sql, p.vecJoin != nil)
		}
	}
	checkAgree(t, vdb, rdb, queries)
}

// TestVecJoinEdgeShapes pins the edge fixtures the fuzzer rarely
// hits densely: an empty build side, an all-NULL key column, and an
// empty probe side — for INNER and LEFT both.
func TestVecJoinEdgeShapes(t *testing.T) {
	setup := []string{
		"CREATE TABLE p (k integer, v integer)",
		"CREATE TABLE bempty (k integer, w integer)",
		"CREATE TABLE bnull (k integer, w integer)",
	}
	vdb, rdb := vecTestDBs(t, setup)
	var prows, nrows []Row
	for i := 0; i < 200; i++ {
		prows = append(prows, Row{value.NewInt(int64(i % 50)), value.NewInt(int64(i))})
		nrows = append(nrows, Row{value.Null(value.Integer), value.NewInt(int64(i))})
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("p", []string{"k", "v"}, prows); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRows("bnull", []string{"k", "w"}, nrows); err != nil {
			t.Fatal(err)
		}
	}
	checkAgree(t, vdb, rdb, []string{
		"SELECT COUNT(*) FROM p JOIN bempty ON p.k = bempty.k",
		"SELECT p.v, bempty.w FROM p LEFT JOIN bempty ON p.k = bempty.k ORDER BY p.v",
		"SELECT COUNT(*) FROM p JOIN bnull ON p.k = bnull.k",
		"SELECT p.v, bnull.w FROM p LEFT JOIN bnull ON p.k = bnull.k ORDER BY p.v",
		"SELECT COUNT(*) FROM bempty b JOIN p ON b.k = p.k",
		"SELECT b.w FROM bempty b LEFT JOIN p ON b.k = p.k",
		"SELECT COUNT(*), SUM(bnull.w) FROM p LEFT JOIN bnull ON p.k = bnull.k",
	})
}

// TestVecJoinLeftPadding pins the exact LEFT-join pad shape: an
// unmatched probe row must carry typed NULLs for every build column.
func TestVecJoinLeftPadding(t *testing.T) {
	db := NewMemory()
	for _, sql := range []string{
		"CREATE TABLE a (k integer)",
		"CREATE TABLE b (k integer, s string, f float, ok boolean)",
		"INSERT INTO a VALUES (1), (2)",
		"INSERT INTO b VALUES (1, 'hit', 2.5, TRUE)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT a.k, b.k, b.s, b.f, b.ok FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.k")
	if err != nil {
		t.Fatal(err)
	}
	got := fmtResult(res)
	want := "1\t1\thit\t2.5\ttrue\n2\t\x00NULL\t\x00NULL\t\x00NULL\t\x00NULL\n"
	if got != want {
		// The NULL rendering depends on value.Null's String; compare
		// against the row engine instead of a literal if it differs.
		rdb := NewMemory()
		rdb.SetVectorized(false)
		for _, sql := range []string{
			"CREATE TABLE a (k integer)",
			"CREATE TABLE b (k integer, s string, f float, ok boolean)",
			"INSERT INTO a VALUES (1), (2)",
			"INSERT INTO b VALUES (1, 'hit', 2.5, TRUE)",
		} {
			if _, err := rdb.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		rres, err := rdb.Exec("SELECT a.k, b.k, b.s, b.f, b.ok FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.k")
		if err != nil {
			t.Fatal(err)
		}
		if rgot := fmtResult(rres); got != rgot {
			t.Fatalf("LEFT pad mismatch\nvec:\n%srow:\n%s", got, rgot)
		}
	}
}

// TestVecJoinDictStringKeys joins a large probe of very low string-key
// cardinality — few distinct keys, long repeats, NULLs — against a
// string-keyed build side with duplicate keys, vec vs row byte-identical.
func TestVecJoinDictStringKeys(t *testing.T) {
	setup := []string{
		"CREATE TABLE ev (name string, n integer)",
		"CREATE TABLE cat (name string, ord integer)",
	}
	vdb, rdb := vecTestDBs(t, setup)
	var evs []Row
	for i := 0; i < 2000; i++ {
		nm := value.NewString(fmt.Sprintf("k%d", i%9))
		if i%31 == 0 {
			nm = value.Null(value.String)
		}
		evs = append(evs, Row{nm, value.NewInt(int64(i))})
	}
	var cats []Row
	for i := 0; i < 12; i++ { // keys k0..k5 matched, k6.. miss, plus dups
		cats = append(cats, Row{value.NewString(fmt.Sprintf("k%d", i%6)), value.NewInt(int64(i))})
	}
	for _, db := range []*DB{vdb, rdb} {
		if _, err := db.InsertRows("ev", []string{"name", "n"}, evs); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRows("cat", []string{"name", "ord"}, cats); err != nil {
			t.Fatal(err)
		}
	}
	checkAgree(t, vdb, rdb, []string{
		"SELECT ev.n, cat.ord FROM ev JOIN cat ON ev.name = cat.name",
		"SELECT ev.n, cat.ord FROM ev LEFT JOIN cat ON ev.name = cat.name",
		"SELECT cat.ord, COUNT(*) FROM ev JOIN cat ON ev.name = cat.name GROUP BY cat.ord ORDER BY cat.ord",
	})
}

// TestVecJoinMorselDeterminism requires byte-identical join output at
// every worker count on a probe large enough to engage the parallel
// path, with the morsel-latency failpoint perturbing the scheduling.
func TestVecJoinMorselDeterminism(t *testing.T) {
	if err := failpoint.Enable("sqldb/vector/morsel", "sleep(100us)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	db := NewMemory()
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, g string, v integer)",
		"CREATE TABLE build (k integer, w integer)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var prows []Row
	for i := 0; i < 3*vecParallelMinRows; i++ {
		k := value.NewInt(int64(i % 4000))
		if i%29 == 0 {
			k = value.Null(value.Integer)
		}
		prows = append(prows, Row{k, value.NewString(fmt.Sprintf("g%d", i%23)), value.NewInt(int64(i))})
	}
	var brows []Row
	for i := 0; i < 3000; i++ {
		brows = append(brows, Row{value.NewInt(int64(i % 1500)), value.NewInt(int64(i))})
	}
	if _, err := db.InsertRows("probe", []string{"k", "g", "v"}, prows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("build", []string{"k", "w"}, brows); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT probe.v, build.w FROM probe JOIN build ON probe.k = build.k",
		"SELECT probe.v, build.w FROM probe LEFT JOIN build ON probe.k = build.k",
		"SELECT probe.g, COUNT(*), SUM(build.w) FROM probe JOIN build ON probe.k = build.k GROUP BY probe.g ORDER BY probe.g",
		"SELECT probe.g, COUNT(*), COUNT(build.w) FROM probe LEFT JOIN build ON probe.k = build.k GROUP BY probe.g ORDER BY probe.g",
	}
	var want []string
	db.SetScanWorkers(1)
	for _, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmtResult(res))
	}
	for _, workers := range []int{2, 4, 8} {
		db.SetScanWorkers(workers)
		for i, q := range queries {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmtResult(res); got != want[i] {
				t.Errorf("workers=%d: %q differs from single-worker result", workers, q)
			}
		}
	}
}

// TestVecJoinConcurrentReaders stress-runs joins from many readers
// while bulk imports publish new snapshots of both tables — the -race
// CI job runs this with the detector on.
func TestVecJoinConcurrentReaders(t *testing.T) {
	db := NewMemory()
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, v integer)",
		"CREATE TABLE build (k integer, w integer)",
		"INSERT INTO build VALUES (0, 0), (1, 10), (2, 20)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	db.SetScanWorkers(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Exec("SELECT probe.v, build.w FROM probe JOIN build ON probe.k = build.k"); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Exec("SELECT COUNT(*), SUM(build.w) FROM probe LEFT JOIN build ON probe.k = build.k"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		var prows, brows []Row
		for i := 0; i < 500; i++ {
			prows = append(prows, Row{value.NewInt(int64(i % 7)), value.NewInt(int64(round*1000 + i))})
		}
		for i := 0; i < 50; i++ {
			brows = append(brows, Row{value.NewInt(int64(i % 5)), value.NewInt(int64(round*100 + i))})
		}
		if _, err := db.InsertRows("probe", []string{"k", "v"}, prows); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRows("build", []string{"k", "w"}, brows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestVecJoinColdProbeBlockSkip is the acceptance check for the
// Bloom/min-max pushdown into the block scan: on a checkpointed,
// cache-cold probe table whose key column increases monotonically, a
// build side covering only the low key range must leave most probe
// blocks compressed — ≥ 50% skipped, reported via BlockStats — while
// returning byte-identical results to the zone-disabled run.
func TestVecJoinColdProbeBlockSkip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, v integer)",
		"CREATE TABLE build (k integer, w integer)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	const nblocks = 8
	var prows []Row
	for i := 0; i < nblocks*vecMorselRows; i++ {
		prows = append(prows, Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100))})
	}
	// Build keys cover only the first two blocks' key range.
	var brows []Row
	for i := 0; i < 1000; i++ {
		brows = append(brows, Row{value.NewInt(int64(i % (2 * vecMorselRows))), value.NewInt(int64(i))})
	}
	if _, err := db.InsertRows("probe", []string{"k", "v"}, prows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("build", []string{"k", "w"}, brows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.ColumnCacheLimit(0) // every probe block read is a cold decode

	queries := []string{
		"SELECT COUNT(*), SUM(probe.v), SUM(build.w) FROM probe JOIN build ON probe.k = build.k",
		"SELECT probe.v, build.w FROM probe JOIN build ON probe.k = build.k ORDER BY probe.k, build.w LIMIT 25",
	}
	s0, k0 := db.BlockStats()
	var withZone []string
	for _, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		withZone = append(withZone, fmtResult(res))
	}
	s1, k1 := db.BlockStats()
	scanned, skipped := s1-s0, k1-k0
	if scanned == 0 {
		t.Fatal("cold join probe never decoded a block")
	}
	if skipped*2 < (scanned+skipped)*1 || skipped == 0 {
		t.Errorf("bloom/zone pushdown skipped %d of %d probe blocks, want >= 50%%",
			skipped, scanned+skipped)
	}

	db.SetZoneMaps(false)
	for i, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmtResult(res); got != withZone[i] {
			t.Errorf("%q: zone-disabled run differs from pushdown run\nwith:\n%swithout:\n%s",
				q, withZone[i], got)
		}
	}
	s2, k2 := db.BlockStats()
	if k2 != k1 {
		t.Errorf("zone-disabled run skipped %d blocks, want 0", k2-k1)
	}
	if s2-s1 <= int64(scanned) {
		t.Errorf("zone-disabled run decoded %d blocks, want more than the pushdown run's %d",
			s2-s1, scanned)
	}
}

// TestPrunedColdJoinProbeStaysCold is TestPrunedColdScanStaysCold for the
// vectorized join's probe side: on a freshly opened database, a probe
// table whose every block the pushed WHERE clause or the semi-join
// filter prunes is answered for from its meta segment, and only the
// build side hydrates.
func TestPrunedColdJoinProbeStaysCold(t *testing.T) {
	const nblocks = 8
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE probe (k integer, v integer)")
	mustExec(t, db, "CREATE TABLE build (k integer, w integer)")
	var prows, brows []Row
	for i := 0; i < nblocks*vecMorselRows; i++ {
		prows = append(prows, Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100))})
	}
	for i := 0; i < 100; i++ { // keys above every probe key
		brows = append(brows, Row{value.NewInt(int64(10*nblocks*vecMorselRows + i)), value.NewInt(int64(i))})
	}
	if _, err := db.InsertRows("probe", []string{"k", "v"}, prows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("build", []string{"k", "w"}, brows); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// The WHERE clause, pushed below the join, prunes every block.
		"SELECT COUNT(*), SUM(probe.v) FROM probe LEFT JOIN build ON probe.k = build.k WHERE probe.k < 0",
		// No probe key can find a build key.
		"SELECT COUNT(*), SUM(build.w) FROM probe JOIN build ON probe.k = build.k",
		"SELECT probe.v, build.w FROM probe JOIN build ON probe.k = build.k",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = fmtResult(mustExec(t, db, q))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i, q := range queries {
		s0, k0 := db.BlockStats()
		if got := fmtResult(mustExec(t, db, q)); got != want[i] {
			t.Errorf("%s:\n%swant:\n%s", q, got, want[i])
		}
		if s1, k1 := db.BlockStats(); s1-s0 != 0 || k1-k0 != nblocks {
			t.Errorf("%s decoded %d probe blocks and skipped %d, want 0/%d", q, s1-s0, k1-k0, nblocks)
		}
	}
	if probe, _ := db.state.Load().table("probe"); !probe.isCold() {
		t.Error("a probe side whose every block was pruned hydrated")
	}
	if n := db.env.hydrated.Load(); n != 1 {
		t.Errorf("%d tables hydrated, want only the build side", n)
	}
}

// TestVecJoinLeftColdPadAll checks the LEFT-join fast pad: a cold
// probe block whose key range provably misses the build side emits
// pads without decoding when no filter is pushed.
func TestVecJoinLeftColdPadAll(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, v integer, g integer)",
		"CREATE TABLE build (k integer, w integer)",
		"INSERT INTO build VALUES (1, 100), (2, 200)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var prows []Row
	for i := 0; i < 4*vecMorselRows; i++ {
		prows = append(prows, Row{value.NewInt(int64(i)), value.NewInt(int64(i)), value.NewInt(int64(i % 8))})
	}
	if _, err := db.InsertRows("probe", []string{"k", "v", "g"}, prows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.ColumnCacheLimit(0)

	rdb := NewMemory()
	rdb.SetVectorized(false)
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, v integer, g integer)",
		"CREATE TABLE build (k integer, w integer)",
		"INSERT INTO build VALUES (1, 100), (2, 200)",
	} {
		if _, err := rdb.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rdb.InsertRows("probe", []string{"k", "v", "g"}, prows); err != nil {
		t.Fatal(err)
	}

	q := "SELECT COUNT(*), COUNT(build.w), SUM(build.w) FROM probe LEFT JOIN build ON probe.k = build.k"
	s0, k0 := db.BlockStats()
	checkAgree(t, db, rdb, []string{q})
	s1, k1 := db.BlockStats()
	if k1-k0 == 0 {
		t.Errorf("LEFT cold pad decoded all blocks (scanned %d, skipped 0); key zone check never fired", s1-s0)
	}

	// Regression: when fused aggregation reads probe-side vectors (the
	// group key lives on the probe table), the pad-without-decoding
	// fast path must stand down — pad rows still feed the group-key
	// kernel, which needs the decoded column. This used to index a nil
	// vector slice.
	checkAgree(t, db, rdb, []string{
		"SELECT probe.g, COUNT(*), COUNT(build.w), SUM(build.w) FROM probe LEFT JOIN build ON probe.k = build.k GROUP BY probe.g ORDER BY probe.g",
		"SELECT probe.g, SUM(probe.v) FROM probe LEFT JOIN build ON probe.k = build.k GROUP BY probe.g ORDER BY probe.g",
	})
}

// TestExplainVecJoin checks the plan report: a qualifying join carries
// the [vec-join build=N probe=M bloom-skip=K] label, with the skip
// count reflecting the block-level pushdown on a checkpointed probe.
func TestExplainVecJoin(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithPolicy(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE probe (k integer, v integer)",
		"CREATE TABLE build (k integer, w integer)",
		"INSERT INTO build VALUES (1, 100), (2, 200), (3, 300)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var prows []Row
	for i := 0; i < 4*vecMorselRows; i++ {
		prows = append(prows, Row{value.NewInt(int64(i)), value.NewInt(int64(i))})
	}
	if _, err := db.InsertRows("probe", []string{"k", "v"}, prows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	plan := func(sql string) string {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return fmtResult(res)
	}
	got := plan("EXPLAIN SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k")
	want := fmt.Sprintf("[vec-join build=3 probe=%d bloom-skip=3]", 4*vecMorselRows)
	if !containsLine(got, want) {
		t.Errorf("EXPLAIN missing %q:\n%s", want, got)
	}
	// Two keys run on the vector join as one does.
	got = plan("EXPLAIN SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k AND probe.v = build.w")
	if !containsLine(got, "[vec-join") {
		t.Errorf("two-key EXPLAIN carries no vec-join label:\n%s", got)
	}
	// A nested-loop shape must not carry the label.
	got = plan("EXPLAIN SELECT COUNT(*) FROM probe JOIN build ON probe.k = probe.v")
	if containsLine(got, "[vec-join") {
		t.Errorf("nested-loop EXPLAIN carries a vec-join label:\n%s", got)
	}
	// With vectorization off the label must disappear.
	db.SetVectorized(false)
	got = plan("EXPLAIN SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k")
	if containsLine(got, "[vec-join") {
		t.Errorf("vec-disabled EXPLAIN still carries a vec-join label:\n%s", got)
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
