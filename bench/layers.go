package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perfbase"
	"perfbase/internal/beffio"
	"perfbase/internal/query"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; the ones a workload does not
// exercise are 0. BENCHMARK.json carries the same list (smoke_test.go
// compares them) and README.md says which end-to-end metric each one
// should move.
var layerUnits = map[string]string{
	"harness.calib_ms":       "ms",
	"harness.speed":          "ratio",
	"harness.raw_ops_per_s":  "1/s",
	"harness.raw_op_p50_ms":  "ms",
	"harness.raw_op_tail_ms": "ms",
	"harness.round_spread":   "ratio",
	"harness.trace_overhead": "ratio",
	"harness.trace_gap":      "ratio",

	"runtime.cpu_ms_per_op":      "ms",
	"runtime.gc_cycles_per_op":   "count",
	"runtime.gc_pause_ms_per_op": "ms",

	"pbxml.parse_input_us": "us",
	"pbxml.parse_query_us": "us",

	"input.new_importer_us":    "us",
	"input.self_ms_per_file":   "ms",
	"input.mb_per_s":           "MB/s",
	"input.bigfile_rows_per_s": "1/s",

	"core.stmts_per_import":    "count",
	"core.open_experiment_us":  "us",
	"core.claim_run_us":        "us",
	"core.dup_check_us":        "us",
	"core.import_growth_ratio": "ratio",

	"sqldb.exec_ms_per_op":          "ms",
	"sqldb.create_table_us":         "us",
	"sqldb.create_as_us":            "us",
	"sqldb.insert_values_us":        "us",
	"sqldb.insert_select_us":        "us",
	"sqldb.select_us":               "us",
	"sqldb.update_us":               "us",
	"sqldb.drop_us":                 "us",
	"sqldb.insert_select_per_query": "count",
	"sqldb.bulk_rows_per_s":         "1/s",
	"sqldb.wal_bytes_per_op":        "B",
	"sqldb.wal_syncs_per_op":        "count",
	"sqldb.open_ms":                 "ms",
	"sqldb.close_ms":                "ms",
	"sqldb.blocks_scanned_per_op":   "count",
	"sqldb.blocks_skipped_per_op":   "count",
	"sqldb.snapshot_bytes":          "B",
	"sqldb.block_bytes":             "B",
	"sqldb.tables":                  "count",
	"sqldb.wal_replay_ms":           "ms",

	"wire.round_trips_per_op": "count",
	"wire.rtt_us":             "us",
	"wire.bytes_up_per_op":    "B",
	"wire.bytes_down_per_op":  "B",
	"wire.result_mb_per_s":    "MB/s",
	"wire.import_ms":          "ms",
	"wire.query_ms":           "ms",

	"query.source_ms":       "ms",
	"query.operator_ms":     "ms",
	"query.combiner_ms":     "ms",
	"query.output_ms":       "ms",
	"query.source_fraction": "ratio",
	"query.stmts_per_query": "count",
	"query.self_ms":         "ms",
	"query.build_plan_us":   "us",
	"parquery.seq_ms":       "ms",
	"parquery.local_w2_ms":  "ms",
	"parquery.tcp_w2_ms":    "ms",
	"output.render_ms":      "ms",
	"output.write_ms":       "ms",
	"output.bytes_per_op":   "B",
}

// maxTraceGap is the share of op wall time the spans may leave
// unaccounted: below it the per-layer self times add up to the op.
const maxTraceGap = 0.05

// agg sums spans of one kind.
type agg struct {
	n     int
	dur   time.Duration
	self  time.Duration
	rows  int
	bytes int
}

func (a agg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return us(a.dur) / float64(a.n)
}

func (a agg) meanMs() float64 { return a.meanUs() / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanStats is the digest of a trace the metrics are computed from.
type spanStats struct {
	ops      int
	opWall   time.Duration
	gap      time.Duration // op time no layer span covers
	byName   map[string]agg
	byClass  map[string]agg // database calls
	dbAll    agg
	wireAll  agg // database calls that crossed the wire
	inImport agg // database calls below perfbase.import
	inQuery  agg // database calls below perfbase.query
	insSelQ  int // INSERT…SELECT below perfbase.query
	claim    time.Duration
	dupCheck time.Duration
	facade   map[string][]time.Duration // perfbase.import / perfbase.query durations
}

// digest computes self times (a span minus what its children cover; a
// client's calls do not overlap, so that is the sum of the children)
// and groups them.
func digest(spans []span) spanStats {
	st := spanStats{byName: map[string]agg{}, byClass: map[string]agg{}, facade: map[string][]time.Duration{}}
	childSum := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		childSum[s.Parent] += time.Duration(s.End - s.Start)
	}
	// facadeOf[id] is the perfbase.* span a span lies below, if any.
	facadeOf := make([]string, len(spans)+1)
	for _, s := range spans { // parents precede children
		switch {
		case strings.HasPrefix(s.Name, "perfbase."):
			facadeOf[s.ID] = s.Name
		default:
			facadeOf[s.ID] = facadeOf[s.Parent]
		}
	}
	for _, s := range spans {
		if s.Op == 0 {
			// Outside ops (a round's own open and close) only the
			// storage spans are of interest.
			if s.Name != "sqldb.open" && s.Name != "sqldb.close" {
				continue
			}
		}
		d := time.Duration(s.End - s.Start)
		self := d - childSum[s.ID]
		a := st.byName[s.Name]
		a.n++
		a.dur += d
		a.self += self
		a.rows += s.Rows
		a.bytes += s.Bytes
		st.byName[s.Name] = a
		switch {
		case s.Name == "op":
			st.ops++
			st.opWall += d
			st.gap += self
		case strings.HasPrefix(s.Name, "perfbase."):
			st.gap += self
			st.facade[s.Name] = append(st.facade[s.Name], d)
		case s.Class != "":
			c := st.byClass[s.Class]
			c.n++
			c.dur += d
			c.rows += s.Rows
			st.byClass[s.Class] = c
			st.dbAll.n++
			st.dbAll.dur += d
			if s.Name == "wire.exec" {
				st.wireAll.n++
				st.wireAll.dur += d
			}
			switch facadeOf[s.ID] {
			case "perfbase.import":
				st.inImport.n++
				if s.Class == "create_table" || strings.Contains(s.Stmt, "MAX(run_id)") {
					st.claim += d
				}
				if strings.Contains(s.Stmt, "checksum") && s.Class == "select" {
					st.dupCheck += d
				}
			case "perfbase.query":
				st.inQuery.n++
				if s.Class == "insert_select" {
					st.insSelQ++
				}
			}
		}
	}
	return st
}

// layerMetrics turns a traced phase into the per-layer numbers.
func layerMetrics(tr *tracer, ph, ref *phase, cnt dbCounters, up, down int64) map[string]float64 {
	st := digest(tr.spans)
	ops := float64(st.ops)
	m := map[string]float64{}
	per := func(x float64) float64 { return ratio(x, ops) }

	m["harness.speed"] = ref.median(func(r roundStat) float64 { return r.speed })
	m["harness.calib_ms"] = ms(refKernelNominal) / m["harness.speed"]
	m["harness.raw_ops_per_s"] = ref.rawOpsPerS()
	m["harness.raw_op_p50_ms"] = ref.rawP50()
	m["harness.raw_op_tail_ms"] = ref.rawTail()
	m["harness.round_spread"] = ref.roundSpread()
	m["harness.trace_overhead"] = ratio(ph.p50(), ref.p50())
	m["harness.trace_gap"] = ratio(float64(st.gap), float64(st.opWall))

	m["runtime.cpu_ms_per_op"] = per(ms(ph.cpu))
	m["runtime.gc_cycles_per_op"] = per(float64(ph.gcCycles))
	m["runtime.gc_pause_ms_per_op"] = per(ms(ph.gcPause))

	m["pbxml.parse_input_us"] = st.byName["pbxml.parse_input"].meanUs()
	m["pbxml.parse_query_us"] = st.byName["pbxml.parse_query"].meanUs()

	imp := st.byName["input.import"]
	imports := float64(imp.n)
	m["input.new_importer_us"] = st.byName["input.new_importer"].meanUs()
	m["input.self_ms_per_file"] = ratio(ms(imp.self), imports)
	m["input.mb_per_s"] = ratio(float64(imp.bytes)/1e6, imp.dur.Seconds())

	m["core.stmts_per_import"] = ratio(float64(st.inImport.n), imports)
	m["core.open_experiment_us"] = st.byName["core.open_experiment"].meanUs()
	m["core.claim_run_us"] = ratio(us(st.claim), imports)
	m["core.dup_check_us"] = ratio(us(st.dupCheck), imports)

	m["sqldb.exec_ms_per_op"] = per(ms(st.dbAll.dur))
	for _, class := range []string{"create_table", "create_as", "insert_values", "insert_select", "select", "update", "drop"} {
		m["sqldb."+class+"_us"] = st.byClass[class].meanUs()
	}
	queries := float64(tr.queries)
	m["sqldb.insert_select_per_query"] = ratio(float64(st.insSelQ), queries)
	var bulk agg
	for _, class := range []string{"insert_select", "create_as", "bulk"} {
		bulk.rows += st.byClass[class].rows
		bulk.dur += st.byClass[class].dur
	}
	m["sqldb.bulk_rows_per_s"] = ratio(float64(bulk.rows), bulk.dur.Seconds())
	m["sqldb.wal_bytes_per_op"] = per(float64(cnt.walBytes))
	m["sqldb.wal_syncs_per_op"] = per(float64(cnt.walSyncs))
	m["sqldb.open_ms"] = st.byName["sqldb.open"].meanMs()
	m["sqldb.close_ms"] = st.byName["sqldb.close"].meanMs()
	m["sqldb.blocks_scanned_per_op"] = per(float64(cnt.blocksScanned))
	m["sqldb.blocks_skipped_per_op"] = per(float64(cnt.blocksSkipped))

	m["wire.round_trips_per_op"] = per(float64(st.wireAll.n))
	m["wire.bytes_up_per_op"] = per(float64(up))
	m["wire.bytes_down_per_op"] = per(float64(down))
	if st.wireAll.n > 0 {
		m["wire.import_ms"] = ms(percentile(st.facade["perfbase.import"], 50))
		m["wire.query_ms"] = ms(percentile(st.facade["perfbase.query"], 50))
	}

	var elemSum time.Duration
	for _, d := range tr.profile {
		elemSum += d
	}
	for kind, name := range map[query.ElemKind]string{query.KindSource: "source", query.KindOperator: "operator",
		query.KindCombiner: "combiner", query.KindOutput: "output"} {
		m["query."+name+"_ms"] = ratio(ms(tr.profile[kind]), queries)
	}
	m["query.source_fraction"] = ratio(float64(tr.profile[query.KindSource]), float64(elemSum))
	m["query.stmts_per_query"] = ratio(float64(st.inQuery.n), queries)
	m["query.self_ms"] = ratio(ms(st.byName["query.run"].self+st.byName["query.build_plan"].self), queries)
	m["query.build_plan_us"] = st.byName["query.build_plan"].meanUs()

	m["output.render_ms"] = st.byName["output.render"].meanMs()
	m["output.write_ms"] = st.byName["output.write"].meanMs()
	m["output.bytes_per_op"] = per(float64(st.byName["output.write"].bytes))
	return m
}

// Workloads may add probes to the traced run: a live one needs the
// running database, a closed one the directory that finish left behind.
type (
	liveProber interface {
		probeLive(m map[string]float64) error
	}
	closedProber interface {
		probeClosed(m map[string]float64) error
	}
)

// runTraced runs the workload once more with the stack assembled around
// the tracing Querier and reports the per-layer metrics. One untraced
// round first gives the reference for the tracing overhead.
func runTraced(name string, e env, seconds float64, tracePath string, logf func(string, ...any)) (*outcome, error) {
	start := time.Now()
	w, _, err := setUp(name, e, 1, logf)
	if err != nil {
		return nil, err
	}
	b := w.common()
	var ref phase
	if err := ref.runFor(w, 0, e.sc.minRounds); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	tr := newTracer()
	var px *proxy
	if sm, ok := w.(*serverMixed); ok {
		if px, err = startProxy(sm.addr); err != nil {
			return nil, err
		}
		defer px.close()
		sm.addr = px.addr()
		tr.watch(sm.db)
	}
	stacks := make([]stack, len(b.clients))
	for i := range stacks {
		stacks[i] = &tracedStack{t: tr}
	}
	if err := w.attach(stacks); err != nil {
		return nil, err
	}
	var warm phase
	if err := warm.runRound(w); err != nil {
		return nil, fmt.Errorf("%s: traced warm-up: %w", name, err)
	}
	tr.reset()
	cnt0 := tr.counters()
	var up0, down0 int64
	if px != nil {
		up0, down0 = px.up.Load(), px.down.Load()
	}
	var ph phase
	left := time.Duration(seconds*float64(time.Second)) - time.Since(start)
	if err := ph.runFor(w, left, 1); err != nil {
		return nil, fmt.Errorf("%s: traced: %w", name, err)
	}
	cnt := tr.counters().minus(cnt0)
	var up, down int64
	if px != nil {
		up, down = px.up.Load()-up0, px.down.Load()-down0
	}
	m := layerMetrics(tr, &ph, &ref, cnt, up, down)
	if ig, ok := w.(*importGrow); ok {
		m["core.import_growth_ratio"] = growthRatio(ref.lat[:len(ig.corpus.files)])
	}

	if pr, ok := w.(liveProber); ok {
		if err := pr.probeLive(m); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", name, err)
		}
	}
	if err := w.finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := storageSizes(b.dbDir, m); err != nil {
		return nil, err
	}
	if pr, ok := w.(closedProber); ok {
		if err := pr.probeClosed(m); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", name, err)
		}
	}
	if err := tr.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	logf("%s: traced %d rounds, %d ops, %d spans → %s", name, len(ph.rounds), ph.ops, len(tr.spans), tracePath)

	failed := ref.failed + warm.failed + ph.failed
	gapOK := m["harness.trace_gap"] <= maxTraceGap
	if !gapOK {
		logf("%s: spans leave %.1f%% of op time unaccounted (limit %.0f%%)", name,
			100*m["harness.trace_gap"], 100*maxTraceGap)
	}
	res := &outcome{
		Correct:   failed == 0 && b.checksBad == 0 && gapOK,
		Attempted: ref.ops + warm.ops + ph.ops,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for n, unit := range layerUnits {
		res.Metrics[n] = metric{m[n], unit}
	}
	for n := range m {
		if _, ok := layerUnits[n]; !ok {
			return nil, fmt.Errorf("metric %s has no unit", n)
		}
	}
	return res, nil
}

// growthRatio is the median latency of the last tenth of a round's
// imports over that of the first tenth: how much an import slows down
// as the experiment fills.
func growthRatio(lat []time.Duration) float64 {
	tenth := max(1, len(lat)/10)
	return ratio(float64(percentile(lat[len(lat)-tenth:], 50)), float64(percentile(lat[:tenth], 50)))
}

// storageSizes reads what the final checkpoint left in dir.
func storageSizes(dir string, m map[string]float64) error {
	for file, name := range map[string]string{"snapshot.gob": "sqldb.snapshot_bytes", "columns.blk": "sqldb.block_bytes"} {
		if fi, err := os.Stat(filepath.Join(dir, file)); err == nil {
			m[name] = float64(fi.Size())
		}
	}
	db, err := sqldb.Open(dir)
	if err != nil {
		return err
	}
	m["sqldb.tables"] = float64(len(db.Tables()))
	return db.Close()
}

// ------------------------------------------------------------- probes

// import_grow: how long recovery replays the WAL a third of a round
// leaves behind when the process dies before any checkpoint.
func (w *importGrow) probeClosed(m map[string]float64) error {
	dir := filepath.Join(w.dir, "crash-db")
	st := &tracedStack{t: newTracer()}
	s, err := st.OpenDir(dir)
	if err != nil {
		return err
	}
	if err := s.Setup(beffio.ExperimentXML); err != nil {
		return err
	}
	for _, f := range w.corpus.files[:len(w.corpus.files)/3] {
		if err := s.Import(beffExp, beffio.InputXML, f); err != nil {
			return err
		}
	}
	s.(*tracedSession).db.Crash()
	t0 := time.Now()
	db, err := sqldb.Open(dir)
	if err != nil {
		return err
	}
	m["sqldb.wal_replay_ms"] = ms(time.Since(t0))
	if got := db.Recovery().Frames; got == 0 {
		return fmt.Errorf("recovery replayed no WAL frame")
	}
	return db.Close()
}

// sweepSpec is a query eight sources wide: both techniques for four
// access types on one file system.
func sweepSpec() string {
	var sb strings.Builder
	sb.WriteString(`<query experiment="b_eff_io">` + "\n")
	vals := []string{"B_scatter", "B_shared", "B_separate", "B_segmented"}
	for i, v := range vals {
		for _, t := range beffTechniques {
			fmt.Fprintf(&sb, `  <source id="s_%s_%d">
    <parameter name="technique" value=%q/>
    <parameter name="fs" value="ufs"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name=%q/>
  </source>
  <operator id="m_%s_%d" type="max" input="s_%s_%d"/>
`, t, i, t, v, t, i, t, i)
		}
		fmt.Fprintf(&sb, `  <operator id="rel_%d" type="percentof" input="m_%s_%d m_%s_%d"/>
  <output input="rel_%d" format="ascii" target="sweep_%d.txt"/>
`, i, beffio.TechniqueListLess, i, beffio.TechniqueListBased, i, i, i)
	}
	sb.WriteString("</query>")
	return sb.String()
}

// query_hot: the parallel executor on the same corpus — sequential, two
// in-process workers, two TCP workers. No end-to-end metric covers
// parquery yet.
func (w *queryHot) probeClosed(m map[string]float64) error {
	s, err := perfbase.OpenDir(w.dbDir)
	if err != nil {
		return err
	}
	defer s.Close()
	spec := sweepSpec()
	for _, p := range []struct {
		name    string
		workers int
		tcp     bool
	}{{"parquery.seq_ms", 0, false}, {"parquery.local_w2_ms", 2, false}, {"parquery.tcp_w2_ms", 2, true}} {
		var times []time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := s.QueryParallel(strings.NewReader(spec), p.workers, p.tcp); err != nil {
				return err
			}
			times = append(times, time.Since(t0))
		}
		m[p.name] = ms(percentile(times, 50))
	}
	return nil
}

// server_mixed: the cost of one empty round trip, and the rate at which
// a 40 000-row result crosses the wire.
func (w *serverMixed) probeLive(m map[string]float64) error {
	m["input.bigfile_rows_per_s"] = ratio(float64(w.msg.rows*len(w.msg.files)), w.bigfile.Seconds())
	px, err := startProxy(w.srv.Addr())
	if err != nil {
		return err
	}
	defer px.close()
	c, err := wire.Dial(px.addr())
	if err != nil {
		return err
	}
	defer c.Close()
	var rtts []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := c.Exec("SELECT 1"); err != nil {
			return err
		}
		rtts = append(rtts, time.Since(t0))
	}
	m["wire.rtt_us"] = us(percentile(rtts, 50))

	// Two msgsweep run tables side by side make 2×rows result rows.
	for _, stmt := range []string{
		"CREATE TEMP TABLE bench_big AS SELECT * FROM msgsweep_run_1",
		"INSERT INTO bench_big SELECT * FROM msgsweep_run_2",
	} {
		if _, err := c.Exec(stmt); err != nil {
			return err
		}
	}
	var rates []float64
	for i := 0; i < 3; i++ {
		down0 := px.down.Load()
		t0 := time.Now()
		res, err := c.Exec("SELECT * FROM bench_big")
		if err != nil {
			return err
		}
		if len(res.Rows) != 2*w.msg.rows {
			return fmt.Errorf("result probe returned %d rows, want %d", len(res.Rows), 2*w.msg.rows)
		}
		rates = append(rates, float64(px.down.Load()-down0)/1e6/time.Since(t0).Seconds())
	}
	sort.Float64s(rates)
	m["wire.result_mb_per_s"] = rates[1]
	_, err = c.Exec("DROP TABLE bench_big")
	return err
}
