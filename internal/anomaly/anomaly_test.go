package anomaly

import (
	"strings"
	"testing"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

const expDoc = `
<experiment>
  <name>a</name>
  <parameter occurence="once"><name>cfg</name><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>stamp</name><datatype>timestamp</datatype></parameter>
  <parameter><name>size</name><datatype>integer</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
  <result occurence="once"><name>score</name><datatype>float</datatype></result>
</experiment>`

// seed creates runs: per (cfg, size) the bandwidth is stable around a
// base value; run "spiky" carries one wild outlier; the final run is a
// regression for cfg=a.
func seed(t *testing.T) *core.Experiment {
	t.Helper()
	s := core.NewStore(sqldb.NewMemory())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	def, err := pbxml.ParseExperiment(strings.NewReader(expDoc))
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	add := func(cfg string, bws map[int64]float64, score float64) int64 {
		t.Helper()
		var sets []core.DataSet
		for size, bw := range bws {
			sets = append(sets, core.DataSet{
				"size": value.NewInt(size),
				"bw":   value.NewFloat(bw),
			})
		}
		id, err := e.CreateRun(core.DataSet{
			"cfg":   value.NewString(cfg),
			"score": value.NewFloat(score),
		}, sets, "seed", "")
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// Stable history: cfg=a around 100/200, cfg=b around 50/80.
	jitters := []float64{-1, 0.5, 1, -0.5, 0}
	for _, j := range jitters {
		add("a", map[int64]float64{8: 100 + j, 64: 200 + j}, 10+j/10)
		add("b", map[int64]float64{8: 50 + j, 64: 80 + j}, 5+j/10)
	}
	// One outlier in cfg=a size=8.
	add("a", map[int64]float64{8: 300, 64: 200.2}, 10)
	// Latest run regresses cfg=a size=64 by ~50%.
	add("a", map[int64]float64{8: 100.1, 64: 100}, 9.9)
	return e
}

func TestScanFindsOutlier(t *testing.T) {
	e := seed(t)
	findings, err := Scan(e, "bw", Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	top := findings[0]
	if top.Value != 300 || !strings.Contains(top.Group, "cfg=a") ||
		!strings.Contains(top.Group, "size=8") {
		t.Errorf("top finding = %+v", top)
	}
	if top.Sigma < 3 {
		t.Errorf("sigma = %v", top.Sigma)
	}
	if top.Variable != "bw" {
		t.Errorf("variable = %q", top.Variable)
	}
	// Findings are sorted by sigma.
	for i := 1; i < len(findings); i++ {
		if findings[i].Sigma > findings[i-1].Sigma {
			t.Error("findings not sorted by sigma")
		}
	}
}

func TestScanRespectsK(t *testing.T) {
	e := seed(t)
	// Under robust statistics the two planted anomalies (the 300
	// outlier and the 100 regression point) both exceed 100 sigma; an
	// absurd threshold suppresses them.
	strict, err := Scan(e, "bw", Options{K: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 0 {
		t.Errorf("K=1e6 still found %d outliers", len(strict))
	}
	planted, err := Scan(e, "bw", Options{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) != 2 {
		t.Errorf("K=50 found %d findings, want exactly the 2 planted anomalies", len(planted))
	}
	loose, err := Scan(e, "bw", Options{K: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Scan(e, "bw", Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) <= len(tight) {
		t.Errorf("loose (%d) should find more than tight (%d)", len(loose), len(tight))
	}
}

func TestScanGroupBy(t *testing.T) {
	e := seed(t)
	// Grouping only by size pools cfg=a and cfg=b: their level
	// difference inflates the stddev and hides the outlier less
	// cleanly, but explicit grouping must be honoured.
	findings, err := Scan(e, "bw", Options{K: 2, GroupBy: []string{"size"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if strings.Contains(f.Group, "cfg=") {
			t.Errorf("explicit GroupBy leaked cfg: %+v", f)
		}
	}
	if _, err := Scan(e, "bw", Options{GroupBy: []string{"ghost"}}); err == nil {
		t.Error("unknown group parameter accepted")
	}
	if _, err := Scan(e, "bw", Options{GroupBy: []string{"bw"}}); err == nil {
		t.Error("result value accepted as group parameter")
	}
}

func TestScanOnceResult(t *testing.T) {
	e := seed(t)
	// score is a once-occurrence result: one observation per run.
	findings, err := Scan(e, "score", Options{K: 1.5, GroupBy: []string{"cfg"}})
	if err != nil {
		t.Fatal(err)
	}
	// The history scores are tightly packed; no 1.5-sigma outlier is
	// guaranteed, but the call must work and group by cfg only.
	for _, f := range findings {
		if strings.Contains(f.Group, "size=") {
			t.Errorf("once-result scan leaked multi params: %+v", f)
		}
	}
}

func TestScanErrors(t *testing.T) {
	e := seed(t)
	if _, err := Scan(e, "ghost", Options{}); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := Scan(e, "cfg", Options{}); err == nil {
		t.Error("parameter accepted as target")
	}
}

func TestLatestFindsRegression(t *testing.T) {
	e := seed(t)
	regs, err := Latest(e, "bw", Options{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Fatal("regression not found")
	}
	top := regs[0]
	if !strings.Contains(top.Group, "cfg=a") || !strings.Contains(top.Group, "size=64") {
		t.Errorf("top regression group = %q", top.Group)
	}
	if top.ChangePct > -40 || top.ChangePct < -60 {
		t.Errorf("change = %v%%, want ≈-50%%", top.ChangePct)
	}
	if top.HistoryRuns < 5 {
		t.Errorf("history runs = %d", top.HistoryRuns)
	}
	// The healthy group (size=8) must not be flagged.
	for _, r := range regs {
		if strings.Contains(r.Group, "size=8") {
			t.Errorf("healthy group flagged: %+v", r)
		}
	}
}

func TestLatestThreshold(t *testing.T) {
	e := seed(t)
	regs, err := Latest(e, "bw", Options{ThresholdPct: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("80%% threshold still flagged %d groups", len(regs))
	}
}

func TestLatestNeedsHistory(t *testing.T) {
	s := core.NewStore(sqldb.NewMemory())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	def, err := pbxml.ParseExperiment(strings.NewReader(expDoc))
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateRun(core.DataSet{"cfg": value.NewString("a")}, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Latest(e, "bw", Options{}); err == nil {
		t.Error("single run accepted for comparison")
	}
}
