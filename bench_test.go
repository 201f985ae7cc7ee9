// Benchmark harness regenerating every figure and quantified claim of
// the paper's evaluation (see DESIGN.md §3 for the experiment index):
//
//	E1 Fig. 1  — BenchmarkFig1_*           import mapping throughput
//	E2 Fig. 2  — BenchmarkFig2_QueryCascade cascaded element graph
//	E3 Fig. 3  — BenchmarkFig3_*           parallel speedup + source fraction
//	E4 Fig. 4  — BenchmarkFig4_ParseGolden  b_eff_io file import
//	             BenchmarkSessionImport    the same through a Session
//	E5 Fig. 8  — BenchmarkFig8_RelativeDiffQuery
//	E7 §4.2    — BenchmarkSQLvsScriptAggregation
//	E8 §4.3    — BenchmarkQueryWallTime     query time vs dataset size
//
// Run with: go test -bench=. -benchmem .
package perfbase_test

import (
	"fmt"
	"strings"
	"testing"

	"perfbase"
	"perfbase/internal/beffio"
	"perfbase/internal/core"
	"perfbase/internal/expr"
	"perfbase/internal/input"
	"perfbase/internal/parquery"
	"perfbase/internal/pbxml"
	"perfbase/internal/query"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// --------------------------------------------------------------- E1

const benchExpXML = `
<experiment>
  <name>bench</name>
  <parameter occurence="once"><name>mode</name><datatype>string</datatype></parameter>
  <parameter><name>n</name><datatype>integer</datatype></parameter>
  <result><name>t</name><datatype>float</datatype></result>
</experiment>`

const benchInputXML = `
<input experiment="bench">
  <named variable="mode" match="mode:"/>
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
</input>`

// benchOutput builds a synthetic run output with rows data sets.
func benchOutput(rows int) []byte {
	var sb strings.Builder
	sb.WriteString("mode: bench\nn t\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d %d.%03d\n", i%16, i%7, i%997)
	}
	return []byte(sb.String())
}

func newBenchImporter(b *testing.B, opts input.Options) (*core.Experiment, *input.Importer) {
	b.Helper()
	s := perfbase.OpenMemory()
	b.Cleanup(func() { s.Close() })
	exp, err := s.Setup(strings.NewReader(benchExpXML))
	if err != nil {
		b.Fatal(err)
	}
	desc, err := pbxml.ParseInput(strings.NewReader(benchInputXML))
	if err != nil {
		b.Fatal(err)
	}
	im, err := input.NewImporter(exp, desc, opts)
	if err != nil {
		b.Fatal(err)
	}
	return exp, im
}

// BenchmarkFig1_CaseA_SingleFile measures import of one file into one
// run (Fig. 1 case a) at 1000 data sets per file.
func BenchmarkFig1_CaseA_SingleFile(b *testing.B) {
	_, im := newBenchImporter(b, input.Options{Force: true})
	data := benchOutput(1000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.ImportBytes(fmt.Sprintf("f%d.txt", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_CaseB_RunSeparator measures importing one file that a
// run separator splits into 10 runs (Fig. 1 case b).
func BenchmarkFig1_CaseB_RunSeparator(b *testing.B) {
	s := perfbase.OpenMemory()
	defer s.Close()
	exp, err := s.Setup(strings.NewReader(benchExpXML))
	if err != nil {
		b.Fatal(err)
	}
	desc, err := pbxml.ParseInput(strings.NewReader(benchInputXML))
	if err != nil {
		b.Fatal(err)
	}
	desc.Separator = &pbxml.RunSeparator{Match: "== end =="}
	im, err := input.NewImporter(exp, desc, input.Options{Force: true})
	if err != nil {
		b.Fatal(err)
	}
	one := string(benchOutput(100)) + "== end ==\n"
	data := []byte(strings.Repeat(one, 10))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.ImportBytes(fmt.Sprintf("f%d.txt", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_CaseD_Merged measures merging two description/file
// pairs into a single run (Fig. 1 case d).
func BenchmarkFig1_CaseD_Merged(b *testing.B) {
	s := perfbase.OpenMemory()
	defer s.Close()
	exp, err := s.Setup(strings.NewReader(benchExpXML))
	if err != nil {
		b.Fatal(err)
	}
	mainDesc, err := pbxml.ParseInput(strings.NewReader(benchInputXML))
	if err != nil {
		b.Fatal(err)
	}
	envDesc, err := pbxml.ParseInput(strings.NewReader(
		`<input experiment="bench"><named variable="mode" match="modeline:"/></input>`))
	if err != nil {
		b.Fatal(err)
	}
	data := benchOutput(500)
	env := []byte("modeline: merged\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := input.ImportMerged(exp, []input.DescFile{
			{Desc: mainDesc, Path: fmt.Sprintf("m%d.txt", i), Data: data},
			{Desc: envDesc, Path: fmt.Sprintf("e%d.txt", i), Data: env},
		}, input.Options{Force: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- E4

// BenchmarkFig4_ParseGolden measures importing a full Fig. 4-format
// b_eff_io output file (24 data sets + 13 scalar variables).
func BenchmarkFig4_ParseGolden(b *testing.B) {
	s := perfbase.OpenMemory()
	defer s.Close()
	exp, err := s.Setup(strings.NewReader(beffio.ExperimentXML))
	if err != nil {
		b.Fatal(err)
	}
	desc, err := pbxml.ParseInput(strings.NewReader(beffio.InputXML))
	if err != nil {
		b.Fatal(err)
	}
	im, err := input.NewImporter(exp, desc, input.Options{Force: true})
	if err != nil {
		b.Fatal(err)
	}
	run := beffio.Simulate(beffio.Config{Seed: 1})
	data := []byte(run.Output(run.Prefix("grisu", 1)))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bio_T10_N4_listbased_ufs_grisu_run%d.txt", i)
		if _, err := im.ImportBytes(name, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionImport measures what one `perfbase input` of one
// b_eff_io file costs a session that imports a campaign: each import
// reads the one input description again, and a file of its own.
func BenchmarkSessionImport(b *testing.B) {
	s := perfbase.OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(beffio.ExperimentXML)); err != nil {
		b.Fatal(err)
	}
	cfgs := beffio.SweepConfigs([]string{beffio.TechniqueListBased, beffio.TechniqueListLess},
		[]string{"ufs"}, []int{4}, (b.N+1)/2, 1)
	paths, err := beffio.GenerateFiles(b.TempDir(), "grisu", cfgs[:b.N])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, p := range paths {
		if _, err := s.Import("b_eff_io", strings.NewReader(beffio.InputXML), perfbase.ImportOptions{}, p); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------- shared corpus

// seedBeffio imports a b_eff_io campaign into a fresh session.
func seedBeffio(tb testing.TB, fss []string, procs []int, reps int) *perfbase.Session {
	tb.Helper()
	s := perfbase.OpenMemory()
	tb.Cleanup(func() { s.Close() })
	importBeffio(tb, s, fss, procs, reps)
	return s
}

// importBeffio sets the b_eff_io experiment up in s and imports a
// simulated campaign.
func importBeffio(tb testing.TB, s *perfbase.Session, fss []string, procs []int, reps int) {
	tb.Helper()
	exp, err := s.Setup(strings.NewReader(beffio.ExperimentXML))
	if err != nil {
		tb.Fatal(err)
	}
	desc, err := pbxml.ParseInput(strings.NewReader(beffio.InputXML))
	if err != nil {
		tb.Fatal(err)
	}
	im, err := input.NewImporter(exp, desc, input.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cfgs := beffio.SweepConfigs(
		[]string{beffio.TechniqueListBased, beffio.TechniqueListLess},
		fss, procs, reps, 42)
	for i, cfg := range cfgs {
		run := beffio.Simulate(cfg)
		prefix := run.Prefix("grisu", i+1)
		if _, err := im.ImportBytes(prefix+".txt", []byte(run.Output(prefix))); err != nil {
			tb.Fatal(err)
		}
	}
}

// fig8Query is the §5 relative-difference query (Fig. 7 → Fig. 8).
const fig8Query = `
<query experiment="b_eff_io">
  <source id="src_old">
    <parameter name="technique" value="listbased"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/>
  </source>
  <source id="src_new">
    <parameter name="technique" value="listless"/>
    <parameter name="fs" value="ufs"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/>
  </source>
  <operator id="max_old" type="max" input="src_old"/>
  <operator id="max_new" type="max" input="src_new"/>
  <operator id="rel" type="percentof" input="max_new max_old"/>
  <output input="rel" format="gnuplot" style="bars" title="Fig. 8"/>
</query>`

// --------------------------------------------------------------- E2

// BenchmarkFig2_QueryCascade measures the cascaded element graph of
// Fig. 2: two sources, per-source aggregation, a combiner, a relation
// operator and two outputs.
func BenchmarkFig2_QueryCascade(b *testing.B) {
	s := seedBeffio(b, []string{"ufs"}, []int{4}, 3)
	spec := `
<query experiment="b_eff_io">
  <source id="s1">
    <parameter name="technique" value="listbased"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/>
  </source>
  <source id="s2">
    <parameter name="technique" value="listless"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/>
  </source>
  <operator id="a1" type="avg" input="s1"/>
  <operator id="a2" type="avg" input="s2"/>
  <combiner id="c" input="a1 a2"/>
  <operator id="rel" type="percentof" input="a2 a1"/>
  <output input="c" format="ascii"/>
  <output input="rel" format="ascii"/>
</query>`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(strings.NewReader(spec)); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- E5

// BenchmarkFig8_RelativeDiffQuery measures the full §5 analysis query.
func BenchmarkFig8_RelativeDiffQuery(b *testing.B) {
	s := seedBeffio(b, []string{"ufs", "nfs"}, []int{4, 8}, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query(strings.NewReader(fig8Query))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outputs[0].Data[0].Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --------------------------------------------------------------- E3

// parallelQuery builds a width-W sweep query (one source + statistics
// chain per parameter slice) so the plan has genuine parallelism and
// each chain moves a substantial vector.
func parallelQuery(width int) string {
	ops := []string{"write", "rewrite", "read"}
	fss := []string{"ufs", "nfs", "pfs"}
	var sb strings.Builder
	sb.WriteString(`<query experiment="b_eff_io">`)
	for i := 0; i < width; i++ {
		op := ops[i%len(ops)]
		fs := fss[(i/len(ops))%len(fss)]
		fmt.Fprintf(&sb, `
  <source id="s%d">
    <parameter name="op" value="%s"/>
    <parameter name="fs" value="%s"/>
    <parameter name="technique"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/><value name="B_scatter"/><value name="B_shared"/>
    <value name="B_segmented"/><value name="B_segcoll"/>
  </source>
  <operator id="a%d" type="avg" input="s%d"/>
  <operator id="sd%d" type="stddev" input="s%d"/>
  <combiner id="c%d" input="a%d sd%d"/>`,
			i, op, fs, i, i, i, i, i, i, i)
	}
	for i := 0; i < width; i++ {
		fmt.Fprintf(&sb, `
  <output input="c%d" format="ascii"/>`, i)
	}
	sb.WriteString(`
</query>`)
	return sb.String()
}

// BenchmarkFig3_ParallelSpeedup measures the parameter-sweep query of
// §4.3: "primary" runs every element on the single database server;
// "smp/workers=N" places them on N in-process worker databases (the
// paper's "even on a single (SMP) server" case); the TCP variant below
// adds the socket transport. Every variant runs a level's elements
// concurrently, so the paper's sequential baseline is "primary" at
// -cpu 1. Compare the ns/op across the sub-benchmarks and -cpu values
// for the speedup curve.
func BenchmarkFig3_ParallelSpeedup(b *testing.B) {
	spec := parallelQuery(8)
	q, err := pbxml.ParseQuery(strings.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := query.BuildPlan(q)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("primary", func(b *testing.B) {
		s := seedBeffio(b, []string{"ufs", "nfs", "pfs"}, []int{4, 8}, 4)
		exp, err := s.Experiment("b_eff_io")
		if err != nil {
			b.Fatal(err)
		}
		en := query.NewEngine(exp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := en.RunPlan(plan, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("smp/workers=%d", workers), func(b *testing.B) {
			s := seedBeffio(b, []string{"ufs", "nfs", "pfs"}, []int{4, 8}, 4)
			exp, err := s.Experiment("b_eff_io")
			if err != nil {
				b.Fatal(err)
			}
			ex := parquery.NewExecutor(exp, parquery.NewLocalPool(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.RunPlan(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3_ParallelSpeedupTCP is the same sweep over real
// socket-connected worker servers (the cluster transport of Fig. 3),
// on the same corpus as the SMP variant.
func BenchmarkFig3_ParallelSpeedupTCP(b *testing.B) {
	spec := parallelQuery(8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := seedBeffio(b, []string{"ufs", "nfs", "pfs"}, []int{4, 8}, 4)
			exp, err := s.Experiment("b_eff_io")
			if err != nil {
				b.Fatal(err)
			}
			pool, err := parquery.NewTCPPool(workers)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			ex := parquery.NewExecutor(exp, pool)
			q, err := pbxml.ParseQuery(strings.NewReader(spec))
			if err != nil {
				b.Fatal(err)
			}
			plan, err := query.BuildPlan(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.RunPlan(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3_SourceFraction profiles the fraction of query time
// spent in source elements as a function of query complexity (the
// §4.3 claim: ≈10%, decreasing with complexity). The fraction is
// reported as the custom metric source-frac.
func BenchmarkFig3_SourceFraction(b *testing.B) {
	for _, stages := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("operator-stages=%d", stages), func(b *testing.B) {
			s := seedBeffio(b, []string{"ufs", "nfs"}, []int{4, 8}, 4)
			exp, err := s.Experiment("b_eff_io")
			if err != nil {
				b.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString(`<query experiment="b_eff_io">
  <source id="src">
    <parameter name="technique"/>
    <parameter name="fs"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/><value name="B_scatter"/><value name="B_shared"/>
  </source>
  <operator id="op0" type="avg" input="src"/>`)
			prev := "op0"
			for i := 1; i < stages; i++ {
				kind := []string{"scale", "offset", "eval"}[i%3]
				switch kind {
				case "scale":
					fmt.Fprintf(&sb, `
  <operator id="op%d" type="scale" input="%s" factor="1.001"/>`, i, prev)
				case "offset":
					fmt.Fprintf(&sb, `
  <operator id="op%d" type="offset" input="%s" offset="0.5"/>`, i, prev)
				case "eval":
					fmt.Fprintf(&sb, `
  <operator id="op%d" type="eval" input="%s" expression="B_separate * 1.0" variable="B_separate"/>`, i, prev)
				}
				prev = fmt.Sprintf("op%d", i)
			}
			fmt.Fprintf(&sb, `
  <output input="%s" format="ascii"/>
</query>`, prev)

			q, err := pbxml.ParseQuery(strings.NewReader(sb.String()))
			if err != nil {
				b.Fatal(err)
			}
			plan, err := query.BuildPlan(q)
			if err != nil {
				b.Fatal(err)
			}
			en := query.NewEngine(exp)
			var lastFrac float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := en.RunPlan(plan, nil)
				if err != nil {
					b.Fatal(err)
				}
				lastFrac = res.SourceFraction(plan)
			}
			b.ReportMetric(lastFrac*100, "source-%")
		})
	}
}

// --------------------------------------------------------------- E7

// BenchmarkSQLvsScriptAggregation compares computing an average inside
// the SQL engine (the avg operator's path) against row-by-row
// processing in the host language, as a script would do it: fetch the
// data sets and average them in a loop — the paper's §4.2 rationale for
// pushing operators into the database.
func BenchmarkSQLvsScriptAggregation(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		s := perfbase.OpenMemory()
		exp, err := s.Setup(strings.NewReader(benchExpXML))
		if err != nil {
			b.Fatal(err)
		}
		desc, err := pbxml.ParseInput(strings.NewReader(benchInputXML))
		if err != nil {
			b.Fatal(err)
		}
		im, err := input.NewImporter(exp, desc, input.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ids, err := im.ImportBytes("f.txt", benchOutput(rows))
		if err != nil {
			b.Fatal(err)
		}
		sqlSpec := `
<query experiment="bench">
  <source id="s"><parameter name="n"/><value name="t"/></source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`
		b.Run(fmt.Sprintf("sql-avg/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(strings.NewReader(sqlSpec)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("script-avg/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data, err := exp.RunData(ids[0])
				if err != nil {
					b.Fatal(err)
				}
				ni, ti := data.Columns.Index("n"), data.Columns.Index("t")
				sum, count := map[int64]float64{}, map[int64]int{}
				for _, r := range data.Rows {
					sum[r[ni].Int()] += r[ti].Float()
					count[r[ni].Int()]++
				}
				for n := range sum {
					sum[n] /= float64(count[n])
				}
			}
		})
		s.Close()
	}
}

// --------------------------------------------------------------- E8

// BenchmarkQueryWallTime measures the Fig. 8 query as the stored
// corpus grows ("complex queries with multiple stages of operators
// take several seconds", §4.3 — the motivation for parallelisation).
func BenchmarkQueryWallTime(b *testing.B) {
	for _, reps := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("runs=%d", 2*reps), func(b *testing.B) {
			s := seedBeffio(b, []string{"ufs"}, []int{4}, reps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(strings.NewReader(fig8Query)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------- micro benches

// BenchmarkExprDerived measures derived-parameter evaluation, the
// hottest per-dataset path of the importer: the expression compiled
// once, then evaluated over a row of the variables it reads.
func BenchmarkExprDerived(b *testing.B) {
	e, err := expr.Compile("bw / n * 1.0486")
	if err != nil {
		b.Fatal(err)
	}
	eval, err := sqldb.CompileExpr(e.SQL(), sqldb.Schema{{Name: "bw", Type: value.Float}, {Name: "n", Type: value.Integer}})
	if err != nil {
		b.Fatal(err)
	}
	row := sqldb.Row{value.NewFloat(214.5), value.NewInt(4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeffioSimulate measures synthetic benchmark generation.
func BenchmarkBeffioSimulate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := beffio.Simulate(beffio.Config{Seed: int64(i)})
		if run.BEffIO <= 0 {
			b.Fatal("bad run")
		}
	}
}
