package perfbase_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"perfbase"
	"perfbase/internal/beffio"
	"perfbase/internal/sqldb"
)

// TestFig8BugDetected reproduces the paper's §5 finding end to end
// (experiment E5): after a full measurement campaign, the relative-
// difference query shows the list-less technique roughly 60% slower
// than list-based for large non-contiguous read accesses — and only
// there.
func TestFig8BugDetected(t *testing.T) {
	s := seedBeffio(t, []string{"ufs"}, []int{4}, 5)
	res, err := s.Query(strings.NewReader(fig8Query))
	if err != nil {
		t.Fatal(err)
	}
	data := res.Outputs[0].Data[0]
	vec := res.Outputs[0].Vectors[0]
	si, oi, bi := -1, -1, -1
	for i, c := range vec.Cols {
		switch c.Name {
		case "S_chunk":
			si = i
		case "op":
			oi = i
		case "B_separate":
			bi = i
		}
	}
	if len(data.Rows) != 24 {
		t.Fatalf("result rows = %d, want 24 (8 patterns x 3 ops)", len(data.Rows))
	}
	var bugPct float64
	healthy := 0
	for _, row := range data.Rows {
		pct := row[bi].Float()
		if row[oi].Str() == "read" && row[si].Int() == 1048584 {
			bugPct = pct
			continue
		}
		// Everything else should sit near or above 100% (the new
		// technique is equal or slightly faster) modulo noise.
		if pct > 80 {
			healthy++
		}
	}
	if bugPct < 30 || bugPct > 55 {
		t.Errorf("planted bug: new/old = %.1f%%, want ≈40%%", bugPct)
	}
	if healthy < 20 {
		t.Errorf("only %d of 23 healthy cases above 80%%", healthy)
	}
}

// TestStddevConvergence verifies the §5 statistics workflow
// (experiment E9): perfbase's avg/stddev query over repeated runs
// estimates the run-to-run variation, and adding runs tightens the
// estimate of the mean (stderr = stddev/sqrt(n) decreases).
func TestStddevConvergence(t *testing.T) {
	stats := func(reps int) (mean, sd float64) {
		t.Helper()
		s := seedBeffio(t, []string{"ufs"}, []int{4}, reps)
		res, err := s.Query(strings.NewReader(`
<query experiment="b_eff_io">
  <source id="s">
    <parameter name="technique" value="listbased"/>
    <parameter name="op" value="read"/>
    <parameter name="S_chunk" value="2097152"/>
    <value name="B_separate"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <operator id="sd" type="stddev" input="s"/>
  <combiner id="c" input="m sd"/>
  <output input="c" format="ascii"/>
</query>`))
		if err != nil {
			t.Fatal(err)
		}
		row := res.Outputs[0].Data[0].Rows[0]
		vec := res.Outputs[0].Vectors[0]
		mi, sdi := -1, -1
		for i, c := range vec.Cols {
			switch c.Name {
			case "B_separate":
				mi = i
			case "B_separate_2":
				sdi = i
			}
		}
		return row[mi].Float(), row[sdi].Float()
	}

	trueMean := beffio.MeanBandwidth(beffio.Config{Noise: -1}, "read", 2, 2097152)
	mean3, sd3 := stats(3)
	mean30, sd30 := stats(30)

	// The model noise is ~10% CV; the stddev estimate from 30 runs
	// must land in a plausible band around 0.1*mean.
	if sd30 < 0.03*trueMean || sd30 > 0.3*trueMean {
		t.Errorf("stddev(30 runs) = %v, expected around %v", sd30, 0.1*trueMean)
	}
	// Standard error of the mean decreases with more runs.
	se3 := sd3 / math.Sqrt(3)
	se30 := sd30 / math.Sqrt(30)
	if se30 >= se3 {
		t.Errorf("stderr did not shrink: %v (3 runs) vs %v (30 runs)", se3, se30)
	}
	// And indeed the 30-run mean is closer to the model mean here
	// (deterministic seeds; this documents the concrete outcome).
	if math.Abs(mean30-trueMean) > math.Abs(mean3-trueMean)+0.02*trueMean {
		t.Errorf("30-run mean %v no closer to %v than 3-run mean %v",
			mean30, trueMean, mean3)
	}
}

// TestFig3ParallelEquivalence checks experiment E3's correctness side:
// sequential, SMP-concurrent and TCP-distributed execution of the same
// parameter-sweep query produce identical results.
func TestFig3ParallelEquivalence(t *testing.T) {
	spec := parallelQuery(6)
	seqS := seedBeffio(t, []string{"ufs", "nfs"}, []int{4}, 3)
	seq, err := seqS.Query(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		tcp  bool
	}{{"smp", false}, {"tcp", true}} {
		s := seedBeffio(t, []string{"ufs", "nfs"}, []int{4}, 3)
		par, err := s.QueryParallel(strings.NewReader(spec), 3, mode.tcp)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if len(par.Outputs) != len(seq.Outputs) {
			t.Fatalf("%s: outputs %d vs %d", mode.name, len(par.Outputs), len(seq.Outputs))
		}
		for oi := range seq.Outputs {
			a := seq.Outputs[oi].Data[0]
			b := par.Outputs[oi].Data[0]
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("%s output %d: rows %d vs %d", mode.name, oi, len(a.Rows), len(b.Rows))
			}
			for ri := range a.Rows {
				for ci := range a.Rows[ri] {
					av, bv := a.Rows[ri][ci], b.Rows[ri][ci]
					if av.String() != bv.String() {
						t.Fatalf("%s output %d row %d col %d: %v vs %v",
							mode.name, oi, ri, ci, av, bv)
					}
				}
			}
		}
	}
}

// TestQueryProfileShape asserts the direction of the §4.3 profiling
// claim on this implementation: the source fraction decreases as
// operator stages are added (the absolute level is engine-specific;
// see EXPERIMENTS.md).
func TestQueryProfileShape(t *testing.T) {
	frac := func(stages int) float64 {
		t.Helper()
		s := seedBeffio(t, []string{"ufs", "nfs"}, []int{4}, 3)
		var sb strings.Builder
		sb.WriteString(`<query experiment="b_eff_io">
  <source id="src">
    <parameter name="technique"/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name="B_separate"/>
  </source>
  <operator id="op0" type="avg" input="src"/>`)
		prev := "op0"
		for i := 1; i < stages; i++ {
			fmt.Fprintf(&sb, `
  <operator id="op%d" type="eval" input="%s" expression="B_separate * 1.0" variable="B_separate"/>`, i, prev)
			prev = fmt.Sprintf("op%d", i)
		}
		fmt.Fprintf(&sb, `
  <output input="%s" format="ascii"/>
</query>`, prev)
		res, err := s.Query(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		var src, total float64
		for id, d := range res.Profile {
			total += float64(d)
			if id == "src" {
				src += float64(d)
			}
		}
		if total == 0 {
			t.Fatal("empty profile")
		}
		return src / total
	}
	// One query is a few hundred microseconds, so one sample is at the
	// mercy of a GC cycle or a descheduling: compare medians.
	median := func(stages int) float64 {
		fs := make([]float64, 5)
		for i := range fs {
			fs[i] = frac(stages)
		}
		sort.Float64s(fs)
		return fs[len(fs)/2]
	}
	f1 := median(1)
	f8 := median(8)
	if !(f8 < f1) {
		t.Errorf("source fraction did not decrease with complexity: %v -> %v", f1, f8)
	}
	if f1 <= 0 || f1 >= 1 || f8 <= 0 {
		t.Errorf("fractions out of range: %v %v", f1, f8)
	}
}

// TestEvolutionMidCampaign exercises §3.1's experiment evolution in a
// realistic sequence: import runs, extend the experiment with a new
// result value, import further runs providing it, and query across the
// whole history (old runs contribute NULLs, which aggregates skip).
func TestEvolutionMidCampaign(t *testing.T) {
	s := perfbase.OpenMemory()
	defer s.Close()

	v1 := `
<experiment>
  <name>evolve</name>
  <parameter><name>n</name><datatype>integer</datatype></parameter>
  <result><name>t</name><datatype>float</datatype></result>
</experiment>`
	in1 := `
<input experiment="evolve">
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
</input>`
	if _, err := s.Setup(strings.NewReader(v1)); err != nil {
		t.Fatal(err)
	}
	f1 := writeTempFile(t, "old.txt", "n t\n1 10\n2 20\n")
	if _, err := s.Import("evolve", strings.NewReader(in1),
		perfbase.ImportOptions{}, f1); err != nil {
		t.Fatal(err)
	}

	// Evolve: add a second result (e.g. the tool now reports memory).
	v2 := strings.Replace(v1,
		`<result><name>t</name><datatype>float</datatype></result>`,
		`<result><name>t</name><datatype>float</datatype></result>
		 <result><name>mem</name><datatype>float</datatype></result>`, 1)
	if _, err := s.Update(strings.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	in2 := `
<input experiment="evolve">
  <tabular start="n t mem">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
    <column variable="mem" pos="3"/>
  </tabular>
</input>`
	f2 := writeTempFile(t, "new.txt", "n t mem\n1 12 100\n2 22 200\n")
	if _, err := s.Import("evolve", strings.NewReader(in2),
		perfbase.ImportOptions{}, f2); err != nil {
		t.Fatal(err)
	}

	// Query both results across all runs.
	res, err := s.Query(strings.NewReader(`
<query experiment="evolve">
  <source id="src">
    <parameter name="n"/>
    <value name="t"/><value name="mem"/>
  </source>
  <operator id="m" type="avg" input="src"/>
  <operator id="cnt" type="count" input="src"/>
  <output input="m" format="ascii"/>
  <output input="cnt" format="ascii"/>
</query>`))
	if err != nil {
		t.Fatal(err)
	}
	mOut := res.Outputs[0]
	vec := mOut.Vectors[0]
	ni, ti, mi := -1, -1, -1
	for i, c := range vec.Cols {
		switch c.Name {
		case "n":
			ni = i
		case "t":
			ti = i
		case "mem":
			mi = i
		}
	}
	if len(mOut.Data[0].Rows) != 2 {
		t.Fatalf("groups = %d", len(mOut.Data[0].Rows))
	}
	for _, row := range mOut.Data[0].Rows {
		switch row[ni].Int() {
		case 1:
			// avg t over both eras: (10+12)/2; avg mem ignores the
			// old run's NULL: 100.
			if row[ti].Float() != 11 || row[mi].Float() != 100 {
				t.Errorf("n=1 averages = %v, %v", row[ti], row[mi])
			}
		case 2:
			if row[ti].Float() != 21 || row[mi].Float() != 200 {
				t.Errorf("n=2 averages = %v, %v", row[ti], row[mi])
			}
		}
	}
	// COUNT distinguishes populated from NULL values.
	cntOut := res.Outputs[1]
	cvec := cntOut.Vectors[0]
	cti, cmi := -1, -1
	for i, c := range cvec.Cols {
		switch c.Name {
		case "t":
			cti = i
		case "mem":
			cmi = i
		}
	}
	for _, row := range cntOut.Data[0].Rows {
		if row[cti].Int() != 2 || row[cmi].Int() != 1 {
			t.Errorf("counts = t:%v mem:%v, want 2 and 1", row[cti], row[cmi])
		}
	}
}

func writeTempFile(t *testing.T, name, content string) string {
	t.Helper()
	p := t.TempDir() + "/" + name
	if err := osWrite(p, content); err != nil {
		t.Fatal(err)
	}
	return p
}

func osWrite(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestOnceResultQuery retrieves a once-occurrence result value (the
// scalar b_eff_io score of each run) through a source element and
// aggregates it by technique.
func TestOnceResultQuery(t *testing.T) {
	s := seedBeffio(t, []string{"ufs"}, []int{4}, 4)
	res, err := s.Query(strings.NewReader(`
<query experiment="b_eff_io">
  <source id="s">
    <parameter name="technique"/>
    <value name="b_eff_io"/>
  </source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`))
	if err != nil {
		t.Fatal(err)
	}
	data := res.Outputs[0].Data[0]
	if len(data.Rows) != 2 {
		t.Fatalf("technique groups = %d", len(data.Rows))
	}
	vec := res.Outputs[0].Vectors[0]
	ti, bi := -1, -1
	for i, c := range vec.Cols {
		switch c.Name {
		case "technique":
			ti = i
		case "b_eff_io":
			bi = i
		}
	}
	scores := map[string]float64{}
	for _, row := range data.Rows {
		scores[row[ti].Str()] = row[bi].Float()
	}
	if scores["listbased"] <= 0 || scores["listless"] <= 0 {
		t.Fatalf("scores = %v", scores)
	}
	// The read collapse drags the list-less total score down.
	if !(scores["listless"] < scores["listbased"]) {
		t.Errorf("listless score %v should be below listbased %v",
			scores["listless"], scores["listbased"])
	}
}

// TestConcurrentSessionUse hammers one experiment with concurrent
// imports and queries through the facade — the multi-user scenario of
// §4.2 compressed into one process.
func TestConcurrentSessionUse(t *testing.T) {
	s := perfbase.OpenMemory()
	defer s.Close()
	def := `
<experiment>
  <name>conc</name>
  <parameter><name>n</name><datatype>integer</datatype></parameter>
  <result><name>t</name><datatype>float</datatype></result>
</experiment>`
	desc := `
<input experiment="conc">
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
</input>`
	if _, err := s.Setup(strings.NewReader(def)); err != nil {
		t.Fatal(err)
	}
	// Seed one run so queries always see data.
	f0 := writeTempFile(t, "seed.txt", "n t\n1 1.0\n")
	if _, err := s.Import("conc", strings.NewReader(desc),
		perfbase.ImportOptions{}, f0); err != nil {
		t.Fatal(err)
	}

	const writers, readers, iters = 3, 4, 10
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				content := fmt.Sprintf("n t\n%d %d.5\n", w+2, i)
				f := writeTempFileNoT(fmt.Sprintf("w%d_%d.txt", w, i), content)
				if f == "" {
					errs <- fmt.Errorf("temp write failed")
					return
				}
				if _, err := s.Import("conc", strings.NewReader(desc),
					perfbase.ImportOptions{}, f); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := s.Query(strings.NewReader(`
<query experiment="conc">
  <source id="s"><parameter name="n"/><value name="t"/></source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Outputs) != 1 {
					errs <- fmt.Errorf("bad outputs")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	exp, err := s.Experiment("conc")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := exp.Runs()
	if err != nil || len(runs) != 1+writers*iters {
		t.Fatalf("runs = %d, %v (want %d)", len(runs), err, 1+writers*iters)
	}
	// Concurrent importers must never collide on a run id, and every
	// run must carry its single data set.
	seen := map[int64]bool{}
	for _, r := range runs {
		if seen[r.ID] {
			t.Fatalf("run id %d claimed twice", r.ID)
		}
		seen[r.ID] = true
		if r.DataSets != 1 {
			t.Errorf("run %d datasets = %d, want 1", r.ID, r.DataSets)
		}
	}
}

func writeTempFileNoT(name, content string) string {
	dir, err := os.MkdirTemp("", "conc")
	if err != nil {
		return ""
	}
	p := dir + "/" + name
	if os.WriteFile(p, []byte(content), 0o644) != nil {
		return ""
	}
	return p
}

// TestReadOnlySessionWritesNothing is the paper's everyday command —
// open the database directory, ask one question, close (§3) — held to
// what it should cost the directory: nothing. After a session that
// imported a campaign has closed (and so checkpointed), a session that
// only runs the Fig. 8 query, temporary element tables and all —
// hydrating the run tables it reads from the checkpoint on the way —
// leaves both files the very same file: same inode, same mtime, same
// bytes, the WAL still just its header.
func TestReadOnlySessionWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := perfbase.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	importBeffio(t, s, []string{"ufs"}, []int{4}, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	type file struct {
		data []byte
		info os.FileInfo
	}
	state := func() map[string]file {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]file{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = file{data, info}
		}
		return out
	}
	dump := func() string {
		db, err := sqldb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		return db.DumpString()
	}
	before := state()
	for _, name := range []string{"columns.blk", "wal.log"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("the importing session left no %s (have %d files)", name, len(before))
		}
	}
	if len(before) != 2 {
		t.Fatalf("the importing session left %d files, want the checkpoint and the WAL", len(before))
	}
	want := dump()

	s, err = perfbase.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(strings.NewReader(fig8Query))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Outputs[0].Data[0].Rows); n != 24 {
		t.Fatalf("Fig. 8 rows = %d, want 24", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	after := state()
	if len(after) != len(before) {
		t.Errorf("directory holds %d files, held %d", len(after), len(before))
	}
	for name, b := range before {
		a, ok := after[name]
		switch {
		case !ok:
			t.Errorf("%s vanished", name)
		case !os.SameFile(b.info, a.info):
			t.Errorf("%s was re-created", name)
		case !b.info.ModTime().Equal(a.info.ModTime()):
			t.Errorf("%s was written", name)
		case !bytes.Equal(b.data, a.data):
			t.Errorf("%s changed contents", name)
		}
	}
	if n := len(after["wal.log"].data); n != 16 {
		t.Errorf("wal.log is %d bytes, want the 16-byte header", n)
	}
	if got := dump(); got != want {
		t.Error("the database state changed")
	}
}
