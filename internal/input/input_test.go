package input

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// The test experiment mimics a small benchmark with environment
// parameters and a result table.
const expDoc = `
<experiment>
  <name>bench</name>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype>
    <valid>ufs</valid><valid>nfs</valid><valid>unknown</valid><default>unknown</default></parameter>
  <parameter occurence="once"><name>nodes</name><datatype>integer</datatype></parameter>
  <parameter occurence="once"><name>mem</name><datatype>integer</datatype></parameter>
  <parameter occurence="once"><name>host</name><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>when</name><datatype>timestamp</datatype></parameter>
  <parameter occurence="once"><name>mem_total</name><datatype>integer</datatype></parameter>
  <parameter><name>chunk</name><datatype>integer</datatype></parameter>
  <parameter><name>op</name><datatype>string</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
  <result><name>bw_per_node</name><datatype>float</datatype></result>
</experiment>`

const descDoc = `
<input experiment="bench">
  <filename variable="fs" split="_" index="1"/>
  <named variable="nodes" match="-N" field="1"/>
  <named variable="mem" match="MEMORY PER PROCESSOR ="/>
  <named variable="host" match="hostname :"/>
  <named variable="when" match="Date of measurement:"/>
  <derived variable="mem_total" expression="mem * nodes"/>
  <derived variable="bw_per_node" expression="bw / nodes"/>
  <tabular start="chunk op bandwidth">
    <column variable="chunk" pos="1"/>
    <column variable="op" pos="2"/>
    <column variable="bw" pos="3"/>
  </tabular>
</input>`

const sampleOut = `benchmark v1.0
-N 4 T=10
MEMORY PER PROCESSOR = 256 MBytes [1MBytes = 1024*1024 bytes]
hostname : grisu0.ccrl-nece.de
Date of measurement: Tue Nov 23 18:30:30 2004

chunk op bandwidth
32 write 35.504
1024 write 59.088
32 read 76.680
1024 read 227.183
total --- 99.0
`

func setup(t *testing.T) (*core.Experiment, *pbxml.Input) {
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
	desc, err := pbxml.ParseInput(strings.NewReader(descDoc))
	if err != nil {
		t.Fatal(err)
	}
	return e, desc
}

func TestFig1MappingA_SingleFileSingleRun(t *testing.T) {
	e, desc := setup(t)
	im, err := NewImporter(e, desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("bio_ufs_run1.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("case a should create exactly one run, got %v", ids)
	}

	once, err := e.RunOnce(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if once["fs"].Str() != "ufs" {
		t.Errorf("filename location fs = %v", once["fs"])
	}
	if once["nodes"].Int() != 4 {
		t.Errorf("named+field nodes = %v", once["nodes"])
	}
	if once["mem"].Int() != 256 {
		t.Errorf("named mem = %v", once["mem"])
	}
	if once["host"].Str() != "grisu0.ccrl-nece.de" {
		t.Errorf("named host = %v", once["host"])
	}
	if once["when"].Time().Year() != 2004 {
		t.Errorf("named timestamp = %v", once["when"])
	}
	if once["mem_total"].Int() != 1024 {
		t.Errorf("derived mem_total = %v", once["mem_total"])
	}

	data, err := e.RunData(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 {
		t.Fatalf("tabular rows = %d, want 4 (header and total skipped)", len(data.Rows))
	}
	ci := data.Columns.Index("bw_per_node")
	bi := data.Columns.Index("bw")
	for _, row := range data.Rows {
		if row[ci].Float() != row[bi].Float()/4 {
			t.Errorf("derived per-set: bw=%v per_node=%v", row[bi], row[ci])
		}
	}
}

func TestFig1MappingB_RunSeparator(t *testing.T) {
	e, desc := setup(t)
	sep := *desc
	sep.Separator = &pbxml.RunSeparator{Match: "=== end of run ==="}
	two := sampleOut + "=== end of run ===\n" + strings.ReplaceAll(sampleOut, "-N 4", "-N 8")
	im, err := NewImporter(e, &sep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("bio_nfs_x.txt", []byte(two))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("case b should create two runs, got %v", ids)
	}
	o1, _ := e.RunOnce(ids[0])
	o2, _ := e.RunOnce(ids[1])
	if o1["nodes"].Int() != 4 || o2["nodes"].Int() != 8 {
		t.Errorf("separated runs nodes = %v, %v", o1["nodes"], o2["nodes"])
	}
	// Both runs carry the full data table of their segment.
	for _, id := range ids {
		data, _ := e.RunData(id)
		if len(data.Rows) != 4 {
			t.Errorf("run %d rows = %d", id, len(data.Rows))
		}
	}
}

func TestFig1MappingC_MultipleFilesIndependent(t *testing.T) {
	e, desc := setup(t)
	im, err := NewImporter(e, desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids1, err := im.ImportBytes("bio_ufs_1.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	ids2, err := im.ImportBytes("bio_nfs_2.txt", []byte(strings.ReplaceAll(sampleOut, "-N 4", "-N 2")))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || len(ids1) != 1 || len(ids2) != 1 {
		t.Fatalf("case c runs = %v", runs)
	}
	o2, _ := e.RunOnce(ids2[0])
	if o2["fs"].Str() != "nfs" || o2["nodes"].Int() != 2 {
		t.Errorf("second file once = %v", o2)
	}
}

func TestFig1MappingD_MergedImport(t *testing.T) {
	e, desc := setup(t)
	// First description/file: the benchmark output (without fs info).
	mainDesc := *desc
	mainDesc.Filename = nil
	// Second description/file: an environment file supplying fs.
	envDoc := `
<input experiment="bench">
  <named variable="fs" match="filesystem:"/>
</input>`
	envDesc, err := pbxml.ParseInput(strings.NewReader(envDoc))
	if err != nil {
		t.Fatal(err)
	}
	envOut := "environment info\nfilesystem: nfs\n"

	id, err := ImportMerged(e, []DescFile{
		{Desc: &mainDesc, Path: "out.txt", Data: []byte(sampleOut)},
		{Desc: envDesc, Path: "env.txt", Data: []byte(envOut)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	once, err := e.RunOnce(id)
	if err != nil {
		t.Fatal(err)
	}
	if once["fs"].Str() != "nfs" {
		t.Errorf("merged fs = %v", once["fs"])
	}
	if once["nodes"].Int() != 4 {
		t.Errorf("merged nodes = %v", once["nodes"])
	}
	data, _ := e.RunData(id)
	if len(data.Rows) != 4 {
		t.Errorf("merged data rows = %d", len(data.Rows))
	}
	info, _ := e.Run(id)
	if !strings.Contains(info.Source, "out.txt") || !strings.Contains(info.Source, "env.txt") {
		t.Errorf("merged source = %q", info.Source)
	}
	// Merged duplicate detection.
	if _, err := ImportMerged(e, []DescFile{
		{Desc: &mainDesc, Path: "out.txt", Data: []byte(sampleOut)},
		{Desc: envDesc, Path: "env.txt", Data: []byte(envOut)},
	}, Options{}); err == nil {
		t.Error("merged duplicate import accepted")
	}
	if _, err := ImportMerged(e, nil, Options{}); err == nil {
		t.Error("empty merged import accepted")
	}
}

func TestDuplicateImportRefused(t *testing.T) {
	e, desc := setup(t)
	im, err := NewImporter(e, desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.ImportBytes("a_ufs.txt", []byte(sampleOut)); err != nil {
		t.Fatal(err)
	}
	// Same content, same name: refused.
	if _, err := im.ImportBytes("a_ufs.txt", []byte(sampleOut)); err == nil {
		t.Error("duplicate import accepted without force")
	}
	// Same content, different name: still refused (content fingerprint).
	if _, err := im.ImportBytes("b_ufs.txt", []byte(sampleOut)); err == nil {
		t.Error("renamed duplicate accepted")
	}
	// Forced: accepted.
	imf, err := NewImporter(e, desc, Options{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := imf.ImportBytes("a_ufs.txt", []byte(sampleOut)); err != nil {
		t.Errorf("forced re-import failed: %v", err)
	}
	runs, _ := e.Runs()
	if len(runs) != 2 {
		t.Errorf("runs after forced re-import = %d", len(runs))
	}
}

// TestImportSeparatedFileOnce: a file of several runs (paper Fig. 1
// case b) imports only once, as a file of one run does, although its
// runs carry the file's fingerprint suffixed with their index; a refused
// import writes nothing, and a forced one imports the file again.
func TestImportSeparatedFileOnce(t *testing.T) {
	e, desc := setup(t)
	sep := *desc
	sep.Separator = &pbxml.RunSeparator{Match: "=== end of run ==="}
	two := []byte(sampleOut + "=== end of run ===\n" + strings.ReplaceAll(sampleOut, "-N 4", "-N 8"))
	im, err := NewImporter(e, &sep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := im.ImportBytes("bio_nfs_x.txt", two); err != nil || len(ids) != 2 {
		t.Fatalf("first import = %v, %v, want two runs", ids, err)
	}
	for _, name := range []string{"bio_nfs_x.txt", "bio_nfs_y.txt"} {
		if ids, err := im.ImportBytes(name, two); err == nil || !strings.Contains(err.Error(), "already imported") {
			t.Errorf("second import as %s = %v, %v, want refused", name, ids, err)
		}
	}
	if runs, _ := e.Runs(); len(runs) != 2 {
		t.Errorf("refused imports left %d runs, want 2", len(runs))
	}
	imf, err := NewImporter(e, &sep, Options{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := imf.ImportBytes("bio_nfs_x.txt", two); err != nil || len(ids) != 2 || ids[0] != 3 {
		t.Errorf("forced re-import = %v, %v, want runs [3 4]", ids, err)
	}
}

// missingOut lacks the hostname line, leaving "host" without content.
var missingOut = strings.ReplaceAll(sampleOut, "hostname : grisu0.ccrl-nece.de\n", "")

func TestMissingPolicyDefault(t *testing.T) {
	e, desc := setup(t)
	im, _ := NewImporter(e, desc, Options{Missing: UseDefault})
	ids, err := im.ImportBytes("x_ufs.txt", []byte(missingOut))
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(ids[0])
	if !once["host"].IsNull() {
		t.Errorf("host without default should be NULL: %v", once["host"])
	}
}

func TestMissingPolicyFail(t *testing.T) {
	e, desc := setup(t)
	im, _ := NewImporter(e, desc, Options{Missing: Fail})
	if _, err := im.ImportBytes("x_ufs.txt", []byte(missingOut)); err == nil ||
		!strings.Contains(err.Error(), "host") {
		t.Errorf("fail policy error = %v", err)
	}
	if runs, _ := e.Runs(); len(runs) != 0 {
		t.Error("failed import left a run behind")
	}
}

func TestMissingPolicyDiscard(t *testing.T) {
	e, desc := setup(t)
	im, _ := NewImporter(e, desc, Options{Missing: Discard})
	ids, err := im.ImportBytes("x_ufs.txt", []byte(missingOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("discard policy created runs: %v", ids)
	}
	// Complete files still import.
	ids, err = im.ImportBytes("y_ufs.txt", []byte(sampleOut))
	if err != nil || len(ids) != 1 {
		t.Errorf("complete file under discard: %v, %v", ids, err)
	}
}

func TestMissingPolicyEmptySuppressesDefault(t *testing.T) {
	e, desc := setup(t)
	// Remove the filename location so fs gets no content; its default
	// is "unknown".
	d := *desc
	d.Filename = nil
	im, _ := NewImporter(e, &d, Options{Missing: AllowEmpty})
	ids, err := im.ImportBytes("x.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(ids[0])
	if !once["fs"].IsNull() {
		t.Errorf("empty policy should store NULL, got %v", once["fs"])
	}
	// And with default policy the default applies.
	im2, _ := NewImporter(e, &d, Options{Missing: UseDefault, Force: true})
	ids2, err := im2.ImportBytes("x.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	once2, _ := e.RunOnce(ids2[0])
	if once2["fs"].Str() != "unknown" {
		t.Errorf("default policy fs = %v", once2["fs"])
	}
}

// TestMissingPolicyDerived: a derived parameter that reads a variable
// without content sees what the missing-content policy gives it, and the
// policy decides before the expression runs.
func TestMissingPolicyDerived(t *testing.T) {
	noMem := strings.ReplaceAll(sampleOut, "MEMORY PER PROCESSOR = 256 MBytes [1MBytes = 1024*1024 bytes]\n", "")
	for _, tc := range []struct {
		policy  Policy
		runs    int    // runs stored
		errWith string // the import fails naming this, when not empty
	}{
		{UseDefault, 1, ""},
		{AllowEmpty, 1, ""},
		{Discard, 0, ""},
		{Fail, 0, "mem"},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			e, desc := setup(t)
			im, err := NewImporter(e, desc, Options{Missing: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			ids, err := im.ImportBytes("x_ufs.txt", []byte(noMem))
			if tc.errWith != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errWith) || strings.Contains(err.Error(), "derived") {
					t.Fatalf("import error %v, want one naming %s", err, tc.errWith)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if len(ids) != tc.runs {
				t.Fatalf("stored runs %v, want %d", ids, tc.runs)
			}
			if tc.runs == 0 {
				return
			}
			once, err := e.RunOnce(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			if !once["mem"].IsNull() || !once["mem_total"].IsNull() {
				t.Errorf("mem = %v, mem_total = %v, want NULL and NULL", once["mem"], once["mem_total"])
			}
			if once["nodes"].Int() != 4 {
				t.Errorf("nodes = %v", once["nodes"])
			}
		})
	}
}

// TestDerivedGuardedDivision: if() evaluates only the branch it picks,
// so a division guarded against a zero divisor imports.
func TestDerivedGuardedDivision(t *testing.T) {
	e, desc := setup(t)
	d := *desc
	d.Derived = []pbxml.DerivedParam{
		{Variable: "mem_total", Expression: "mem * nodes"},
		{Variable: "bw_per_node", Expression: "if(nodes > 0, bw / nodes, 0)"},
	}
	im, err := NewImporter(e, &d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("z_ufs.txt", []byte(strings.ReplaceAll(sampleOut, "-N 4", "-N 0")))
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.RunData(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	ci := data.Columns.Index("bw_per_node")
	for _, row := range data.Rows {
		if v := row[ci]; v.IsNull() || v.Float() != 0 {
			t.Errorf("bw_per_node = %v, want 0", v)
		}
	}
	if len(data.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(data.Rows))
	}
}

// TestDerivedReadsSlots: a derived parameter of a data set reads the
// data set's slots. A slot that neither the data set's location nor an
// earlier derived parameter filled reads as the policy stores a missing
// variable, its default or, under AllowEmpty, NULL; it is stored as its
// default either way.
func TestDerivedReadsSlots(t *testing.T) {
	const expXML = `
<experiment>
  <name>slots</name>
  <parameter><name>a</name><datatype>integer</datatype></parameter>
  <parameter><name>b</name><datatype>integer</datatype><default>7</default></parameter>
  <result><name>c</name><datatype>integer</datatype><default>5</default></result>
  <result><name>d</name><datatype>integer</datatype></result>
  <result><name>early</name><datatype>integer</datatype></result>
  <result><name>bb</name><datatype>integer</datatype></result>
</experiment>`
	const descXML = `
<input experiment="slots">
  <derived variable="early" expression="c + 100"/>
  <derived variable="c" expression="a * 2"/>
  <derived variable="d" expression="c * 10"/>
  <derived variable="bb" expression="b + 0"/>
  <tabular start="a"><column variable="a" pos="1"/></tabular>
</input>`
	for _, tc := range []struct {
		policy Policy
		want   map[string]string
	}{
		{UseDefault, map[string]string{"a": "1", "b": "7", "c": "2", "d": "20", "early": "105", "bb": "7"}},
		{AllowEmpty, map[string]string{"a": "1", "b": "7", "c": "2", "d": "20", "early": "NULL", "bb": "NULL"}},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			s := core.NewStore(sqldb.NewMemory())
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			def, err := pbxml.ParseExperiment(strings.NewReader(expXML))
			if err != nil {
				t.Fatal(err)
			}
			e, err := s.CreateExperiment(def)
			if err != nil {
				t.Fatal(err)
			}
			desc, err := pbxml.ParseInput(strings.NewReader(descXML))
			if err != nil {
				t.Fatal(err)
			}
			im, err := NewImporter(e, desc, Options{Missing: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			ids, err := im.ImportBytes("s.txt", []byte("a\n1\n"))
			if err != nil {
				t.Fatal(err)
			}
			data, err := e.RunData(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(data.Rows) != 1 {
				t.Fatalf("rows = %d, want 1", len(data.Rows))
			}
			for name, want := range tc.want {
				if got := data.Rows[0][data.Columns.Index(name)].SQL(); got != want {
					t.Errorf("%s = %s, want %s", name, got, want)
				}
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": UseDefault, "default": UseDefault, "empty": AllowEmpty,
		"discard": Discard, "FAIL": Fail,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("whatever"); err == nil {
		t.Error("unknown policy accepted")
	}
	if Fail.String() != "fail" || Policy(99).String() != "unknown" {
		t.Error("policy names")
	}
}

func TestOverrides(t *testing.T) {
	e, desc := setup(t)
	im, err := NewImporter(e, desc, Options{Overrides: map[string]string{
		"fs":    "nfs", // overrides the filename extraction
		"nodes": "16",  // overrides the named extraction
	}})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("a_ufs.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(ids[0])
	if once["fs"].Str() != "nfs" || once["nodes"].Int() != 16 {
		t.Errorf("overrides = %v %v", once["fs"], once["nodes"])
	}
	// mem_total derives from the overridden nodes.
	if once["mem_total"].Int() != 256*16 {
		t.Errorf("derived after override = %v", once["mem_total"])
	}
	if _, err := NewImporter(e, desc, Options{Overrides: map[string]string{"ghost": "1"}}); err == nil {
		t.Error("override of unknown variable accepted")
	}
}

func TestValidListRejection(t *testing.T) {
	e, desc := setup(t)
	im, _ := NewImporter(e, desc, Options{})
	// fs extracted as "zfs" which is not in the valid list.
	if _, err := im.ImportBytes("a_zfs_x.txt", []byte(sampleOut)); err == nil {
		t.Error("invalid fs content accepted")
	}
}

func TestImporterValidation(t *testing.T) {
	e, desc := setup(t)
	// Description for wrong experiment.
	wrong := *desc
	wrong.Experiment = "other"
	if _, err := NewImporter(e, &wrong, Options{}); err == nil {
		t.Error("wrong experiment accepted")
	}
	// Unknown variable in named location.
	badVar := *desc
	badVar.Named = append([]pbxml.NamedLocation{}, desc.Named...)
	badVar.Named[0].Variable = "ghost"
	if _, err := NewImporter(e, &badVar, Options{}); err == nil {
		t.Error("unknown named variable accepted")
	}
	// Bad regexp.
	badRe := *desc
	badRe.Named = append([]pbxml.NamedLocation{}, desc.Named...)
	badRe.Named[0].Match = ""
	badRe.Named[0].Regexp = "("
	if _, err := NewImporter(e, &badRe, Options{}); err == nil {
		t.Error("bad regexp accepted")
	}
	// Once variable in a tabular column.
	badTab := *desc
	badTab.Tabular = append([]pbxml.TabularLocation{}, desc.Tabular...)
	badTab.Tabular[0].Columns = append([]pbxml.TabColumn{}, desc.Tabular[0].Columns...)
	badTab.Tabular[0].Columns[0].Variable = "nodes"
	if _, err := NewImporter(e, &badTab, Options{}); err == nil {
		t.Error("once variable in tabular column accepted")
	}
	// Bad derived expression.
	badDer := *desc
	badDer.Derived = []pbxml.DerivedParam{{Variable: "mem_total", Expression: "1 +"}}
	if _, err := NewImporter(e, &badDer, Options{}); err == nil {
		t.Error("bad derived expression accepted")
	}
}

func TestNamedLocationModes(t *testing.T) {
	e, _ := setup(t)
	lines := []string{
		"runtime 10 s on 4 nodes",
		"value=42",
		"99 trailing text",
	}
	mk := func(n pbxml.NamedLocation, varName string) value.Value {
		t.Helper()
		v, ok := e.Var(varName)
		if !ok {
			t.Fatalf("no var %s", varName)
		}
		nl := namedLoc{spec: n, v: v}
		if n.Regexp != "" {
			nl.re = regexp.MustCompile(n.Regexp)
		}
		got, err := nl.extract(lines)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := mk(pbxml.NamedLocation{Variable: "nodes", Match: "on", Field: 1}, "nodes"); got.Int() != 4 {
		t.Errorf("field select = %v", got)
	}
	if got := mk(pbxml.NamedLocation{Variable: "nodes", Regexp: `value=(\d+)`}, "nodes"); got.Int() != 42 {
		t.Errorf("regexp capture = %v", got)
	}
	if got := mk(pbxml.NamedLocation{Variable: "nodes", Match: "trailing", Before: true}, "nodes"); got.Int() != 99 {
		t.Errorf("before mode = %v", got)
	}
	if got := mk(pbxml.NamedLocation{Variable: "host", Match: "runtime"}, "host"); got.Str() != "10 s on 4 nodes" {
		t.Errorf("whole remainder string = %q", got.Str())
	}
	if got := mk(pbxml.NamedLocation{Variable: "nodes", Match: "nomatch"}, "nodes"); !got.IsNull() {
		t.Errorf("unmatched location should be NULL, got %v", got)
	}
	// Line restriction.
	if got := mk(pbxml.NamedLocation{Variable: "nodes", Match: "value=", Line: 1}, "nodes"); !got.IsNull() {
		t.Errorf("line-restricted match on wrong line = %v", got)
	}
	if got := mk(pbxml.NamedLocation{Variable: "nodes", Match: "value=", Line: 2}, "nodes"); got.Int() != 42 {
		t.Errorf("line-restricted match = %v", got)
	}
}

func TestTabularCSVSeparator(t *testing.T) {
	e, _ := setup(t)
	descDoc := `
<input experiment="bench">
  <named variable="mode" regexp="# mode=(\w+)"/>
  <tabular start="chunk;op;bandwidth" sep=";">
    <column variable="chunk" pos="1"/>
    <column variable="op" pos="2"/>
    <column variable="bw" pos="3"/>
  </tabular>
</input>`
	_ = descDoc
	// The bench experiment has no "mode"; reuse host for the header.
	descDoc = `
<input experiment="bench">
  <named variable="host" match="host="/>
  <tabular start="chunk;op;bandwidth" sep=";">
    <column variable="chunk" pos="1"/>
    <column variable="op" pos="2"/>
    <column variable="bw" pos="3"/>
  </tabular>
</input>`
	desc, err := pbxml.ParseInput(strings.NewReader(descDoc))
	if err != nil {
		t.Fatal(err)
	}
	csvOut := "host= nodeB\nchunk;op;bandwidth\n32; write; 35.5\n1024 ; read ; 227.18\n"
	im, err := NewImporter(e, desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("csv.txt", []byte(csvOut))
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.RunData(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 2 {
		t.Fatalf("csv rows = %d", len(data.Rows))
	}
	oi := data.Columns.Index("op")
	bi := data.Columns.Index("bw")
	if data.Rows[1][oi].Str() != "read" || data.Rows[1][bi].Float() != 227.18 {
		t.Errorf("csv row = %v", data.Rows[1])
	}
}

func TestImportFilesFromDisk(t *testing.T) {
	e, desc := setup(t)
	dir := t.TempDir()
	var paths []string
	for i, content := range []string{sampleOut, strings.ReplaceAll(sampleOut, "-N 4", "-N 2")} {
		p := dir + "/" + []string{"bio_ufs_a.txt", "bio_nfs_b.txt"}[i]
		if err := osWriteFile(p, content); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	im, err := NewImporter(e, desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	info, err := e.Run(ids[0])
	if err != nil || !strings.HasSuffix(info.Source, "bio_ufs_a.txt") {
		t.Errorf("source = %q, %v", info.Source, err)
	}
	if _, err := im.ImportFile(dir + "/missing.txt"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := im.ImportFiles([]string{paths[0]}); err == nil {
		t.Error("duplicate re-import via ImportFiles accepted")
	}
}

func osWriteFile(path, content string) error {
	return writeAll(path, []byte(content))
}

func TestFixedLocationExtraction(t *testing.T) {
	e, desc := setup(t)
	d := *desc
	// Row 2 is "-N 4 T=10"; column 2 is "4".
	d.Fixed = []pbxml.FixedLocation{{Variable: "nodes", Row: 2, Col: 2}}
	d.Named = nil
	d.Derived = nil
	im, err := NewImporter(e, &d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("f_ufs.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(ids[0])
	if once["nodes"].Int() != 4 {
		t.Errorf("fixed location nodes = %v", once["nodes"])
	}
	// Out-of-range row/col yield NULL, not errors.
	d2 := *desc
	d2.Fixed = []pbxml.FixedLocation{
		{Variable: "nodes", Row: 999, Col: 1},
		{Variable: "mem", Row: 1, Col: 99},
	}
	d2.Named = nil
	d2.Derived = nil
	im2, err := NewImporter(e, &d2, Options{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	ids2, err := im2.ImportBytes("g_ufs.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	once2, _ := e.RunOnce(ids2[0])
	if !once2["nodes"].IsNull() || !once2["mem"].IsNull() {
		t.Errorf("out-of-range fixed locations should be NULL: %v %v",
			once2["nodes"], once2["mem"])
	}
}

func TestFilenameRegexpExtraction(t *testing.T) {
	e, desc := setup(t)
	d := *desc
	d.Filename = []pbxml.FilenameLocation{
		{Variable: "fs", Regexp: `bio-(\w+)-run`},
		{Variable: "nodes", Regexp: `run(\d+)`},
	}
	d.Named = nil // the named "-N" location would overwrite nodes
	d.Derived = nil
	im, err := NewImporter(e, &d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := im.ImportBytes("/some/dir/bio-nfs-run7.txt", []byte(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(ids[0])
	if once["fs"].Str() != "nfs" {
		t.Errorf("regexp filename fs = %v", once["fs"])
	}
	if once["nodes"].Int() != 7 {
		t.Errorf("regexp filename nodes = %v", once["nodes"])
	}
	// Unmatched regexp extracts nothing; fs falls back to its declared
	// default.
	ids2, err := im.ImportBytes("other.txt", []byte(strings.ReplaceAll(sampleOut, "v1.0", "v1.1")))
	if err != nil {
		t.Fatal(err)
	}
	once2, _ := e.RunOnce(ids2[0])
	if once2["fs"].Str() != "unknown" {
		t.Errorf("unmatched filename regexp = %v, want default", once2["fs"])
	}
}

func TestFixedValueElement(t *testing.T) {
	e, desc := setup(t)
	d := *desc
	d.Values = []pbxml.FixedValue{
		{Variable: "host", Content: "fixedhost"},
		{Variable: "fs", Content: "nfs"}, // extraction (filename) wins
	}
	im, err := NewImporter(e, &d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No hostname line → the fixed value fills host; fs comes from the
	// filename which takes precedence over the fixed value.
	ids, err := im.ImportBytes("x_ufs.txt", []byte(missingOut))
	if err != nil {
		t.Fatal(err)
	}
	once, _ := e.RunOnce(ids[0])
	if once["host"].Str() != "fixedhost" {
		t.Errorf("fixed value host = %v", once["host"])
	}
	if once["fs"].Str() != "ufs" {
		t.Errorf("fixed value should not override extraction: %v", once["fs"])
	}
	// Unparseable fixed value.
	bad := *desc
	bad.Values = []pbxml.FixedValue{{Variable: "nodes", Content: "many"}}
	imBad, err := NewImporter(e, &bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := imBad.ImportBytes("y_ufs.txt", []byte(sampleOut)); err == nil {
		t.Error("unparseable fixed value accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if UseDefault.String() != "default" || AllowEmpty.String() != "empty" ||
		Discard.String() != "discard" {
		t.Error("policy names")
	}
}

func writeAll(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
