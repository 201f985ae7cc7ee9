package perfbase

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/pbxml"
)

// Two descriptions of the tiny experiment that differ in one named
// location: mode comes from the "mode:" line or from the "alt:" line.
var (
	descModeA = tinyInput
	descModeB = strings.Replace(tinyInput, `match="mode:"`, `match="alt:"`, 1)
)

// modeFile writes a tiny run file whose "mode:" and "alt:" lines differ;
// tag makes its content, and so its fingerprint, unique.
func modeFile(t *testing.T, tag string) string {
	t.Helper()
	return writeTemp(t, tag+".txt", "# "+tag+"\nmode: fast\nalt: slow\nn t\n1 0.5\n2 1.5\n")
}

// importMode imports one file with desc and returns the mode its run
// stored.
func importMode(s *Session, desc, file string) (string, error) {
	ids, err := s.Import("tiny", strings.NewReader(desc), ImportOptions{}, file)
	if err != nil {
		return "", err
	}
	exp, err := s.Experiment("tiny")
	if err != nil {
		return "", err
	}
	once, err := exp.RunOnce(ids[0])
	if err != nil {
		return "", err
	}
	return once["mode"].Str(), nil
}

// TestImportDescriptionAlternates: a session keeps one description, the
// last it parsed, so A, B, A parses three times, and each import stores
// what its own description says.
func TestImportDescriptionAlternates(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct{ desc, want string }{
		{descModeA, "fast"}, {descModeB, "slow"}, {descModeA, "fast"}, {descModeA, "fast"},
	} {
		got, err := importMode(s, step.desc, modeFile(t, fmt.Sprint("f", i)))
		if err != nil {
			t.Fatalf("import %d: %v", i, err)
		}
		if got != step.want {
			t.Errorf("import %d: mode = %q, want %q", i, got, step.want)
		}
	}
}

// TestImportDescriptionInvalidRefused: a description that fails to parse,
// to validate or to bind to the experiment is refused after a valid one
// was kept, and the valid one still imports afterwards.
func TestImportDescriptionInvalidRefused(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	if _, err := importMode(s, descModeA, modeFile(t, "a")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		descModeA[:len(descModeA)/2],                                     // cut short: no XML
		strings.Replace(descModeA, ` match="mode:"`, "", 1),              // a named location without a match
		strings.Replace(descModeA, `variable="mode"`, `variable="x"`, 1), // an unknown variable
	} {
		if ids, err := s.Import("tiny", strings.NewReader(bad), ImportOptions{}, modeFile(t, "bad")); err == nil {
			t.Errorf("invalid description imported runs %v:\n%s", ids, bad)
		}
	}
	if got, err := importMode(s, descModeA, modeFile(t, "b")); err != nil || got != "fast" {
		t.Errorf("valid description after invalid ones: mode %q, %v", got, err)
	}
}

// TestImportDescriptionOtherExperiment: the experiment a description
// names is checked on every import, also when the description is kept.
func TestImportDescriptionOtherExperiment(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	for _, def := range []string{tinyExp, strings.Replace(tinyExp, "<name>tiny</name>", "<name>other</name>", 1)} {
		if _, err := s.Setup(strings.NewReader(def)); err != nil {
			t.Fatal(err)
		}
	}
	other := strings.Replace(descModeA, `experiment="tiny"`, `experiment="other"`, 1)
	if _, err := s.Import("other", strings.NewReader(other), ImportOptions{}, modeFile(t, "a")); err != nil {
		t.Fatal(err)
	}
	if ids, err := s.Import("tiny", strings.NewReader(other), ImportOptions{}, modeFile(t, "b")); err == nil ||
		!strings.Contains(err.Error(), `is for "other"`) {
		t.Errorf("a kept description for another experiment: runs %v, err %v", ids, err)
	}
	if _, err := s.ImportMerged("tiny", []MergedInput{{DescXML: strings.NewReader(other), File: modeFile(t, "c")}},
		ImportOptions{}); err == nil {
		t.Error("merged import of a kept description for another experiment accepted")
	}
}

// TestImportDescriptionKeptUnchanged: imports that use overrides, fixed
// values, derived parameters and a run separator leave the kept
// description as a fresh parse of its text.
func TestImportDescriptionKeptUnchanged(t *testing.T) {
	const exp = `
<experiment>
  <name>rich</name>
  <parameter occurence="once"><name>mode</name><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>host</name><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>nodes</name><datatype>integer</datatype></parameter>
  <parameter><name>n</name><datatype>integer</datatype></parameter>
  <result><name>t</name><datatype>float</datatype></result>
  <result><name>tn</name><datatype>float</datatype></result>
</experiment>`
	const desc = `
<input experiment="rich">
  <named variable="mode" match="mode:"/>
  <value variable="host" content="grisu"/>
  <value variable="nodes" content="1"/>
  <derived variable="tn" expression="t / nodes"/>
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
  <separator match="=== end"/>
</input>`
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(exp)); err != nil {
		t.Fatal(err)
	}
	run := "mode: fast\nn t\n1 2.0\n2 4.0\n=== end\nmode: slow\nn t\n1 8.0\n=== end\n"
	for i, opts := range []ImportOptions{
		{Overrides: map[string]string{"nodes": "4", "host": "cmd"}},
		{Missing: MissingEmpty},
		{Force: true, Overrides: map[string]string{"nodes": "2"}},
	} {
		ids, err := s.Import("rich", strings.NewReader(desc), opts, writeTemp(t, fmt.Sprint("r", i, ".txt"), fmt.Sprint("# ", i, "\n", run)))
		if err != nil {
			t.Fatalf("import %d: %v", i, err)
		}
		if len(ids) != 2 {
			t.Fatalf("import %d: runs %v, want 2", i, ids)
		}
	}
	e, err := s.Experiment("rich")
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.RunData(1)
	if err != nil {
		t.Fatal(err)
	}
	if tn := data.Rows[1][data.Columns.Index("tn")].Float(); tn != 1 {
		t.Errorf("run 1: tn = %v, want 4.0 / 4", tn)
	}
	fresh, err := pbxml.ParseInput(strings.NewReader(desc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.desc, fresh) {
		t.Errorf("kept description changed by imports:\n%+v\nfresh:\n%+v", s.desc, fresh)
	}
}

// TestImportDescriptionShared: two goroutines share one session and
// import with A and B in turn; every run stores what the description it
// was imported with says.
func TestImportDescriptionShared(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Setup(strings.NewReader(tinyExp)); err != nil {
		t.Fatal(err)
	}
	const imports = 20
	files := make([][]string, 2)
	for g := range files {
		for i := 0; i < imports; i++ {
			files[g] = append(files[g], modeFile(t, fmt.Sprintf("g%d_%d", g, i)))
		}
	}
	var wg sync.WaitGroup
	for g := range files {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, f := range files[g] {
				desc, want := descModeA, "fast"
				if (g+i)%2 == 1 {
					desc, want = descModeB, "slow"
				}
				if got, err := importMode(s, desc, f); err != nil || got != want {
					t.Errorf("goroutine %d import %d: mode %q, %v; want %q", g, i, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
