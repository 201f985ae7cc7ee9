package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfbase/internal/beffio"
)

// cli runs one perfbase invocation against a database under dir and
// returns its stdout.
func cli(t *testing.T, dir string, args ...string) string {
	t.Helper()
	var sb strings.Builder
	full := append([]string{"-db", filepath.Join(dir, "db")}, args...)
	if err := run(full, &sb); err != nil {
		t.Fatalf("perfbase %v: %v", args, err)
	}
	return sb.String()
}

// cliErr expects the invocation to fail.
func cliErr(t *testing.T, dir string, args ...string) error {
	t.Helper()
	var sb strings.Builder
	full := append([]string{"-db", filepath.Join(dir, "db")}, args...)
	err := run(full, &sb)
	if err == nil {
		t.Fatalf("perfbase %v unexpectedly succeeded:\n%s", args, sb.String())
	}
	return err
}

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const expXML = `
<experiment>
  <name>cli</name>
  <info><synopsis>CLI test</synopsis></info>
  <parameter occurence="once"><name>mode</name><datatype>string</datatype></parameter>
  <parameter><name>n</name><datatype>integer</datatype></parameter>
  <result><name>t</name><datatype>float</datatype></result>
</experiment>`

const inXML = `
<input experiment="cli">
  <named variable="mode" match="mode:"/>
  <tabular start="n t">
    <column variable="n" pos="1"/>
    <column variable="t" pos="2"/>
  </tabular>
</input>`

const qXML = `
<query experiment="cli">
  <source id="s"><parameter name="n"/><value name="t"/></source>
  <operator id="m" type="avg" input="s"/>
  <output input="m" format="ascii"/>
</query>`

const outTxt = "mode: quick\nn t\n1 2.0\n2 4.0\n"

func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	spec := write(t, dir, "q.xml", qXML)
	data := write(t, dir, "run1.txt", outTxt)

	out := cli(t, dir, "setup", "-def", def)
	if !strings.Contains(out, "created experiment cli") {
		t.Errorf("setup output: %s", out)
	}
	out = cli(t, dir, "ls")
	if strings.TrimSpace(out) != "cli" {
		t.Errorf("ls output: %q", out)
	}
	out = cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	if !strings.Contains(out, "imported 1 run(s): 1") {
		t.Errorf("input output: %s", out)
	}
	out = cli(t, dir, "info", "-exp", "cli")
	for _, want := range []string{"experiment: cli", "CLI test", "mode", "runs: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("info missing %q:\n%s", want, out)
		}
	}
	out = cli(t, dir, "runs", "-exp", "cli")
	if !strings.Contains(out, "run1.txt") {
		t.Errorf("runs output:\n%s", out)
	}
	out = cli(t, dir, "dump", "-exp", "cli", "-run", "1")
	if !strings.Contains(out, "mode") || !strings.Contains(out, "quick") {
		t.Errorf("dump output:\n%s", out)
	}
	out = cli(t, dir, "query", "-spec", spec, "-profile")
	if !strings.Contains(out, "t [") && !strings.Contains(out, "t\n") {
		t.Errorf("query output:\n%s", out)
	}
	if !strings.Contains(out, "# elements ") || !strings.Contains(out, "# total ") {
		t.Errorf("profile output missing:\n%s", out)
	}
	out = cli(t, dir, "check", "-exp", "cli")
	if !strings.Contains(out, "complete") {
		t.Errorf("check output:\n%s", out)
	}
	out = cli(t, dir, "delete", "-exp", "cli", "-run", "1")
	if !strings.Contains(out, "deleted run 1") {
		t.Errorf("delete output:\n%s", out)
	}
	out = cli(t, dir, "destroy", "-exp", "cli")
	if !strings.Contains(out, "destroyed") {
		t.Errorf("destroy output:\n%s", out)
	}
	out = cli(t, dir, "ls")
	if strings.TrimSpace(out) != "" {
		t.Errorf("ls after destroy: %q", out)
	}
}

func TestCLIInputPoliciesAndForce(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	data := write(t, dir, "run1.txt", outTxt)
	cli(t, dir, "setup", "-def", def)
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	// Duplicate refused, force accepted.
	cliErr(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, "-force", data)
	// Override.
	data2 := write(t, dir, "run2.txt", strings.Replace(outTxt, "quick", "slow", 1))
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, "-set", "mode=manual", data2)
	out := cli(t, dir, "dump", "-exp", "cli", "-run", "3")
	if !strings.Contains(out, "manual") {
		t.Errorf("override not applied:\n%s", out)
	}
	// Bad policy name.
	cliErr(t, dir, "input", "-exp", "cli", "-desc", desc, "-missing", "whatever", data)
	// Bad -set syntax.
	cliErr(t, dir, "input", "-exp", "cli", "-desc", desc, "-set", "oops", data)
}

func TestCLIQueryOutputsToFiles(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	data := write(t, dir, "run1.txt", outTxt)
	spec := write(t, dir, "q.xml", strings.Replace(qXML,
		`format="ascii"`, `format="gnuplot" style="bars" target="plot.gp"`, 1))
	cli(t, dir, "setup", "-def", def)
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	outDir := filepath.Join(dir, "results")
	out := cli(t, dir, "query", "-spec", spec, "-out", outDir)
	if !strings.Contains(out, "wrote") {
		t.Errorf("query output:\n%s", out)
	}
	content, err := os.ReadFile(filepath.Join(outDir, "plot.gp"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "with boxes") {
		t.Errorf("plot file content:\n%s", content)
	}
}

func TestCLIParallelQuery(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	data := write(t, dir, "run1.txt", outTxt)
	spec := write(t, dir, "q.xml", qXML)
	cli(t, dir, "setup", "-def", def)
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	out := cli(t, dir, "query", "-spec", spec, "-parallel", "2")
	if !strings.Contains(out, "t") {
		t.Errorf("parallel query output:\n%s", out)
	}
	out = cli(t, dir, "query", "-spec", spec, "-parallel", "2", "-tcp")
	if !strings.Contains(out, "t") {
		t.Errorf("tcp parallel query output:\n%s", out)
	}
}

func TestCLIBeffioPipeline(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", strings.TrimSpace(beffio.ExperimentXML))
	desc := write(t, dir, "in.xml", strings.TrimSpace(beffio.InputXML))
	paths, err := beffio.GenerateFiles(dir, "site", beffio.SweepConfigs(
		[]string{"listbased"}, []string{"ufs"}, []int{4}, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	cli(t, dir, "setup", "-def", def)
	args := append([]string{"input", "-exp", "b_eff_io", "-desc", desc, "-missing", "fail"}, paths...)
	out := cli(t, dir, args...)
	if !strings.Contains(out, "imported 2 run(s)") {
		t.Errorf("beffio import:\n%s", out)
	}
	out = cli(t, dir, "check", "-exp", "b_eff_io")
	if !strings.Contains(out, "complete") {
		t.Errorf("beffio check:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{}, &strings.Builder{}); err == nil {
		t.Error("no command accepted")
	}
	cliErr(t, dir, "frobnicate")
	cliErr(t, dir, "setup")                     // missing -def
	cliErr(t, dir, "setup", "-def", "/missing") // missing file
	cliErr(t, dir, "input", "-exp", "x")        // missing -desc
	cliErr(t, dir, "query")                     // missing -spec
	cliErr(t, dir, "info", "-exp", "ghost")     // unknown experiment
	cliErr(t, dir, "dump", "-exp", "g")         // missing -run
	cliErr(t, dir, "delete", "-exp", "g")       // missing -run
	cliErr(t, dir, "destroy", "-exp", "ghost")  // unknown experiment
	cliErr(t, dir, "runs", "-exp", "ghost")     // unknown experiment
}

func TestCLISuspect(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	cli(t, dir, "setup", "-def", def)
	// Five stable runs, then one with a wild outlier.
	for i := 0; i < 5; i++ {
		data := write(t, dir, fmt.Sprintf("r%d.txt", i),
			fmt.Sprintf("mode: quick\nn t\n1 2.0%d\n2 4.0%d\n", i, i))
		cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	}
	bad := write(t, dir, "bad.txt", "mode: quick\nn t\n1 99.0\n2 4.02\n")
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, bad)

	out := cli(t, dir, "suspect", "-exp", "cli", "-value", "t")
	if !strings.Contains(out, "99.000") || !strings.Contains(out, "n=1") {
		t.Errorf("suspect scan output:\n%s", out)
	}
	out = cli(t, dir, "suspect", "-exp", "cli", "-value", "t", "-latest", "-threshold", "10000")
	if !strings.Contains(out, "no deviation") {
		t.Errorf("suspect latest high threshold:\n%s", out)
	}
	out = cli(t, dir, "suspect", "-exp", "cli", "-value", "t", "-latest", "-threshold", "50", "-group", "n")
	if !strings.Contains(out, "n=1") {
		t.Errorf("suspect latest output:\n%s", out)
	}
	out = cli(t, dir, "suspect", "-exp", "cli", "-value", "t", "-k", "1000000")
	if !strings.Contains(out, "no data point") {
		t.Errorf("suspect huge k:\n%s", out)
	}
	cliErr(t, dir, "suspect", "-exp", "cli")
	cliErr(t, dir, "suspect", "-exp", "cli", "-value", "ghost")
}

func TestCLISQL(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	data := write(t, dir, "run1.txt", outTxt)
	cli(t, dir, "setup", "-def", def)
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)
	out := cli(t, dir, "sql", "SELECT name FROM pb_experiments")
	if !strings.Contains(out, "cli") {
		t.Errorf("sql select:\n%s", out)
	}
	out = cli(t, dir, "sql", "SELECT", "COUNT(*)", "FROM", "cli_run_1")
	if !strings.Contains(out, "2") {
		t.Errorf("sql multi-arg:\n%s", out)
	}
	out = cli(t, dir, "sql", "CREATE TABLE scratch (a integer)")
	if !strings.Contains(out, "ok") {
		t.Errorf("sql ddl:\n%s", out)
	}
	cliErr(t, dir, "sql")
	cliErr(t, dir, "sql", "SELEC nonsense")
}

func TestCLIUpdate(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	cli(t, dir, "setup", "-def", def)
	evolved := strings.Replace(expXML,
		`<result><name>t</name><datatype>float</datatype></result>`,
		`<result><name>t</name><datatype>float</datatype></result>
		 <result><name>err</name><datatype>float</datatype></result>`, 1)
	def2 := write(t, dir, "exp2.xml", evolved)
	out := cli(t, dir, "update", "-def", def2)
	if !strings.Contains(out, "now 4 variables") {
		t.Errorf("update output: %s", out)
	}
	out = cli(t, dir, "info", "-exp", "cli")
	if !strings.Contains(out, "err") {
		t.Errorf("evolved variable missing:\n%s", out)
	}
	cliErr(t, dir, "update")
	cliErr(t, dir, "update", "-def", "/missing.xml")
}

func TestCLIExportRestore(t *testing.T) {
	dir := t.TempDir()
	def := write(t, dir, "exp.xml", expXML)
	desc := write(t, dir, "in.xml", inXML)
	data := write(t, dir, "run1.txt", outTxt)
	cli(t, dir, "setup", "-def", def)
	cli(t, dir, "input", "-exp", "cli", "-desc", desc, data)

	arch := filepath.Join(dir, "archive")
	out := cli(t, dir, "export", "-exp", "cli", "-out", arch)
	if !strings.Contains(out, "archived experiment cli with 1 run(s)") {
		t.Errorf("export output: %s", out)
	}
	// Restore into a second database.
	dir2 := t.TempDir()
	out = cli(t, dir2, "restore", "-in", arch)
	if !strings.Contains(out, "restored experiment cli with 1 run(s)") {
		t.Errorf("restore output: %s", out)
	}
	out = cli(t, dir2, "dump", "-exp", "cli", "-run", "1")
	if !strings.Contains(out, "quick") || !strings.Contains(out, "data sets: 2") {
		t.Errorf("restored dump:\n%s", out)
	}
	cliErr(t, dir, "export", "-exp", "cli") // missing -out
	cliErr(t, dir, "restore")               // missing -in
	cliErr(t, dir2, "restore", "-in", arch) // name collision
	cliErr(t, dir, "export", "-exp", "ghost", "-out", arch)
}
