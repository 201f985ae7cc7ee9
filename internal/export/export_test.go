package export

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

const expDoc = `
<experiment>
  <name>archiveme</name>
  <info><synopsis>Archive round trip</synopsis></info>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype>
    <valid>ufs</valid><valid>nfs</valid><valid>unknown</valid><default>unknown</default></parameter>
  <parameter occurence="once"><name>when</name><datatype>timestamp</datatype></parameter>
  <parameter occurence="once"><name>rev</name><datatype>version</datatype></parameter>
  <parameter occurence="once"><name>note</name><datatype>string</datatype></parameter>
  <parameter><name>chunk</name><datatype>integer</datatype>
    <unit><base_unit>byte</base_unit></unit></parameter>
  <result><name>bw</name><datatype>float</datatype>
    <unit><fraction>
      <dividend><base_unit>byte</base_unit><scaling>Mega</scaling></dividend>
      <divisor><base_unit>s</base_unit></divisor>
    </fraction></unit></result>
  <result><name>ok</name><datatype>boolean</datatype></result>
</experiment>`

func seed(t *testing.T) (*core.Store, *core.Experiment) {
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
	when := time.Date(2005, 9, 27, 10, 30, 0, 0, time.UTC)
	if _, err := e.CreateRun(core.DataSet{
		"fs":   value.NewString("ufs"),
		"when": value.NewTimestamp(when),
		"rev":  value.NewVersion("2.6.10"),
		"note": value.NewString("a note with spaces, and = signs"),
	}, []core.DataSet{
		{"chunk": value.NewInt(32), "bw": value.NewFloat(35.5), "ok": value.NewBool(true)},
		{"chunk": value.NewInt(1024), "bw": value.NewFloat(227.18), "ok": value.NewBool(false)},
		{"chunk": value.NewInt(2048)}, // bw/ok NULL
	}, "orig1", "c1"); err != nil {
		t.Fatal(err)
	}
	// Second run with a NULL once value (no "when") and an all-NULL
	// data row.
	if _, err := e.CreateRun(core.DataSet{"fs": value.NewString("nfs")}, []core.DataSet{
		{}, // fully NULL row
		{"chunk": value.NewInt(64), "bw": value.NewFloat(1.25)},
	}, "orig2", "c2"); err != nil {
		t.Fatal(err)
	}
	return s, e
}

func TestArchiveRoundTrip(t *testing.T) {
	_, e := seed(t)
	dir := t.TempDir()
	n, err := WriteArchive(e, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("exported runs = %d", n)
	}
	for _, f := range []string{"experiment.xml", "input.xml", "run_000001.txt", "run_000002.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("archive file %s: %v", f, err)
		}
	}

	// Restore into a fresh store.
	s2 := core.NewStore(sqldb.NewMemory())
	if err := s2.Init(); err != nil {
		t.Fatal(err)
	}
	e2, ids, err := Restore(s2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("restored runs = %v", ids)
	}
	if e2.Name() != "archiveme" {
		t.Errorf("restored name = %q", e2.Name())
	}
	// Units survive the round trip.
	bw, ok := e2.Var("bw")
	if !ok || bw.Unit.String() != "MB/s" {
		t.Errorf("restored bw unit = %v", bw.Unit)
	}
	chunk, _ := e2.Var("chunk")
	if chunk.Unit.String() != "B" {
		t.Errorf("restored chunk unit = %v", chunk.Unit)
	}
	// Valid lists and defaults survive.
	fs, _ := e2.Var("fs")
	if len(fs.Valid) != 3 || fs.Default.Str() != "unknown" {
		t.Errorf("restored fs constraints = %v / %v", fs.Valid, fs.Default)
	}

	// Once values round-trip exactly.
	once, err := e2.RunOnce(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if once["fs"].Str() != "ufs" || once["rev"].Str() != "2.6.10" {
		t.Errorf("restored once = %v", once)
	}
	if once["note"].Str() != "a note with spaces, and = signs" {
		t.Errorf("restored note = %q", once["note"].Str())
	}
	if once["when"].Time().Format(time.RFC3339) != "2005-09-27T10:30:00Z" {
		t.Errorf("restored when = %v", once["when"])
	}
	once2, err := e2.RunOnce(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !once2["when"].IsNull() {
		t.Errorf("NULL once value resurrected as %v", once2["when"])
	}
	// AllowEmpty restore must not turn the absent value into the
	// default... except fs was explicitly set. The note variable was
	// never set in run 2:
	if !once2["note"].IsNull() {
		t.Errorf("missing note = %v, want NULL", once2["note"])
	}

	// Data sets round-trip including NULL cells and the all-NULL row.
	data, err := e2.RunData(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 3 {
		t.Fatalf("run1 rows = %d", len(data.Rows))
	}
	ci := data.Columns.Index("chunk")
	bi := data.Columns.Index("bw")
	oi := data.Columns.Index("ok")
	var got2048 bool
	for _, row := range data.Rows {
		switch row[ci].Int() {
		case 32:
			if row[bi].Float() != 35.5 || !row[oi].Bool() {
				t.Errorf("row 32 = %v", row)
			}
		case 1024:
			if row[bi].Float() != 227.18 || row[oi].Bool() {
				t.Errorf("row 1024 = %v", row)
			}
		case 2048:
			got2048 = true
			if !row[bi].IsNull() || !row[oi].IsNull() {
				t.Errorf("row 2048 NULLs = %v", row)
			}
		}
	}
	if !got2048 {
		t.Error("NULL-bearing row lost")
	}
	data2, err := e2.RunData(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(data2.Rows) != 2 {
		t.Fatalf("run2 rows = %d (all-NULL row must survive)", len(data2.Rows))
	}
}

func TestArchiveErrors(t *testing.T) {
	_, e := seed(t)
	if _, err := WriteArchive(e, "/proc/definitely/not/writable"); err == nil {
		t.Error("unwritable dir accepted")
	}
	s2 := core.NewStore(sqldb.NewMemory())
	if err := s2.Init(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(s2, t.TempDir()); err == nil {
		t.Error("empty dir restored")
	}
	// Restoring twice collides on the experiment name.
	dir := t.TempDir()
	if _, err := WriteArchive(e, dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(s2, dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(s2, dir); err == nil {
		t.Error("double restore accepted")
	}
}

func TestFlatten(t *testing.T) {
	if got := flatten("a\tb\nc\rd"); got != "a b c d" {
		t.Errorf("flatten = %q", got)
	}
}
