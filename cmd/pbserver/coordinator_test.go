package main

import (
	"sort"
	"strings"
	"testing"

	"perfbase/internal/core"
	"perfbase/internal/pbxml"
	"perfbase/internal/shard"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
	"perfbase/internal/value"
)

const coordExpV1 = `
<experiment>
  <name>coord</name>
  <info><synopsis>coordinator</synopsis></info>
  <parameter occurence="once"><name>fs</name><datatype>string</datatype></parameter>
  <parameter><name>chunk</name><datatype>integer</datatype></parameter>
  <result><name>bw</name><datatype>float</datatype></result>
</experiment>`

// coordExpV2 adds the result "iops" and retypes "chunk", the first
// multi-occurrence variable: the column every run's data table leads
// with, which a cluster partitions the table by.
var coordExpV2 = strings.Replace(strings.Replace(coordExpV1,
	`<name>chunk</name><datatype>integer</datatype>`, `<name>chunk</name><datatype>float</datatype>`, 1),
	`</experiment>`, `  <result><name>iops</name><datatype>float</datatype></result>
</experiment>`, 1)

func coordDef(t *testing.T, doc string) *pbxml.Experiment {
	t.Helper()
	def, err := pbxml.ParseExperiment(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// serveCoordinator serves c over the wire and returns a store on a
// client connection.
func serveCoordinator(t *testing.T, c *shard.Cluster) (*core.Store, func()) {
	t.Helper()
	srv := wire.NewBackendServer(c)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return core.NewStore(client), func() {
		client.Close()
		srv.Close()
	}
}

// coordRuns are the two imports of the script: one before the Update,
// in the old schema, and one after it, in the new.
var coordRuns = []struct {
	once core.DataSet
	sets []core.DataSet
}{
	{core.DataSet{"fs": value.NewString("ufs")}, []core.DataSet{
		{"chunk": value.NewInt(32), "bw": value.NewFloat(10)},
		{"chunk": value.NewInt(64), "bw": value.NewFloat(12)},
		{"chunk": value.NewInt(128), "bw": value.NewFloat(15)},
	}},
	{core.DataSet{"fs": value.NewString("nfs")}, []core.DataSet{
		{"chunk": value.NewFloat(0.5), "bw": value.NewFloat(5), "iops": value.NewFloat(100)},
		{"chunk": value.NewFloat(1.5), "bw": value.NewFloat(6), "iops": value.NewFloat(90)},
	}},
}

// evolve runs the script up to the Update on store: Init,
// CreateExperiment, the first run, the Update.
func evolve(t *testing.T, store *core.Store) *core.Experiment {
	t.Helper()
	if err := store.Init(); err != nil {
		t.Fatal(err)
	}
	e, err := store.CreateExperiment(coordDef(t, coordExpV1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateRun(coordRuns[0].once, coordRuns[0].sets, "r1.txt", "r1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(coordDef(t, coordExpV2)); err != nil {
		t.Fatalf("update: %v", err)
	}
	return e
}

// importAfter imports the second run, in the evolved schema.
func importAfter(t *testing.T, store *core.Store) {
	t.Helper()
	e, err := store.OpenExperiment("coord")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateRun(coordRuns[1].once, coordRuns[1].sets, "r2.txt", "r2"); err != nil {
		t.Fatal(err)
	}
}

// runDump renders every run's data sorted by row, and its key-routed
// lookups, so stores that keep rows in different orders compare.
func runDump(t *testing.T, store *core.Store) string {
	t.Helper()
	e, err := store.OpenExperiment("coord")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range runs {
		res, err := e.RunData(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cols, rows []string
		for _, c := range res.Columns {
			cols = append(cols, c.Name+" "+c.Type.String())
		}
		for _, row := range res.Rows {
			var vals []string
			for _, v := range row {
				vals = append(vals, v.SQL())
			}
			rows = append(rows, strings.Join(vals, ", "))
		}
		sort.Strings(rows)
		sb.WriteString("run " + value.NewInt(r.ID).SQL() + ": " + strings.Join(cols, ", ") + "\n  " + strings.Join(rows, "\n  ") + "\n")
		for _, key := range []string{"NULL", "1.5"} {
			op := " = "
			if key == "NULL" {
				op = " IS "
			}
			res, err := store.Querier().Exec("SELECT COUNT(*) FROM " + e.DataTable(r.ID) + " WHERE chunk" + op + key)
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString("  chunk" + op + key + ": " + res.Rows[0][0].SQL() + "\n")
		}
	}
	return sb.String()
}

// TestCoordinatorModes drives a core store through pbserver's
// coordinator over the wire, in each of its setups: Init,
// CreateExperiment, a run, and an Update that adds a result and retypes
// the first multi-occurrence variable — the partition key of every
// run's data table — then a run in the new schema. The run data must
// be what an embedded store holds after the same steps. A durable
// coordinator is closed and reopened between the Update and the second
// run: the partition map it rebuilds from the shards must route the
// altered tables.
func TestCoordinatorModes(t *testing.T) {
	embedded := core.NewStore(sqldb.NewMemory())
	evolve(t, embedded)
	importAfter(t, embedded)
	want := runDump(t, embedded)

	check := func(t *testing.T, store *core.Store) {
		t.Helper()
		if got := runDump(t, store); got != want {
			t.Fatalf("coordinator run data:\n%s\nembedded store:\n%s", got, want)
		}
	}

	t.Run("mem", func(t *testing.T) {
		c, err := openCoordinator("", true, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		store, stop := serveCoordinator(t, c)
		defer stop()
		evolve(t, store)
		importAfter(t, store)
		check(t, store)
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		c, err := openCoordinator(dir, false, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		store, stop := serveCoordinator(t, c)
		evolve(t, store)
		stop()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = openCoordinator(dir, false, 2, ""); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		store, stop = serveCoordinator(t, c)
		defer stop()
		importAfter(t, store)
		check(t, store)
	})

	t.Run("shard-addrs", func(t *testing.T) {
		var addrs []string
		for range 2 {
			db := sqldb.NewMemory()
			srv := wire.NewServer(db)
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close(); db.Close() })
			addrs = append(addrs, srv.Addr())
		}
		c, err := openCoordinator("", false, 0, strings.Join(addrs, ";"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.NumShards() != 2 {
			t.Fatalf("coordinator over %q has %d shards", addrs, c.NumShards())
		}
		store, stop := serveCoordinator(t, c)
		defer stop()
		evolve(t, store)
		importAfter(t, store)
		check(t, store)
	})
}
