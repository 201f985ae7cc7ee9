package shard

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// TestPourThroughCoordinatorMatchesText: the coordinator routes text, so
// a pour step reaches it as the statement sqldb.RenderPour prints — and
// leaves the table that statement leaves when sent by hand, and the
// table a single node's native pour leaves; a pour over no table inserts
// nothing; a failing pour fails as its statement does.
func TestPourThroughCoordinatorMatchesText(t *testing.T) {
	c := NewLocal(2)
	defer c.Close()
	single := sqldb.NewMemory()
	var tables []string
	for i := 0; i < 5; i++ {
		name, v := fmt.Sprintf("r%d", i), "float"
		if i == 2 {
			v = "integer" // a table that needs a plan of its own
		}
		tables = append(tables, name)
		for _, sql := range []string{
			"CREATE TABLE " + name + " (k integer, v " + v + ", s string)",
			fmt.Sprintf("INSERT INTO %s VALUES (0, 1, 'a'), (%d, 3, NULL), (2, NULL, 'b''c'), (%d, 4, 'd')", name, i+1, i+3),
		} {
			mustExec(t, c, sql)
			mustExec(t, single, sql)
		}
	}
	step := func(from ...string) sqldb.PipelineRequest {
		r := sqldb.PipelineRequest{SQL: "SELECT k, (v * 0.5) AS v, s WHERE k > 0",
			Cols: []string{"fs", "score", "at", "k", "v", "s"}, From: append([]string{}, from...)}
		scores := []float64{math.NaN(), 2, math.Inf(1), 2.5, math.Inf(-1)}
		for i := range from {
			r.Rows = append(r.Rows, sqldb.Row{value.NewString([]string{"ufs", "it's"}[i%2]),
				value.NewFloat(scores[i%len(scores)]), value.NewTimestamp(time.Date(2005, 9, 1+i, 12, 0, 0, 500, time.UTC))})
		}
		return r
	}
	dump := func(q sqldb.Querier, table string) string {
		var rows []string
		for _, row := range mustExec(t, q, "SELECT * FROM "+table).Rows {
			var vals []string
			for _, v := range row {
				vals = append(vals, v.Type().String()+":"+v.SQL())
			}
			rows = append(rows, strings.Join(vals, " "))
		}
		sort.Strings(rows) // the cluster gathers in shard order
		return strings.Join(rows, "\n")
	}
	const dst = " (fs string, score float, at timestamp, k integer, v float, s string)"
	for i, tc := range []struct {
		name  string
		step  sqldb.PipelineRequest
		fails bool
	}{
		{"no table", step(), false},
		{"one table", step("r0"), false},
		{"five tables", step(tables...), false},
		{"missing table", step("r0", "nosuch"), true},
		{"arity", func() sqldb.PipelineRequest { r := step(tables...); r.Cols = r.Cols[1:]; return r }(), true},
	} {
		poured, text := tc.step, tc.step
		poured.Table, text.Table = fmt.Sprintf("p%d", i), fmt.Sprintf("t%d", i)
		pour := []sqldb.PipelineRequest{{SQL: "CREATE TABLE " + poured.Table + dst}, poured}
		_, pourErr := c.ExecPipeline(pour)
		if _, err := single.ExecPipeline(pour); (err != nil) != tc.fails {
			t.Fatalf("%s: single node: %v", tc.name, err)
		}
		insert, _, err := sqldb.RenderPour(text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reqs := []sqldb.PipelineRequest{{SQL: "CREATE TABLE " + text.Table + dst}}
		if insert != "" {
			reqs = append(reqs, sqldb.PipelineRequest{SQL: insert})
		}
		_, textErr := c.ExecPipeline(reqs)
		if (pourErr != nil) != tc.fails || fmt.Sprint(pourErr) != strings.ReplaceAll(fmt.Sprint(textErr), text.Table, poured.Table) {
			t.Fatalf("%s: poured: %v, as text: %v", tc.name, pourErr, textErr)
		}
		got := dump(c, poured.Table)
		if want := dump(c, text.Table); got != want {
			t.Errorf("%s: poured:\n%s\nas text:\n%s", tc.name, got, want)
		}
		if want := dump(single, poured.Table); got != want {
			t.Errorf("%s: through the coordinator:\n%s\non a single node:\n%s", tc.name, got, want)
		}
	}
}
