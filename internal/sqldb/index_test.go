package sqldb

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"

	"perfbase/internal/value"
)

// TestIndexProbeInList: `col IN (lit, …)` is answered by the column's
// hash index, one lookup per item, and returns the rows a full scan of
// an unindexed copy returns — duplicate items, NULL items, items of no
// stored value, a second conjunct and NOT IN included — on the batch
// path and the row engine alike. EXPLAIN names the probe and its keys.
func TestIndexProbeInList(t *testing.T) {
	for _, vec := range []bool{true, false} {
		t.Run(fmt.Sprintf("vectorized=%v", vec), func(t *testing.T) {
			idx, scan := NewMemory(), NewMemory()
			for _, db := range []*DB{idx, scan} {
				db.SetVectorized(vec)
				mustExec(t, db, "CREATE TABLE runs (exp string, run_id integer, checksum string, active boolean)")
				var rows []string
				for i := 0; i < 300; i++ {
					rows = append(rows, fmt.Sprintf("('%s', %d, 'sum%d', %v)", []string{"a", "b"}[i%2], i, i%40, i%7 != 0))
				}
				mustExec(t, db, "INSERT INTO runs VALUES "+strings.Join(rows, ", ")+", ('a', 300, NULL, true)")
			}
			mustExec(t, idx, "CREATE INDEX ON runs (checksum)")
			mustExec(t, idx, "CREATE INDEX ON runs (run_id)")

			p := plan(t, idx, "EXPLAIN SELECT COUNT(*) FROM runs WHERE exp = 'a' AND checksum IN ('sum3', 'sum4') AND active")
			if !strings.Contains(p, "via hash index on checksum (2 keys)") {
				t.Errorf("IN-list plan:\n%s", p)
			}
			if p := plan(t, idx, "EXPLAIN SELECT * FROM runs WHERE checksum NOT IN ('sum3')"); strings.Contains(p, "hash index") {
				t.Errorf("NOT IN probes the index:\n%s", p)
			}
			for _, where := range []string{
				"checksum IN ('sum3')",
				"checksum IN ('sum3', 'sum4', 'sum3')",
				"checksum IN ('sum39', 'nosuch', 'sum0')",
				"checksum IN ('nosuch')",
				"checksum IN (NULL, 'sum5')",
				"checksum IN (NULL)",
				"exp = 'a' AND checksum IN ('sum3', 'sum4') AND active",
				"checksum IN ('sum1', 'sum2') AND run_id IN (1, 2, 41, 299)",
				"run_id IN (299, 0, 150, 0, 7)",
				"run_id IN (1.0, 2)",
				"checksum NOT IN ('sum1', 'sum2')",
			} {
				q := "SELECT run_id, checksum, active FROM runs WHERE " + where
				if got, want := fmtResult(mustExec(t, idx, q)), fmtResult(mustExec(t, scan, q)); got != want {
					t.Errorf("%s:\nprobe:\n%sscan:\n%s", q, got, want)
				}
				q = "SELECT COUNT(*) FROM runs WHERE " + where
				if got, want := fmtResult(mustExec(t, idx, q)), fmtResult(mustExec(t, scan, q)); got != want {
					t.Errorf("%s: probe %s, scan %s", q, got, want)
				}
			}
		})
	}
}

// TestHashIndexLayersAmortized: 10 000 one-row commits to an indexed
// table. A commit's share of the index copies nothing near the whole
// index: the bytes allocated per commit over the last 1 000 commits stay
// within twice those over the first 1 000. Every 500 commits the index's
// layers are O(log n) deep, and every key looks up the positions a
// freshly rebuilt index holds, in position order.
func TestHashIndexLayersAmortized(t *testing.T) {
	const commits, window, check = 10000, 1000, 500
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE t (k integer, v string)")
	mustExec(t, db, "CREATE INDEX ON t (k)")
	var ms runtime.MemStats
	alloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var first, last uint64 // bytes the commits of each window allocated
	for i := 0; i < commits; i++ {
		// Mostly distinct keys, and some repeated across many layers.
		k := int64(i)
		if i%5 == 0 {
			k = int64(i % 7)
		}
		before := alloc()
		if _, err := db.InsertRows("t", []string{"k", "v"}, []Row{{value.NewInt(k), value.NewString("x")}}); err != nil {
			t.Fatal(err)
		}
		switch {
		case i < window:
			first += alloc() - before
		case i >= commits-window:
			last += alloc() - before
		}
		if (i+1)%check != 0 {
			continue
		}
		tab := db.state.Load().cat.get("t")
		ix := tab.indexes["k"]
		depth := 0
		for l := ix; l != nil; l = l.parent {
			depth++
		}
		if limit := bits.Len(uint(i+1)) + 1; depth > limit {
			t.Fatalf("after %d commits the index has %d layers, want at most %d", i+1, depth, limit)
		}
		fresh := &hashIndex{}
		fresh.rebuildFrom(tab, tab.schema.Index("k"))
		for key, want := range fresh.buckets {
			if got := ix.lookupKey(key); !slices.Equal(got, want) {
				t.Fatalf("after %d commits key %x looks up %v, want %v", i+1, key, got, want)
			}
		}
	}
	t.Logf("bytes per commit: first %d commits %d, last %d commits %d", window, first/window, window, last/window)
	if last > 2*first {
		t.Errorf("the last %d commits allocated %d bytes, the first %d %d: commits grow with the index", window, last, window, first)
	}
}
