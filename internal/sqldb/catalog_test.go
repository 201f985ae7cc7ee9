package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// collidingKeys brute-forces groups of distinct keys with equal catHash
// (a 32-bit hash: a few hundred thousand candidates hold dozens of
// pairs), so the bucket path is exercised with real keys rather than
// through a test hook in the production code.
func collidingKeys(t testing.TB, groups int) [][]string {
	seen := make(map[uint32]string, 1<<19)
	var out [][]string
	for i := 0; len(out) < groups; i++ {
		if i > 4_000_000 {
			t.Fatalf("found only %d colliding key groups", len(out))
		}
		k := fmt.Sprintf("c%d", i)
		h := catHash(k)
		if prev, ok := seen[h]; ok {
			out = append(out, []string{prev, k})
			continue
		}
		seen[h] = k
	}
	return out
}

// catShape counts a catalog's nodes and tables by walking it.
func catShape(n *catNode) (nodes, tables int) {
	if n == nil {
		return 0, 0
	}
	nodes = 1
	for _, s := range n.slots {
		if s.kid != nil {
			kn, kt := catShape(s.kid)
			nodes, tables = nodes+kn, tables+kt
		} else {
			tables++
		}
	}
	return nodes, tables
}

// checkCatalog verifies c against the model: same length, every model
// key found with the model's table, and iteration yields exactly the
// model.
func checkCatalog(t *testing.T, what string, c catalog, model map[string]*table) {
	t.Helper()
	if c.len() != len(model) {
		t.Fatalf("%s: len = %d, model has %d", what, c.len(), len(model))
	}
	for k, want := range model {
		if got := c.get(k); got != want {
			t.Fatalf("%s: get(%q) = %p, want %p", what, k, got, want)
		}
	}
	n := 0
	for tb := range c.all() {
		if model[tb.key] != tb {
			t.Fatalf("%s: all() yielded %q, not in the model", what, tb.key)
		}
		n++
	}
	if n != len(model) {
		t.Fatalf("%s: all() yielded %d tables, want %d", what, n, len(model))
	}
	if _, tables := catShape(c.root); tables != len(model) {
		t.Fatalf("%s: trie holds %d tables, want %d", what, tables, len(model))
	}
}

// TestCatalogModel drives 50 000 random set/delete against a builtin
// map over a key universe that includes full-hash collisions, retains
// every 100th intermediate catalog with a copy of the model as it was,
// and re-verifies all of them at the end: later changes must never show
// through an old catalog. The final trie must also have the canonical
// shape of its key set, whatever the history.
func TestCatalogModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys []string
	for _, g := range collidingKeys(t, 12) {
		keys = append(keys, g...)
	}
	for i := 0; len(keys) < 1500; i++ {
		keys = append(keys, fmt.Sprintf("exp_run_%d", i))
	}
	type version struct {
		c     catalog
		model map[string]*table
	}
	var kept []version
	var c catalog
	model := map[string]*table{}
	for step := 0; step < 50_000; step++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(3) == 0 {
			c = c.delete(k)
			delete(model, k)
		} else {
			tb := &table{name: k, key: k, ver: int64(step)}
			c = c.set(tb)
			model[k] = tb
		}
		if missing := "never/set"; c.get(missing) != nil || c.delete(missing) != c {
			t.Fatalf("step %d: absent key found or deleted", step)
		}
		if step%100 == 0 {
			m := make(map[string]*table, len(model))
			for k, v := range model {
				m[k] = v
			}
			kept = append(kept, version{c, m})
		}
	}
	checkCatalog(t, "final", c, model)
	for i, v := range kept {
		checkCatalog(t, fmt.Sprintf("retained version %d", i), v.c, v.model)
	}

	var fresh catalog
	for _, tb := range model {
		fresh = fresh.set(tb)
	}
	gotNodes, _ := catShape(c.root)
	wantNodes, _ := catShape(fresh.root)
	if gotNodes != wantNodes {
		t.Errorf("trie not canonical: %d nodes after 50k operations, %d when built from its key set", gotNodes, wantNodes)
	}
	for k := range model {
		c = c.delete(k)
	}
	if c.root != nil || c.len() != 0 {
		t.Errorf("catalog not empty after deleting every key: root=%v len=%d", c.root, c.len())
	}
}

// TestCatalogCollisions: keys with equal hashes live together in a
// bucket, survive each other's deletion, and the bucket folds back into
// the parent when one key is left.
func TestCatalogCollisions(t *testing.T) {
	g := collidingKeys(t, 1)[0]
	a, b := &table{key: g[0]}, &table{key: g[1]}
	one := catalog{}.set(a)
	both := one.set(b)
	if both.get(g[0]) != a || both.get(g[1]) != b || both.len() != 2 {
		t.Fatalf("colliding keys not both retrievable")
	}
	if one.get(g[1]) != nil {
		t.Fatal("set leaked into the catalog it was derived from")
	}
	if n, _ := catShape(both.root); n != (catHashBits+catBits-1)/catBits+1 {
		t.Errorf("colliding pair built %d nodes, want a chain down to one bucket", n)
	}
	b2 := &table{key: g[1]}
	if c := both.set(b2); c.get(g[1]) != b2 || c.get(g[0]) != a || c.len() != 2 || both.get(g[1]) != b {
		t.Error("replacing a key inside a bucket went wrong")
	}
	rest := both.delete(g[0])
	if rest.get(g[0]) != nil || rest.get(g[1]) != b || rest.len() != 1 {
		t.Fatal("delete of one colliding key damaged the other")
	}
	if n, _ := catShape(rest.root); n != 1 {
		t.Errorf("bucket did not fold back: %d nodes for one key", n)
	}
}

// TestCatalogOfMatchesSets: the bulk builder Open uses produces the trie
// the same sets would have — same tables under the same keys, colliding
// keys in one bucket, the same number of nodes — and
// one that later sets and deletes work on like any other, for a
// fraction of the allocations.
func TestCatalogOfMatchesSets(t *testing.T) {
	var tables []*table
	model := map[string]*table{}
	add := func(key string) {
		tb := &table{key: key}
		tables, model[key] = append(tables, tb), tb
	}
	for i := 0; i < 3000; i++ {
		add(fmt.Sprintf("run_%d", i))
	}
	for _, g := range collidingKeys(t, 3) {
		add(g[0])
		add(g[1])
	}
	for _, n := range []int{0, 1, 2, 33, len(tables)} {
		sub := map[string]*table{}
		var bySet catalog
		for _, tb := range tables[:n] {
			sub[tb.key], bySet = tb, bySet.set(tb)
		}
		bulk := catalogOf(tables[:n])
		checkCatalog(t, fmt.Sprintf("catalogOf(%d tables)", n), bulk, sub)
		wantNodes, _ := catShape(bySet.root)
		if nodes, _ := catShape(bulk.root); nodes != wantNodes {
			t.Errorf("catalogOf(%d tables) built %d nodes, the sets %d", n, nodes, wantNodes)
		}
	}
	c := catalogOf(tables)
	extra := &table{key: "later"}
	model["later"] = extra
	delete(model, tables[7].key)
	checkCatalog(t, "catalogOf, then set and delete", c.set(extra).delete(tables[7].key), model)

	bulkAllocs := testing.AllocsPerRun(3, func() { catalogOf(tables) })
	setAllocs := testing.AllocsPerRun(3, func() {
		var c catalog
		for _, tb := range tables {
			c = c.set(tb)
		}
	})
	t.Logf("%d tables: catalogOf %.0f allocations, sets %.0f", len(tables), bulkAllocs, setAllocs)
	if bulkAllocs*5 > setAllocs {
		t.Errorf("catalogOf allocated %.0f times, %d sets %.0f: not the bulk build it is meant to be", bulkAllocs, len(tables), setAllocs)
	}
}

// TestCatalogSetIsLogarithmic pins the structural sharing directly: one
// set on a 5 000-table catalog copies a handful of nodes.
func TestCatalogSetIsLogarithmic(t *testing.T) {
	var c catalog
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("t%d", i)
		c = c.set(&table{key: k})
	}
	tb := &table{key: "t2500"}
	allocs := testing.AllocsPerRun(100, func() { _ = c.set(tb) })
	if allocs > 2*4 {
		t.Errorf("set on 5000 tables cost %.0f allocations; the path copy should be at most 4 nodes", allocs)
	}
}

// TestCatalogConcurrentReaders: readers pin snapshots and range their
// catalogs while four sessions commit CREATE/INSERT/DROP on disjoint
// tables. A pinned catalog must stay internally consistent (len equals
// what it yields, every table findable, the stable table present) no
// matter what is published meanwhile. Run with -race.
func TestCatalogConcurrentReaders(t *testing.T) {
	db := NewMemory()
	mustExec(t, db, "CREATE TABLE stable (a integer)")
	mustExec(t, db, "INSERT INTO stable VALUES (1)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE pad%d (a integer)", i))
	}
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				s := db.Snapshot()
				for pass := 0; pass < 3; pass++ {
					n := 0
					for tb := range s.sn.cat.all() {
						if s.sn.cat.get(tb.key) != tb {
							t.Errorf("snapshot %d: %q not findable in its own catalog", s.ID(), tb.key)
							return
						}
						n++
					}
					if n != s.sn.cat.len() {
						t.Errorf("snapshot %d: ranged %d tables, len says %d", s.ID(), n, s.sn.cat.len())
						return
					}
				}
				res, err := s.Exec("SELECT COUNT(*) FROM stable")
				if err != nil || res.Rows[0][0].Int() != 1 {
					t.Errorf("pinned read: %v %v", res, err)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("w%d_%d", w, i)
				for _, q := range []string{
					"BEGIN",
					"CREATE TABLE " + name + " (a integer)",
					"INSERT INTO " + name + " VALUES (1)",
					"COMMIT",
					"INSERT INTO " + name + " VALUES (2)",
					"DROP TABLE " + name,
				} {
					if _, err := s.Exec(q); err != nil {
						t.Errorf("writer %d: %s: %v", w, q, err)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if n := len(db.Tables()); n != 201 {
		t.Errorf("%d tables left, want 201", n)
	}
}

// costOf reports the allocations and bytes one call of f costs.
func costOf(f func()) (allocs, bytes float64) {
	const runs = 200
	f() // warm caches
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestMutationCostIndependentOfTableCount is the guard against O(tables)
// coming back into the write path: a one-row INSERT into a temp table
// must cost the same ±10 %, in allocations and in bytes, in a database
// of 10 tables and in one of 5 000 — in autocommit, inside BEGIN…COMMIT,
// and when the commit has to merge past a concurrent commit. The one
// difference allowed for is the catalog's own O(log n): at 5 000 tables
// the trie is two levels deeper than at 10, and every catalog update
// copies one more node (two allocations, at most 32 slots) per level.
// A per-statement copy of the catalog would be ~100 KB over.
func TestMutationCostIndependentOfTableCount(t *testing.T) {
	const (
		extraLevels = 2
		levelAllocs = 2
		levelBytes  = 32*16 + 32 // a full node's slots and its header
	)
	scenarios := []struct {
		name string
		sets float64 // catalog updates per call
		run  func(db *DB, s, rival *Session)
	}{
		{"autocommit", 1, func(db *DB, s, rival *Session) {
			mustExec(t, db, "INSERT INTO tmp VALUES (1)")
		}},
		{"in transaction", 1, func(db *DB, s, rival *Session) {
			mustExec(t, s, "BEGIN")
			mustExec(t, s, "INSERT INTO tmp VALUES (1)")
			mustExec(t, s, "COMMIT")
		}},
		{"merging commit", 3, func(db *DB, s, rival *Session) { // both INSERTs and the merge
			mustExec(t, s, "BEGIN")
			mustExec(t, s, "INSERT INTO tmp VALUES (1)")
			mustExec(t, rival, "INSERT INTO other VALUES (1)") // commits in between
			mustExec(t, s, "COMMIT")
		}},
	}
	type cost struct{ allocs, bytes float64 }
	measure := func(tables int) []cost {
		db := NewMemory()
		for i := 0; i < tables-2; i++ {
			mustExec(t, db, fmt.Sprintf("CREATE TABLE exp_run_%d (a integer)", i))
		}
		mustExec(t, db, "CREATE TEMP TABLE tmp (a integer)")
		mustExec(t, db, "CREATE TABLE other (a integer)")
		s, rival := db.NewSession(), db.NewSession()
		defer s.Close()
		defer rival.Close()
		out := make([]cost, len(scenarios))
		for i, sc := range scenarios {
			// The tables grow by a row per call; start every scenario,
			// at either size, from the same empty tables.
			mustExec(t, db, "DELETE FROM tmp")
			mustExec(t, db, "DELETE FROM other")
			a, b := costOf(func() { sc.run(db, s, rival) })
			out[i] = cost{a, b}
		}
		return out
	}
	small, large := measure(10), measure(5000)
	within := func(got, base, deeper float64) bool {
		return got >= base*0.90 && got <= base*1.10+deeper
	}
	for i, sc := range scenarios {
		s, l := small[i], large[i]
		t.Logf("%-15s 10 tables: %.0f allocs %.0f B   5000 tables: %.0f allocs %.0f B", sc.name, s.allocs, s.bytes, l.allocs, l.bytes)
		deeper := sc.sets * extraLevels
		if !within(l.allocs, s.allocs, deeper*levelAllocs) {
			t.Errorf("%s: %.0f allocations with 5000 tables, %.0f with 10 — a mutation must not cost O(tables)", sc.name, l.allocs, s.allocs)
		}
		if !within(l.bytes, s.bytes, deeper*levelBytes) {
			t.Errorf("%s: %.0f bytes with 5000 tables, %.0f with 10 — a mutation must not cost O(tables)", sc.name, l.bytes, s.bytes)
		}
	}
}
