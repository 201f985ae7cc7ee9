package sqldb

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfbase/internal/value"
)

// TestColumnCacheHitTakesNoLock: a hit reads the chunk's slot. It must
// not wait for the cache's mutex, which a put or an eviction holds, nor
// allocate.
func TestColumnCacheHitTakesNoLock(t *testing.T) {
	c := &colCache{limit: 1 << 20}
	ch := &chunk{resident: [1][]Row{{{value.NewInt(1)}, {value.NewInt(2)}}}}
	want := c.colFor(ch, 0, value.Integer)
	if allocs := testing.AllocsPerRun(100, func() { c.colFor(ch, 0, value.Integer) }); allocs != 0 {
		t.Errorf("a hit allocates %v times", allocs)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	got := make(chan *colVec, 1)
	go func() { got <- c.colFor(ch, 0, value.Integer) }()
	select {
	case v := <-got:
		if v != want {
			t.Fatal("the hit returned another vector than the one cached")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a hit waited for the cache's mutex")
	}
}

// TestColumnCacheSecondChance: the hand evicts an entry not hit since it
// last passed before one that was, and never the entry just put, which a
// cap of 0 keeps alone.
func TestColumnCacheSecondChance(t *testing.T) {
	c := &colCache{limit: 16} // two one-row Integer vectors
	chunks := make([]*chunk, 5)
	for i := range chunks {
		chunks[i] = &chunk{resident: [1][]Row{{{value.NewInt(int64(i))}}}}
	}
	cached := func(i int) bool { return c.get(chunks[i], wholeChunk, 0) != nil }
	c.colFor(chunks[0], 0, value.Integer)
	c.colFor(chunks[1], 0, value.Integer)
	cached(0)
	c.colFor(chunks[2], 0, value.Integer)
	if !cached(0) || cached(1) || !cached(2) {
		t.Errorf("cached 0, 1, 2 = %v, %v, %v; want the entry not hit evicted", cached(0), cached(1), cached(2))
	}
	c.setLimit(0)
	if n, bytes := c.stats(); n != 0 || bytes != 0 {
		t.Fatalf("a cap of 0 leaves %d entries of %d bytes", n, bytes)
	}
	c.colFor(chunks[3], 0, value.Integer)
	cached(3)
	c.colFor(chunks[4], 0, value.Integer)
	if n, _ := c.stats(); n != 1 || !cached(4) {
		t.Errorf("under a cap of 0 the cache holds %d entries, cached 4 = %v; want the one just put", n, cached(4))
	}
}

// TestColumnCacheConcurrentChurn: readers build and hit the vectors of
// every chunk of a table while a writer compacts it, rewrites it and
// drops it, and the cap switches between 0 and the default under them.
// Every vector a reader gets is its chunk's; once all stop, the cache is
// within its cap and holds exactly the entries its slots do.
func TestColumnCacheConcurrentChurn(t *testing.T) {
	db := NewMemory()
	const create = "CREATE TABLE t (a integer, b float, s string)"
	types := []value.Type{value.Integer, value.Float, value.String}
	mustExec(t, db, create)
	insert := func(lo, n int) {
		rows := make([]Row, n)
		for i := range rows {
			k := lo + i
			rows[i] = Row{value.NewInt(int64(k)), value.NewFloat(float64(k) / 4), value.NewString(fmt.Sprint("s", k%13))}
			if k%7 == 0 {
				rows[i][1] = value.Null(value.Float)
			}
		}
		if _, err := db.InsertRows("t", []string{"a", "b", "s"}, rows); err != nil {
			t.Error(err)
		}
	}
	insert(0, 700)

	var (
		stop    atomic.Bool
		passes  atomic.Int64 // over the table's chunks, by all readers
		mu      sync.Mutex
		touched = map[*chunk]bool{}
		wg      sync.WaitGroup
	)
	record := func(mine map[*chunk]bool) {
		mu.Lock()
		defer mu.Unlock()
		for ch := range mine {
			touched[ch] = true
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := map[*chunk]bool{}
			defer record(mine)
			for !stop.Load() {
				tab := db.state.Load().cat.get("t")
				if tab == nil {
					continue
				}
				for _, ch := range tab.builtChunks() {
					mine[ch] = true
					for ci, typ := range types {
						got := db.env.cache.colFor(ch, ci, typ)
						if want := buildColVec(ch.rows(), ci, typ); !reflect.DeepEqual(got, want) {
							t.Errorf("column %d of a %d-row chunk: the cache's vector is not the chunk's", ci, ch.len())
							return
						}
					}
				}
				passes.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			db.ColumnCacheLimit([]int{0, colCacheDefaultBytes}[i%2])
			time.Sleep(time.Millisecond)
		}
	}()

	mine := map[*chunk]bool{}
	next := 700
	for i := 0; i < 120 || passes.Load() < 400; i++ {
		switch {
		case i%40 == 39:
			mustExec(t, db, "DROP TABLE t")
			mustExec(t, db, create)
			insert(0, 700)
			next = 700
		case i%10 == 9:
			mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE a = %d", i))
		default:
			insert(next, 1+i%3) // small appends: the tail chunks compact
			next += 1 + i%3
		}
		if tab := db.state.Load().cat.get("t"); tab != nil {
			for _, ch := range tab.builtChunks() {
				mine[ch] = true
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	record(mine)

	entries, bytes := db.env.cache.stats()
	db.env.cache.mu.Lock()
	limit := db.env.cache.limit
	db.env.cache.mu.Unlock()
	if bytes > limit && entries > 1 {
		t.Errorf("the cache holds %d entries of %d bytes over its cap of %d", entries, bytes, limit)
	}
	filled, filledBytes := 0, 0
	for ch := range touched {
		if cv := ch.vecs.Load(); cv != nil {
			for i := range cv.slots {
				if e := cv.slots[i].Load(); e != nil {
					filled, filledBytes = filled+1, filledBytes+e.vec.bytes
				}
			}
		}
	}
	if filled != entries || filledBytes != bytes {
		t.Errorf("the cache counts %d entries of %d bytes, its slots hold %d of %d", entries, bytes, filled, filledBytes)
	}
}

// BenchmarkColumnCacheHits measures hits on 64 cached vectors from every
// proc at once (-cpu 1,2,4): a hit takes no lock, so they scale.
func BenchmarkColumnCacheHits(b *testing.B) {
	c := &colCache{limit: colCacheDefaultBytes}
	chunks := make([]*chunk, 64)
	for i := range chunks {
		chunks[i] = &chunk{resident: [1][]Row{{{value.NewInt(int64(i))}}}}
		c.colFor(chunks[i], 0, value.Integer)
	}
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if c.colFor(chunks[i&63], 0, value.Integer) == nil {
				b.Fatal("miss")
			}
		}
	})
}
