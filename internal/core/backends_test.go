package core

import (
	"testing"

	"perfbase/internal/shard"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// testBackend is one database a test runs against. handle opens a
// handle on it: a new connection for a wire server, the one handle
// otherwise. catalogs lists the tables of each database behind it, each
// shard's for a cluster.
type testBackend struct {
	handle   func() Handle
	catalogs func() [][]string
}

// testBackends are the kinds of database a store runs on: embedded,
// over a wire server, and a 2-shard cluster. Each open builds a fresh
// database of its own, released by t.Cleanup.
var testBackends = []struct {
	name string
	open func(t *testing.T) testBackend
}{
	{"local", func(t *testing.T) testBackend {
		db := sqldb.NewMemory()
		t.Cleanup(func() { db.Close() })
		return testBackend{func() Handle { return db }, func() [][]string { return [][]string{db.Tables()} }}
	}},
	{"wire", func(t *testing.T) testBackend {
		db := sqldb.NewMemory()
		srv := wire.NewServer(db)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); db.Close() })
		return testBackend{func() Handle {
			c, err := wire.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}, func() [][]string { return [][]string{db.Tables()} }}
	}},
	{"cluster", func(t *testing.T) testBackend {
		c := shard.NewLocal(2)
		t.Cleanup(func() { c.Close() })
		return testBackend{func() Handle { return c }, func() [][]string {
			var all [][]string
			for i := 0; i < c.NumShards(); i++ {
				all = append(all, c.Shard(i).(interface{ Tables() []string }).Tables())
			}
			return all
		}}
	}},
}

// forEachBackend runs fn with an initialised store over each backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, q Handle, s *Store)) {
	for _, b := range testBackends {
		t.Run(b.name, func(t *testing.T) {
			q := b.open(t).handle()
			s := NewStore(q)
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			fn(t, q, s)
		})
	}
}
