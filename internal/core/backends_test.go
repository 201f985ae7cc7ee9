package core

import (
	"sync/atomic"
	"testing"

	"perfbase/internal/shard"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// testBackend is one database a test runs against. handle opens a
// handle on it: a new connection for a wire server, the one handle
// otherwise. catalogs lists the tables of each database behind it, each
// shard's for a cluster; commits counts the commits they logged.
type testBackend struct {
	handle   func() Handle
	catalogs func() [][]string
	commits  func() int64
}

// counted returns memory databases whose logged commits the returned
// function counts, through a commit hook on each.
func counted(t *testing.T, n int) ([]*sqldb.DB, func() int64) {
	var commits atomic.Int64
	dbs := make([]*sqldb.DB, n)
	for i := range dbs {
		dbs[i] = sqldb.NewMemory()
		dbs[i].AddCommitHook(func(sqldb.ReplPos, []string) { commits.Add(1) })
		t.Cleanup(func() { dbs[i].Close() })
	}
	return dbs, commits.Load
}

// catalogsOf lists the tables of each database.
func catalogsOf(dbs []*sqldb.DB) func() [][]string {
	return func() [][]string {
		all := make([][]string, len(dbs))
		for i, db := range dbs {
			all[i] = db.Tables()
		}
		return all
	}
}

// testBackends are the kinds of database a store runs on: embedded,
// over a wire server, and a 2-shard cluster. Each open builds a fresh
// database of its own, released by t.Cleanup.
var testBackends = []struct {
	name string
	open func(t *testing.T) testBackend
}{
	{"local", func(t *testing.T) testBackend {
		dbs, commits := counted(t, 1)
		return testBackend{func() Handle { return dbs[0] }, catalogsOf(dbs), commits}
	}},
	{"wire", func(t *testing.T) testBackend {
		dbs, commits := counted(t, 1)
		srv := wire.NewServer(dbs[0])
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return testBackend{func() Handle {
			c, err := wire.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}, catalogsOf(dbs), commits}
	}},
	{"cluster", func(t *testing.T) testBackend {
		dbs, commits := counted(t, 2)
		c, err := shard.New([]shard.Backend{shard.Local(dbs[0]), shard.Local(dbs[1])})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return testBackend{func() Handle { return c }, catalogsOf(dbs), commits}
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
