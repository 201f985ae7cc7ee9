// Package parquery implements the parallel query processing proposed
// in paper §4.3 (Fig. 3).
//
// A query's elements communicate through temporary tables; normally
// all of them live in a single database server. On a cluster, the
// elements can be distributed across nodes that each run an
// independent database server: every element executes against the
// server it is placed on, and an input vector residing on a different
// server is transferred over the socket connection first. The cluster
// node holding the persistent experiment data (the primary) only
// serves the source elements' reads, which the paper profiles at about
// 10% of query time — hence it is not expected to bottleneck.
//
// Two worker pool flavours are provided: in-process databases (the
// paper's "even on a single (SMP) server" case) and TCP-backed servers
// reached through sqldb/wire (the cluster case). The effective degree
// of parallelism is bounded by the plan width, exactly as §4.3
// observes for the 1:1 mapping.
package parquery

import (
	"fmt"

	"perfbase/internal/core"
	"perfbase/internal/failpoint"
	"perfbase/internal/pbxml"
	"perfbase/internal/query"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// fpWorkerDial fires while a TCP pool connects its workers; arming it
// simulates an unreachable cluster node, which must fail pool
// construction cleanly (no leaked servers or half-built pools).
var fpWorkerDial = failpoint.Site("parquery/worker/dial")

// Pool is a set of worker database servers for query element
// placement.
type Pool struct {
	workers []core.Handle
	closers []func() error
}

// NewLocalPool creates n in-process worker databases (SMP-style
// parallelism: concurrent element execution without network
// transport).
func NewLocalPool(n int) *Pool {
	p := &Pool{}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, sqldb.NewMemory())
	}
	return p
}

// NewTCPPool starts n wire servers on loopback, each backed by its own
// database, and connects one client per server. This exercises the
// full socket transport of Fig. 3.
func NewTCPPool(n int) (*Pool, error) {
	p := &Pool{}
	for i := 0; i < n; i++ {
		db := sqldb.NewMemory()
		srv := wire.NewServer(db)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			p.Close()
			return nil, fmt.Errorf("parquery: worker %d: %w", i, err)
		}
		client, err := wire.Dial(srv.Addr())
		if err == nil {
			if ferr := fpWorkerDial.Inject(); ferr != nil {
				client.Close()
				err = fmt.Errorf("%w: %s: %v", wire.ErrDial, srv.Addr(), ferr)
			}
		}
		if err != nil {
			srv.Close()
			p.Close()
			return nil, fmt.Errorf("parquery: worker %d: %w", i, err)
		}
		p.workers = append(p.workers, client)
		p.closers = append(p.closers, client.Close, srv.Close)
	}
	return p, nil
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Workers exposes the worker handles.
func (p *Pool) Workers() []core.Handle { return p.workers }

// Close shuts down all servers and connections of a TCP pool; it is a
// no-op for local pools.
func (p *Pool) Close() {
	for _, c := range p.closers {
		c() //nolint:errcheck
	}
	p.closers = nil
}

// Executor runs queries for one experiment with parallel element
// execution over a pool.
type Executor struct {
	engine *query.Engine
	pool   *Pool
	// src, when set, overrides where source elements read the
	// persistent experiment data from (see SetReadSource).
	src sqldb.Querier
}

// NewExecutor builds an executor. With a nil or empty pool all
// elements run on the primary, as Session.Query runs them, except that
// sources read the run's pinned snapshot.
func NewExecutor(exp *core.Experiment, pool *Pool) *Executor {
	return &Executor{engine: query.NewEngine(exp), pool: pool}
}

// SetReadSource overrides where source elements read the persistent
// experiment data. The natural argument is a repl.Router: source
// SELECTs then fan out over read replicas (with the router's
// read-your-writes bound) while the primary only serves writes —
// extending §4.3's observation that the primary need only serve the
// source reads, now offloaded too. A nil src restores the default
// (the engine's primary, snapshot-pinned when local).
func (ex *Executor) SetReadSource(src sqldb.Querier) { ex.src = src }

// Run executes the query with all elements of one DAG level running
// concurrently, each on its assigned worker.
func (ex *Executor) Run(spec *pbxml.Query) (*query.Results, error) {
	plan, err := query.BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	return ex.RunPlan(plan)
}

// RunPlan executes a prebuilt plan through the engine's runner, placed
// by the pool. When the primary is a local database, all source reads
// of this run are pinned to one MVCC snapshot taken here: concurrently
// committing imports neither block the workers nor become partially
// visible to them. A SetReadSource override (replica fan-out) is used
// as-is — its staleness bound is the router's, not a pinned snapshot.
func (ex *Executor) RunPlan(plan *query.Plan) (*query.Results, error) {
	src := ex.src
	if src == nil {
		src = ex.engine.Primary()
		if pdb, ok := src.(*sqldb.DB); ok {
			src = pdb.Snapshot()
		}
	}
	return ex.engine.RunPlan(plan, placer{ex, src})
}

// placer is the query.Placer of one plan run of an executor.
type placer struct {
	ex  *Executor
	src sqldb.Querier
}

func (p placer) ReadSource() sqldb.Querier { return p.src }

// Place assigns an element to a worker database. An element with
// inputs runs where its first input vector already lives (affinity
// placement — it avoids transferring temp tables between servers,
// which is the expensive part of Fig. 3's socket communication);
// elements without inputs, i.e. sources, are spread round-robin.
// Without workers everything runs on the primary.
func (p placer) Place(i int, ins []*query.Vector) core.Handle {
	pool := p.ex.pool
	if pool == nil || pool.Size() == 0 {
		return p.ex.engine.Primary()
	}
	for _, in := range ins {
		for _, w := range pool.workers {
			if in.DB == w {
				return w
			}
		}
	}
	return pool.workers[i%pool.Size()]
}
