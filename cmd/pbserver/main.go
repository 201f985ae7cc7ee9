// Command pbserver runs a perfbase database server.
//
// The paper's architecture (§4.2) stores all persistent data in an SQL
// server that "a user can either run ... on his local workstation, or
// store his data on any connected ... server"; the parallel query
// processing of §4.3 additionally places worker servers on cluster
// nodes. pbserver is that server: it exposes a (durable or in-memory)
// database over TCP using the perfbase wire protocol.
//
// A pbserver is also a replication node. By default it is a primary:
// it streams WAL v2 frames to any subscriber. With -replica-of it
// serves a read-only replica instead: it bootstraps from the primary
// (snapshot transfer), tails its frame stream, and rejects writes.
//
// With -shards (or -shard-addrs) it runs as a sharding coordinator
// instead: writes are hash-partitioned across shard primaries by each
// table's first column, queries scatter-gather, and cross-shard
// statements commit through the coordinator's two-phase commit.
//
// With -live it additionally serves the continuous-benchmarking verbs
// (INGEST / WATCH / VIEW): streaming ingest through a parallel worker
// pool, materialized standard views, and push regression alerts tuned
// by the -alert-* flags (defaults are the anomaly.Default* constants).
// A replica can run -live too: it serves views and alerts from its
// replicated data while ingest stays refused as read-only.
//
// Usage:
//
//	pbserver [-addr HOST:PORT] [-db DIR] [-mem] [-live]
//	pbserver -replica-of HOST:PORT [-addr HOST:PORT] [-advertise HOST:PORT] [-live]
//	pbserver -shards N [-db DIR] [-mem]
//	pbserver -shard-addrs "primary[,replica...];primary[,replica...]"
//	pbserver -waldump DIR
//	pbserver -blockdump DIR
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"perfbase/internal/anomaly"
	"perfbase/internal/failpoint"
	"perfbase/internal/live"
	"perfbase/internal/repl"
	"perfbase/internal/shard"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7337", "listen address")
	dbDir := flag.String("db", "perfbase.db", "database directory")
	mem := flag.Bool("mem", false, "serve an in-memory database (worker node mode)")
	replicaOf := flag.String("replica-of", "", "run as a read-only replica of the primary at this address")
	advertise := flag.String("advertise", "", "address to report in STATUS (defaults to the listen address)")
	shards := flag.Int("shards", 0, "run as a sharding coordinator over N local shard primaries under -db")
	shardAddrs := flag.String("shard-addrs", "", `run as a sharding coordinator over remote shards ("primary[,replica...];primary[,replica...]")`)
	waldump := flag.String("waldump", "", "print the WAL v2 frames of a database directory and exit")
	blockdump := flag.String("blockdump", "", "print and verify the checkpoint file of a database directory and exit (non-zero if damaged)")
	liveOn := flag.Bool("live", false, "serve the continuous-benchmarking verbs (INGEST, WATCH, VIEW)")
	liveWorkers := flag.Int("live-workers", 4, "ingest worker pool size (with -live)")
	alertK := flag.Float64("alert-k", anomaly.DefaultK, "outlier sigma threshold for alert analyses")
	alertThreshold := flag.Float64("alert-threshold", anomaly.DefaultThresholdPct, "regression alert threshold in percent")
	alertMinSamples := flag.Int("alert-min-samples", anomaly.DefaultMinSamples, "minimum group population for alert statistics")
	flag.Parse()

	if *waldump != "" {
		os.Exit(dumpWAL(*waldump))
	}
	if *blockdump != "" {
		os.Exit(dumpBlocks(*blockdump))
	}

	// Fault-injection sites (crash-recovery testing against the real
	// binary): PERFBASE_FAILPOINTS="sqldb/wal/fsync=error(disk gone)".
	if err := failpoint.SetFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "pbserver:", err)
		os.Exit(1)
	}

	if *shards > 0 || *shardAddrs != "" {
		if *liveOn {
			fmt.Fprintln(os.Stderr, "pbserver: -live is not supported in coordinator mode")
			os.Exit(1)
		}
		os.Exit(runCoordinator(*addr, *advertise, *dbDir, *mem, *shards, *shardAddrs))
	}

	var db *sqldb.DB
	var err error
	switch {
	case *replicaOf != "":
		// A replica's durability is the primary's WAL: its store is
		// memory-only and a restart re-bootstraps via snapshot transfer.
		db = sqldb.NewMemory()
	case *mem:
		db = sqldb.NewMemory()
	default:
		db, err = sqldb.Open(*dbDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbserver:", err)
			os.Exit(1)
		}
	}

	srv := wire.NewServer(db)
	var hub *repl.Hub
	var replica *repl.Replica
	if *replicaOf != "" {
		replica = repl.NewReplica(db, *replicaOf)
		srv.SetReplState(replica)
		srv.SetReadOnly(true)
	} else {
		hub = repl.NewHub(db)
		srv.SetReplSource(hub)
	}
	var liveSvc *live.Service
	if *liveOn {
		// On a replica the service maintains views and pushes alerts
		// from the replicated commit stream; the wire layer keeps
		// refusing INGEST as read-only.
		liveSvc = live.New(db, live.Config{
			Workers: *liveWorkers,
			Alerts: anomaly.Options{
				K:            *alertK,
				ThresholdPct: *alertThreshold,
				MinSamples:   *alertMinSamples,
			},
		})
		srv.SetLive(liveSvc)
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "pbserver:", err)
		os.Exit(1)
	}
	if *advertise != "" {
		srv.SetAdvertise(*advertise)
	} else {
		srv.SetAdvertise(srv.Addr())
	}
	mode := ""
	if *liveOn {
		mode = ", live"
	}
	if *replicaOf != "" {
		fmt.Printf("pbserver: replica of %s serving on %s%s\n", *replicaOf, srv.Addr(), mode)
	} else {
		fmt.Printf("pbserver: primary serving on %s (durable=%v%s)\n", srv.Addr(), db.Role() == "primary" && !*mem, mode)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pbserver: shutting down")
	if replica != nil {
		replica.Close()
	}
	srv.Close()
	if liveSvc != nil {
		liveSvc.Close()
	}
	if hub != nil {
		hub.Close()
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pbserver:", err)
		os.Exit(1)
	}
}

// runCoordinator serves a sharded cluster over the wire protocol.
func runCoordinator(addr, advertise, dir string, mem bool, n int, shardAddrs string) int {
	c, err := openCoordinator(dir, mem, n, shardAddrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbserver:", err)
		return 1
	}

	srv := wire.NewBackendServer(c)
	if err := srv.Listen(addr); err != nil {
		fmt.Fprintln(os.Stderr, "pbserver:", err)
		return 1
	}
	if advertise != "" {
		srv.SetAdvertise(advertise)
	} else {
		srv.SetAdvertise(srv.Addr())
	}
	fmt.Printf("pbserver: coordinator serving %d shard(s) on %s\n", c.NumShards(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pbserver: shutting down")
	srv.Close()
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pbserver:", err)
		return 1
	}
	return 0
}

// openCoordinator opens the cluster a coordinator serves. Local mode
// opens n shard primaries under dir (shard-0/, shard-1/, ...) plus the
// cross-shard decision log, or n in-memory ones with mem; remote mode
// connects to already-running pbservers, each optionally with read
// replicas reached through a read router.
func openCoordinator(dir string, mem bool, n int, shardAddrs string) (*shard.Cluster, error) {
	switch {
	case shardAddrs != "":
		var backends []shard.Backend
		for _, grp := range strings.Split(shardAddrs, ";") {
			grp = strings.TrimSpace(grp)
			if grp == "" {
				continue
			}
			parts := strings.Split(grp, ",")
			for i := range parts {
				parts[i] = strings.TrimSpace(parts[i])
			}
			b, err := shard.Remote(parts[0], parts[1:]...)
			if err != nil {
				return nil, fmt.Errorf("shard %s: %w", parts[0], err)
			}
			backends = append(backends, b)
		}
		return shard.New(backends)
	case mem:
		return shard.NewLocal(n), nil
	}
	return shard.OpenLocal(dir, n, sqldb.SyncAlways)
}

// dumpWAL prints the frames of a database directory's WAL — epoch,
// LSN, offset, CRC status, statement count — the replication debugging
// view of the on-disk stream.
func dumpWAL(dir string) int {
	path := filepath.Join(dir, "wal.log")
	info, err := sqldb.ScanWALFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbserver: waldump:", err)
		return 1
	}
	fmt.Printf("%s: epoch %d, %d frame(s)\n", path, info.Epoch, len(info.Frames))
	for _, fr := range info.Frames {
		crc := "ok"
		if !fr.CRCOK {
			crc = "BAD"
		}
		fmt.Printf("  lsn=%-6d off=%-8d size=%-6d stmts=%-4d crc=%s\n",
			fr.LSN, fr.Offset, fr.Size, fr.Statements, crc)
	}
	if info.Torn {
		fmt.Printf("  TORN TAIL after offset %d\n", info.TornOffset)
	}
	return 0
}

// dumpBlocks prints a database directory's checkpoint file and checks it:
// the directory — per table: rows, chunk lengths, index columns, schema
// id, extent — then per block: table, chunk, column, encoding,
// rows/nulls, zone map, and a payload CRC verification. It is the
// database's fsck: the exit status is non-zero when the footer does not
// read, or when any table's block-meta segment or any block fails its
// CRC, which is when a database opened on the file refuses, or answers
// ErrCorruptCheckpoint for that table.
func dumpBlocks(dir string) int {
	path := filepath.Join(dir, "columns.blk")
	info, err := sqldb.ScanBlockFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbserver: blockdump:", err)
		return 1
	}
	fmt.Printf("%s: epoch %d, %d table(s), %d block(s)\n", path, info.Epoch, len(info.Dir), len(info.Blocks))
	for _, t := range info.Dir {
		fmt.Printf("  %s: rows=%d chunks=%v indexes=%v schema=%d off=%d size=%d\n",
			t.Table, t.Rows, t.ChunkLens, t.Indexes, t.Schema, t.Offset, t.Size)
		if t.Err != "" {
			fmt.Printf("    segment BAD: %s\n", t.Err)
		}
	}
	for _, b := range info.Blocks {
		crc := "ok"
		if !b.CRCOK {
			crc = "BAD"
		}
		fmt.Printf("  %s/chunk%d/%s: enc=%-5s rows=%-5d nulls=%-5d off=%-8d size=%-6d crc=%s zone=%s\n",
			b.Table, b.Chunk, b.Column, b.Encoding, b.Rows, b.Nulls, b.Offset, b.Size, crc, b.Zone)
	}
	if n := info.Damaged(); n > 0 {
		fmt.Fprintf(os.Stderr, "pbserver: blockdump: %s: %d damaged segment(s) or block(s)\n", path, n)
		return 1
	}
	return 0
}
