package repl

import (
	"fmt"
	"testing"

	"perfbase/internal/sqldb"
)

// FuzzReplicaConvergence is the replication sibling of the SQL
// differential fuzzer: a byte string drives an arbitrary interleaving
// of inserts, updates, deletes, committed and rolled-back
// transactions, bulk loads, and checkpoint rotations against a durable
// primary with a live replica attached, then requires the replica's
// dump to be byte-identical after the stream drains. Any divergence —
// a statement class that doesn't replicate, a rotation that loses
// frames, a transaction applied non-atomically — shows up as a dump
// diff.
func FuzzReplicaConvergence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{6, 6, 0, 6, 4, 4, 7, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0, 7, 3, 2, 1})
	f.Add([]byte{5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		db, err := sqldb.OpenWithPolicy(t.TempDir(), sqldb.SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		p := servePrimary(t, db)
		defer p.close()
		mustExec(t, p.db, "CREATE TABLE runs (id integer, v string)")

		r := startReplica(t, p.addr())
		defer r.close()

		s := db.NewSession()
		for i, b := range ops {
			switch b % 8 {
			case 0, 1:
				mustExec(t, db, fmt.Sprintf("INSERT INTO runs VALUES (%d, 'v%d')", i, int(b)))
			case 2:
				mustExec(t, db, fmt.Sprintf("UPDATE runs SET v = 'u%d' WHERE id %% 3 = %d", i, int(b)%3))
			case 3:
				mustExec(t, db, fmt.Sprintf("DELETE FROM runs WHERE id = %d", int(b)%16))
			case 4:
				mustExec(t, s, "BEGIN")
				mustExec(t, s, fmt.Sprintf("INSERT INTO runs VALUES (%d, 'txa')", 100+i))
				mustExec(t, s, fmt.Sprintf("INSERT INTO runs VALUES (%d, 'txb')", 200+i))
				mustExec(t, s, "COMMIT")
			case 5:
				// Rolled-back work must leave no trace in the stream.
				mustExec(t, s, "BEGIN")
				mustExec(t, s, fmt.Sprintf("INSERT INTO runs VALUES (%d, 'gone')", 300+i))
				mustExec(t, s, "ROLLBACK")
			case 6:
				// Bulk load: the binary path shares the frame format with
				// SQL-text commits.
				seed := mustExec(t, db, fmt.Sprintf("SELECT %d, 'bulk%d'", 400+i, int(b)))
				if _, err := db.InsertRows("runs", []string{"id", "v"}, seed.Rows); err != nil {
					t.Fatalf("bulk insert: %v", err)
				}
			case 7:
				// Checkpoint rotation mid-stream.
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}

		waitConverged(t, p, r)
		assertIdentical(t, p, r)
	})
}
