package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

// FuzzConcurrentTxnSchedules extends the differential-fuzz family
// (differential_fuzz_test.go) to optimistic concurrency: the fuzz
// input drives a deterministic interleaving of three transactional
// sessions plus autocommit statements over two shared tables, and
// every step is validated against a serializable reference model.
//
// The model is exact, not approximate. It predicts:
//   - every in-transaction read (each session sees its begin snapshot
//     plus its own buffered writes, never a concurrent committer's),
//   - every commit verdict — a commit MUST conflict iff another
//     transaction or autocommit statement changed a table it read or
//     rewrote (UPDATE/DELETE) since BEGIN, and MUST succeed otherwise:
//     a table it only inserted into, without ever reading it, is a
//     blind append and commutes with whatever else happened to it. An
//     UPDATE/DELETE that matched no row writes nothing, but its scan
//     ends the blindness of the transaction's inserts into that table,
//   - the final committed state: buffered ops of successful commits
//     applied in commit order (the serializable history), conflicted
//     transactions contributing nothing — row order included, since a
//     blind append lands behind the rows committed before it.
//
// A lost update, dirty read, write skew on full scans, phantom commit
// after conflict, spurious conflict, or an append merged in the wrong
// place all surface as a divergence.
func FuzzConcurrentTxnSchedules(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 5, 3, 1, 7, 1, 0, 0, 1, 1, 0})
	f.Add([]byte("interleave commit conflict retry schedules"))
	f.Add([]byte{
		0, 0, 0, // s0 BEGIN
		0, 1, 0, // s1 BEGIN
		3, 0, 10, // s0 INSERT m0
		3, 1, 20, // s1 INSERT m0  (overlapping blind appends)
		1, 0, 0, // s0 COMMIT
		1, 1, 0, // s1 COMMIT (must succeed, behind s0's row)
	})
	f.Add([]byte{
		0, 0, 0, // s0 BEGIN
		0, 1, 0, // s1 BEGIN
		0, 2, 0, // s2 BEGIN
		3, 0, 10, // s0 INSERT m0 (blind)
		6, 1, 0, // s1 SELECT m0
		3, 1, 20, // s1 INSERT m0 (read first: not blind)
		3, 2, 30, // s2 INSERT m0
		4, 2, 31, // s2 UPDATE m0 (rewrite: not blind)
		3, 3, 40, // autocommit INSERT m0
		1, 0, 0, // s0 COMMIT (succeeds over the autocommit row)
		1, 1, 0, // s1 COMMIT (must conflict)
		1, 2, 0, // s2 COMMIT (must conflict)
	})
	f.Add([]byte{
		3, 3, 3, // autocommit INSERT m1 3
		0, 0, 0, // s0 BEGIN
		5, 0, 5, // s0 DELETE m1 WHERE v = 5 (no row: writes nothing, but scanned)
		3, 0, 3, // s0 INSERT m1 3 (not blind any more)
		4, 3, 9, // autocommit UPDATE m1: 3 -> 4
		4, 3, 9, // autocommit UPDATE m1: 4 -> 5
		1, 0, 0, // s0 COMMIT (must conflict: [5 3] is no serial order of the three)
	})
	f.Add([]byte{
		3, 3, 4, // autocommit INSERT m0 4
		0, 0, 0, // s0 BEGIN
		4, 0, 2, // s0 UPDATE m0 WHERE v < 2 (no row) — and nothing else on m0
		3, 0, 1, // s0 INSERT m1
		4, 3, 8, // autocommit UPDATE m0
		1, 0, 0, // s0 COMMIT (succeeds: m0 is not in its write set)
	})
	f.Add([]byte{
		0, 0, 0, // s0 BEGIN
		6, 0, 0, // s0 SELECT m0 (read set)
		3, 3, 42, // autocommit INSERT m0
		3, 0, 1, // s0 INSERT m1 (disjoint write)
		1, 0, 0, // s0 COMMIT (read-set conflict)
	})
	// Statements outside BEGIN against each other, through the DB and
	// through sessions with no transaction open: one path, one order.
	f.Add([]byte{
		3, 3, 4, // DB INSERT m0 4
		3, 0, 6, // s0, no BEGIN: INSERT m0 6
		4, 3, 6, // DB UPDATE m0 WHERE v < 6: 4 -> 5
		5, 1, 6, // s1, no BEGIN: DELETE m0 WHERE v = 6
		4, 0, 2, // s0, no BEGIN: UPDATE m0 WHERE v < 2 (no row: not a commit)
		6, 3, 0, // DB SELECT m0
		6, 2, 0, // s2 SELECT m0
	})
	f.Add([]byte{
		0, 0, 0, // s0 BEGIN
		3, 0, 3, // s0 INSERT m1 3 (blind)
		3, 3, 1, // DB INSERT m1 1
		3, 1, 5, // s1, no BEGIN: INSERT m1 5
		5, 2, 1, // s2, no BEGIN: DELETE m1 WHERE v = 1
		4, 3, 9, // DB UPDATE m1 WHERE v < 9: 5 -> 6
		1, 0, 0, // s0 COMMIT (succeeds: its row lands behind the 6)
		6, 3, 1, // DB SELECT m1
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewMemory()
		tables := []string{"m0", "m1"}
		for _, tb := range tables {
			mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (v integer)", tb))
		}

		// Reference model: committed rows per table, a change counter
		// per table, and per-session transaction state.
		committed := map[string][]int64{"m0": {}, "m1": {}}
		commits := map[string]int64{}
		type mtxn struct {
			snap   map[string][]int64 // deep copy of committed at BEGIN
			at     map[string]int64   // commits counter at BEGIN
			ops    []func(map[string][]int64)
			reads  map[string]bool
			writes map[string]bool // every mutated table
			rewr   map[string]bool // the subset hit by UPDATE or DELETE
			scans  map[string]bool // tables an UPDATE or DELETE found no row in
		}
		const nsess = 3
		sess := make([]*Session, nsess)
		for i := range sess {
			sess[i] = db.NewSession()
			defer sess[i].Close()
		}
		open := make([]*mtxn, nsess)

		view := func(tx *mtxn) map[string][]int64 {
			v := map[string][]int64{}
			for k, rows := range tx.snap {
				v[k] = append([]int64(nil), rows...)
			}
			for _, op := range tx.ops {
				op(v)
			}
			return v
		}
		readTable := func(q Querier, tb string) []int64 {
			return readRows(t, q, "SELECT v FROM "+tb+" ORDER BY v")
		}
		sorted := func(rows []int64) []int64 {
			out := append([]int64(nil), rows...)
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		equal := func(a, b []int64) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}

		steps := len(data) / 3
		if steps > 200 {
			steps = 200
		}
		for i := 0; i < steps; i++ {
			op := data[i*3] % 7
			si := int(data[i*3+1]) % (nsess + 1) // nsess == autocommit lane
			arg := int64(data[i*3+2])
			tb := tables[arg%2]
			auto := si == nsess

			switch op {
			case 0: // BEGIN
				if auto {
					continue
				}
				_, err := sess[si].Exec("BEGIN")
				if open[si] != nil {
					if !errors.Is(err, ErrTxnBusy) {
						t.Fatalf("step %d: nested BEGIN = %v, want ErrTxnBusy", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: BEGIN: %v", i, err)
				}
				tx := &mtxn{
					snap:   map[string][]int64{},
					at:     map[string]int64{},
					reads:  map[string]bool{},
					writes: map[string]bool{},
					rewr:   map[string]bool{},
					scans:  map[string]bool{},
				}
				for k, rows := range committed {
					tx.snap[k] = append([]int64(nil), rows...)
					tx.at[k] = commits[k]
				}
				open[si] = tx
			case 1: // COMMIT
				if auto {
					continue
				}
				_, err := sess[si].Exec("COMMIT")
				tx := open[si]
				open[si] = nil
				if tx == nil {
					if err == nil {
						t.Fatalf("step %d: COMMIT without transaction succeeded", i)
					}
					continue
				}
				conflict := false
				for k := range tx.reads {
					if commits[k] != tx.at[k] {
						conflict = true
					}
				}
				for k := range tx.rewr {
					if commits[k] != tx.at[k] {
						conflict = true
					}
				}
				for k := range tx.scans {
					// Only as the end of an insert's blindness: a scan of a
					// table the transaction never wrote is no footprint.
					if tx.writes[k] && commits[k] != tx.at[k] {
						conflict = true
					}
				}
				if conflict {
					if !errors.Is(err, ErrTxnConflict) {
						t.Fatalf("step %d: commit = %v, model demands ErrTxnConflict (reads %v rewrites %v empty scans %v)",
							i, err, tx.reads, tx.rewr, tx.scans)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: commit = %v, model demands success", i, err)
				}
				for _, mop := range tx.ops {
					mop(committed)
				}
				for k := range tx.writes {
					commits[k]++
				}
			case 2: // ROLLBACK
				if auto {
					continue
				}
				_, err := sess[si].Exec("ROLLBACK")
				if open[si] == nil {
					if err == nil {
						t.Fatalf("step %d: ROLLBACK without transaction succeeded", i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: ROLLBACK: %v", i, err)
				}
				open[si] = nil
			case 3: // INSERT
				sql := fmt.Sprintf("INSERT INTO %s VALUES (%d)", tb, arg)
				if auto {
					mustExec(t, db, sql)
					committed[tb] = append(committed[tb], arg)
					commits[tb]++
					continue
				}
				if _, err := sess[si].Exec(sql); err != nil {
					t.Fatalf("step %d: %s: %v", i, sql, err)
				}
				if tx := open[si]; tx != nil {
					tx.writes[tb] = true
					v := arg
					k := tb
					tx.ops = append(tx.ops, func(m map[string][]int64) { m[k] = append(m[k], v) })
				} else {
					committed[tb] = append(committed[tb], arg)
					commits[tb]++
				}
			case 4: // UPDATE all rows
				sql := fmt.Sprintf("UPDATE %s SET v = v + 1 WHERE v < %d", tb, arg)
				apply := func(rows []int64) []int64 {
					out := append([]int64(nil), rows...)
					for j, v := range out {
						if v < arg {
							out[j] = v + 1
						}
					}
					return out
				}
				affects := func(rows []int64) bool {
					for _, v := range rows {
						if v < arg {
							return true
						}
					}
					return false
				}
				if auto {
					mustExec(t, db, sql)
					if affects(committed[tb]) {
						committed[tb] = apply(committed[tb])
						commits[tb]++
					}
					continue
				}
				if _, err := sess[si].Exec(sql); err != nil {
					t.Fatalf("step %d: %s: %v", i, sql, err)
				}
				if tx := open[si]; tx != nil {
					// A zero-row UPDATE touches nothing in the engine:
					// no derived table, no write-set entry. Mirror that.
					if affects(view(tx)[tb]) {
						tx.writes[tb], tx.rewr[tb] = true, true
						k := tb
						tx.ops = append(tx.ops, func(m map[string][]int64) { m[k] = apply(m[k]) })
					} else {
						tx.scans[tb] = true
					}
				} else if affects(committed[tb]) {
					committed[tb] = apply(committed[tb])
					commits[tb]++
				}
			case 5: // DELETE
				sql := fmt.Sprintf("DELETE FROM %s WHERE v = %d", tb, arg)
				apply := func(rows []int64) []int64 {
					out := rows[:0:0]
					for _, v := range rows {
						if v != arg {
							out = append(out, v)
						}
					}
					return out
				}
				affects := func(rows []int64) bool {
					for _, v := range rows {
						if v == arg {
							return true
						}
					}
					return false
				}
				if auto {
					mustExec(t, db, sql)
					if affects(committed[tb]) {
						committed[tb] = apply(committed[tb])
						commits[tb]++
					}
					continue
				}
				if _, err := sess[si].Exec(sql); err != nil {
					t.Fatalf("step %d: %s: %v", i, sql, err)
				}
				if tx := open[si]; tx != nil {
					if affects(view(tx)[tb]) {
						tx.writes[tb], tx.rewr[tb] = true, true
						k := tb
						tx.ops = append(tx.ops, func(m map[string][]int64) { m[k] = apply(m[k]) })
					} else {
						tx.scans[tb] = true
					}
				} else if affects(committed[tb]) {
					committed[tb] = apply(committed[tb])
					commits[tb]++
				}
			case 6: // SELECT and compare against the model's view
				if auto {
					got := readTable(db, tb)
					if !equal(got, sorted(committed[tb])) {
						t.Fatalf("step %d: autocommit read %s = %v, model %v", i, tb, got, sorted(committed[tb]))
					}
					continue
				}
				got := readTable(sess[si], tb)
				var want []int64
				if tx := open[si]; tx != nil {
					tx.reads[tb] = true
					want = sorted(view(tx)[tb])
				} else {
					want = sorted(committed[tb])
				}
				if !equal(got, want) {
					t.Fatalf("step %d: session %d read %s = %v, model %v", i, si, tb, got, want)
				}
			}
		}

		// Discard whatever is still open, then the committed state must
		// equal the serializable reference exactly.
		for si, tx := range open {
			if tx != nil {
				if _, err := sess[si].Exec("ROLLBACK"); err != nil {
					t.Fatalf("final ROLLBACK session %d: %v", si, err)
				}
			}
		}
		for _, tb := range tables {
			got := readRows(t, db, "SELECT v FROM "+tb)
			if !equal(got, committed[tb]) {
				t.Fatalf("final state %s = %v, serializable reference %v", tb, got, committed[tb])
			}
		}
	})
}

// readRows returns the first column of a query's rows.
func readRows(t *testing.T, q Querier, sql string) []int64 {
	t.Helper()
	res, err := q.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Int())
	}
	return out
}
