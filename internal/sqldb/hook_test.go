package sqldb

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"perfbase/internal/value"
)

// TestHookReentryFailsFast is the deadlock-regression test for the
// commit-hook contract: a hook that calls back into the database must
// receive ErrHookReentrant immediately, not hang on the writer latch.
func TestHookReentryFailsFast(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")

	type outcome struct {
		execErr   error
		insertErr error
	}
	got := make(chan outcome, 1)
	defer db.AddCommitHook(func(pos ReplPos, stmts []string) {
		var o outcome
		_, o.execErr = db.Exec("SELECT a FROM t")
		_, o.insertErr = db.InsertRows("t", []string{"a"}, []Row{{value.NewInt(1)}})
		select {
		case got <- o:
		default:
		}
	})()

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("INSERT INTO t VALUES (1)")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("INSERT: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit hung: hook call-back deadlocked instead of failing typed")
	}

	o := <-got
	if !errors.Is(o.execErr, ErrHookReentrant) {
		t.Errorf("Exec inside hook: got %v, want ErrHookReentrant", o.execErr)
	}
	if !errors.Is(o.insertErr, ErrHookReentrant) {
		t.Errorf("InsertRows inside hook: got %v, want ErrHookReentrant", o.insertErr)
	}
}

// TestHookReentrySessionPaths covers the session entry points: both
// Session.Exec and Session.InsertRows must refuse hook re-entry.
func TestHookReentrySessionPaths(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	sess := db.NewSession()

	var execErr, insErr atomic.Pointer[error]
	defer db.AddCommitHook(func(pos ReplPos, stmts []string) {
		if _, err := sess.Exec("SELECT a FROM t"); err != nil {
			execErr.Store(&err)
		}
		if _, err := sess.InsertRows("t", []string{"a"}, []Row{{value.NewInt(1)}}); err != nil {
			insErr.Store(&err)
		}
	})()
	mustExec(t, db, "INSERT INTO t VALUES (2)")

	if p := execErr.Load(); p == nil || !errors.Is(*p, ErrHookReentrant) {
		t.Errorf("Session.Exec inside hook: want ErrHookReentrant, got %v", deref(execErr.Load()))
	}
	if p := insErr.Load(); p == nil || !errors.Is(*p, ErrHookReentrant) {
		t.Errorf("Session.InsertRows inside hook: want ErrHookReentrant, got %v", deref(insErr.Load()))
	}
}

// TestHookNotReentrantFromOtherGoroutine: the guard keys on the hook's
// own goroutine; an unrelated goroutine querying while a hook runs is
// legal and must not see ErrHookReentrant.
func TestHookNotReentrantFromOtherGoroutine(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")

	inHook := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	defer db.AddCommitHook(func(pos ReplPos, stmts []string) {
		if once.CompareAndSwap(false, true) {
			close(inHook)
			<-release
		}
	})()

	readErr := make(chan error, 1)
	go func() {
		<-inHook
		// Lock-free read against the committed snapshot while the hook
		// is mid-flight on another goroutine.
		_, err := db.Exec("SELECT a FROM t")
		readErr <- err
		close(release)
	}()
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := <-readErr; err != nil {
		t.Fatalf("concurrent read during hook: %v", err)
	}
}

// TestAddCommitHook exercises the hook registry: all hooks see every
// frame in commit order, in registration order, and removal detaches
// exactly one.
func TestAddCommitHook(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")

	var aN, bN, firstN atomic.Int64
	var lastPos atomic.Value
	db.AddCommitHook(func(pos ReplPos, stmts []string) { firstN.Add(1) })
	removeA := db.AddCommitHook(func(pos ReplPos, stmts []string) {
		// The hook registered first fires first.
		if firstN.Load() != aN.Load()+1 {
			t.Errorf("hook order: first=%d a=%d", firstN.Load(), aN.Load())
		}
		aN.Add(1)
		lastPos.Store(pos)
	})
	removeB := db.AddCommitHook(func(pos ReplPos, stmts []string) { bN.Add(1) })

	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	if aN.Load() != 2 || bN.Load() != 2 || firstN.Load() != 2 {
		t.Fatalf("after 2 commits: first=%d a=%d b=%d", firstN.Load(), aN.Load(), bN.Load())
	}
	if pos := lastPos.Load().(ReplPos); pos.LSN != 2 {
		t.Fatalf("last pos = %+v, want LSN 2", pos)
	}

	removeA()
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	if aN.Load() != 2 || bN.Load() != 3 {
		t.Fatalf("after removeA: a=%d b=%d", aN.Load(), bN.Load())
	}
	removeB()
	removeB() // double removal is a no-op
	mustExec(t, db, "INSERT INTO t VALUES (4)")
	if bN.Load() != 3 {
		t.Fatalf("after removeB: b=%d", bN.Load())
	}
	if firstN.Load() != 4 {
		t.Fatalf("the hook never removed should keep firing: %d", firstN.Load())
	}
}

// TestAddCommitHookEnablesFrames: with only an AddCommitHook attached
// (no WAL), mutations must still produce frames.
func TestAddCommitHookEnablesFrames(t *testing.T) {
	db := NewMemory()
	defer db.Close()
	var n atomic.Int64
	remove := db.AddCommitHook(func(pos ReplPos, stmts []string) { n.Add(int64(len(stmts))) })
	defer remove()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if n.Load() == 0 {
		t.Fatal("AddCommitHook alone did not enable frame bookkeeping")
	}
}

func deref(p *error) error {
	if p == nil {
		return nil
	}
	return *p
}
