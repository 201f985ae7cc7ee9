package main

import (
	"os"
	"path/filepath"
	"testing"

	"perfbase/internal/sqldb"
)

// TestBlockdumpExitStatus: -blockdump is the database's fsck, so its
// exit status has to say what its output says. It exited 0 beside a
// printed crc=BAD before the block file became the checkpoint.
func TestBlockdumpExitStatus(t *testing.T) {
	dir := t.TempDir()
	db, err := sqldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE TABLE runs (id integer, fs string)",
		"INSERT INTO runs VALUES (1, 'ufs'), (2, 'nfs')",
		"CREATE TABLE zz_empty (a float)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if code := dumpBlocks(dir); code != 0 {
		t.Fatalf("intact checkpoint: exit %d, want 0", code)
	}

	path := filepath.Join(dir, "columns.blk")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range map[string]int{
		"block payload": 17,               // right after the 16-byte header
		"footer":        len(intact) - 22, // right before the 20-byte trailer
	} {
		buf := append([]byte(nil), intact...)
		buf[at] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if code := dumpBlocks(dir); code == 0 {
			t.Errorf("flipped byte in the %s: exit 0", name)
		}
	}
	if code := dumpBlocks(t.TempDir()); code == 0 {
		t.Error("directory without a checkpoint: exit 0")
	}
}
