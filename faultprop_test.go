package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"freqdedup/internal/faultio"
	"freqdedup/internal/vfs"
)

// countingFS wraps a vfs.FS and counts Sync and write calls per file base
// name, so a test can learn deterministically how many syncs or writes a
// setup phase costs and arm a fault at exactly the next one.
type countingFS struct {
	vfs.FS
	mu     sync.Mutex
	syncs  map[string]int
	writes map[string]int
}

func newCountingFS(inner vfs.FS) *countingFS {
	return &countingFS{FS: inner, syncs: make(map[string]int), writes: make(map[string]int)}
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c, name: name}, nil
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c, name: name}, nil
}

func (c *countingFS) synced(name string) {
	c.mu.Lock()
	c.syncs[filepath.Base(name)]++
	c.mu.Unlock()
}

func (c *countingFS) wrote(name string) {
	c.mu.Lock()
	c.writes[filepath.Base(name)]++
	c.mu.Unlock()
}

func (c *countingFS) count(pattern string) int {
	return c.countIn(c.syncs, pattern)
}

func (c *countingFS) countWrites(pattern string) int {
	return c.countIn(c.writes, pattern)
}

func (c *countingFS) countIn(counts map[string]int, pattern string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for base, k := range counts {
		if ok, _ := filepath.Match(pattern, base); ok {
			n += k
		}
	}
	return n
}

type countingFile struct {
	vfs.File
	fs   *countingFS
	name string
}

func (f countingFile) Sync() error {
	f.fs.synced(f.name)
	return f.File.Sync()
}

func (f countingFile) Write(p []byte) (int, error) {
	f.fs.wrote(f.name)
	return f.File.Write(p)
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.wrote(f.name)
	return f.File.WriteAt(p, off)
}

// TestBackupNotAckedOnSyncFailure is the fsync-propagation audit: for
// each of the three durable formats — container shards, snapshot
// catalog, trace log — a failed fsync during Backup must surface as a
// Backup error, and the snapshot must not exist, neither live nor after
// a crash-and-reopen. An acknowledged snapshot whose durability barrier
// silently failed would be the worst bug this stack can have.
func TestBackupNotAckedOnSyncFailure(t *testing.T) {
	data := repoData(71, 128<<10)
	var key Key
	copy(key[:], "sync fault key")
	baseOpts := func(fs FileSystem) []RepositoryOption {
		return []RepositoryOption{
			WithFileSystem(fs), WithRepositoryKey(key),
			WithShards(2), WithContainerBytes(16 << 10),
			WithUploadObserver(nil),
		}
	}
	ctx := context.Background()

	// Calibration pass: how many syncs does each file see before the
	// backup's own barriers run?
	calib := newCountingFS(faultio.NewMemFS())
	repo, err := CreateRepository("repo", baseOpts(calib)...)
	if err != nil {
		t.Fatal(err)
	}
	preBackup := map[string]int{
		"shard-*.fdc": calib.count("shard-*.fdc"),
		"catalog.fdr": calib.count("catalog.fdr"),
		"traces.fdt":  calib.count("traces.fdt"),
	}
	if _, err := repo.Backup(ctx, "snap", bytes.NewReader(data)); err != nil {
		t.Fatalf("calibration backup: %v", err)
	}
	for pat, pre := range preBackup {
		if calib.count(pat) <= pre {
			t.Fatalf("calibration: backup did not sync %s — no durability barrier to test", pat)
		}
	}
	repo.Close()

	for _, pat := range []string{"shard-*.fdc", "catalog.fdr", "traces.fdt"} {
		t.Run(pat, func(t *testing.T) {
			// Fail the first sync of this file past the setup phase: the
			// backup's durability barrier.
			m := faultio.NewMemFSPlan(faultio.Plan{Seed: 71, Rules: []faultio.Rule{{
				Op: faultio.OpSync, PathGlob: pat, Nth: preBackup[pat] + 1,
			}}})
			repo, err := CreateRepository("repo", baseOpts(m)...)
			if err != nil {
				t.Fatal(err)
			}
			_, err = repo.Backup(ctx, "snap", bytes.NewReader(data))
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("backup with failed %s sync: err = %v, want injected sync failure", pat, err)
			}
			for _, s := range repo.Snapshots() {
				if s.Name == "snap" {
					t.Fatalf("snapshot acked live despite failed %s sync", pat)
				}
			}
			repo.Close()

			// And the machine dying right now must agree: nothing in the
			// durable image claims the snapshot exists.
			img := m.CrashImage()
			reopened, err := OpenRepository("repo", baseOpts(img)...)
			if err != nil {
				t.Fatalf("reopen after failed sync: %v", err)
			}
			defer reopened.Close()
			for _, s := range reopened.Snapshots() {
				if s.Name == "snap" {
					t.Fatalf("snapshot survived crash despite failed %s sync", pat)
				}
			}
			if err := reopened.Verify(ctx); err != nil {
				t.Fatalf("verify after failed-sync crash: %v", err)
			}
			// The failure was transient-free and clean: a retried backup on
			// the live filesystem succeeds (the rule fired its once).
			repo2, err := OpenRepository("repo", baseOpts(m)...)
			if err != nil {
				t.Fatal(err)
			}
			defer repo2.Close()
			if _, err := repo2.Backup(ctx, "snap-retry", bytes.NewReader(data)); err != nil {
				t.Fatalf("retried backup after one-shot sync fault: %v", err)
			}
			mustRestore(t, repo2, "snap-retry", data)
		})
	}
}

// TestTornAppendThenAckedBackup is the torn-write audit beside the
// fsync one: for each durable format, a write that tears a prefix of its
// record into the file and then fails must fail the backup, and a later,
// smaller backup on the same live repository must be acknowledged and
// survive a reopen. Without the failed append's torn bytes being cut
// away, the smaller record lands at the same offset and the torn bytes
// stay behind it, where replay later reads them as mid-file corruption.
// The shard files discard a failed seal's tail and act as the control.
func TestTornAppendThenAckedBackup(t *testing.T) {
	base := repoData(81, 256<<10)
	big := repoData(82, 1<<20)
	small := repoData(83, 4<<10)
	var key Key
	copy(key[:], "torn write key")
	opts := func(fs FileSystem) []RepositoryOption {
		return []RepositoryOption{
			WithFileSystem(fs), WithRepositoryKey(key),
			WithShards(2), WithContainerBytes(16 << 10), WithWorkers(1),
			WithUploadObserver(nil),
		}
	}
	ctx := context.Background()
	// tear is which of the big backup's writes to the file is torn. The
	// trace log writes a session's begin record when the backup starts
	// and its chunks record at commit: the chunks record is the one much
	// longer than the small backup's records.
	cases := []struct {
		pat  string
		tear int
	}{
		{"shard-*.fdc", 1},
		{"catalog.fdr", 1},
		{"traces.fdt", 2},
	}

	// Calibration pass: how many writes does each file see before the
	// big backup, and does the big backup write each file often enough?
	calib := newCountingFS(faultio.NewMemFS())
	repo, err := CreateRepository("repo", opts(calib)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Backup(ctx, "base", bytes.NewReader(base)); err != nil {
		t.Fatalf("calibration base backup: %v", err)
	}
	pre := map[string]int{}
	for _, tc := range cases {
		pre[tc.pat] = calib.countWrites(tc.pat)
	}
	if _, err := repo.Backup(ctx, "big", bytes.NewReader(big)); err != nil {
		t.Fatalf("calibration big backup: %v", err)
	}
	for _, tc := range cases {
		if calib.countWrites(tc.pat) < pre[tc.pat]+tc.tear {
			t.Fatalf("calibration: big backup wrote %s fewer than %d times", tc.pat, tc.tear)
		}
	}
	repo.Close()

	for _, tc := range cases {
		t.Run(tc.pat, func(t *testing.T) {
			m := faultio.NewMemFSPlan(faultio.Plan{Seed: 81, Rules: []faultio.Rule{{
				Op: faultio.OpWrite, PathGlob: tc.pat, Nth: pre[tc.pat] + tc.tear,
				Fault: faultio.Fault{ShortWrite: true},
			}}})
			repo, err := CreateRepository("repo", opts(m)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := repo.Backup(ctx, "base", bytes.NewReader(base)); err != nil {
				t.Fatalf("base backup: %v", err)
			}
			if _, err := repo.Backup(ctx, "big", bytes.NewReader(big)); !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("backup with torn %s write: err = %v, want injected write failure", tc.pat, err)
			}
			if _, err := repo.Backup(ctx, "small", bytes.NewReader(small)); err != nil {
				t.Fatalf("backup after torn %s write: %v", tc.pat, err)
			}
			if err := repo.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := OpenRepository("repo", opts(m)...)
			if err != nil {
				t.Fatalf("reopen after torn %s write: %v", tc.pat, err)
			}
			defer reopened.Close()
			for _, s := range reopened.Snapshots() {
				if s.Name == "big" {
					t.Fatalf("snapshot with a torn %s write survived", tc.pat)
				}
			}
			mustRestore(t, reopened, "base", base)
			mustRestore(t, reopened, "small", small)
		})
	}
}
