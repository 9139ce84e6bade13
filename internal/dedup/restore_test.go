package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/mle"
)

// restoreModes enumerates every Config encryption/defense mode, as the
// acceptance matrix requires.
func restoreModes(t *testing.T) map[string]Config {
	t.Helper()
	deriver := mle.NewLocalDeriver([]byte("restore-test-secret"))
	return map[string]Config{
		"convergent":  {},
		"serverAided": {Encryption: EncServerAided, Deriver: deriver},
		"minhash":     {Encryption: EncMinHash, Deriver: deriver},
		"scramble":    {Scramble: true, ScrambleSeed: 7},
	}
}

// restoreChunkAtATime is the oracle Restore is proven against: one store
// lookup and one decrypt per recipe entry, in recipe order.
func restoreChunkAtATime(store *Store, recipe *mle.Recipe) ([]byte, error) {
	var out []byte
	for i, e := range recipe.Entries {
		ct, err := store.Get(e.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("chunk %d (%v): %w", i, e.Fingerprint, err)
		}
		plain := mle.DecryptDeterministic(e.Key, ct)
		if len(plain) != int(e.Size) {
			return nil, fmt.Errorf("chunk %d size %d, recipe says %d", i, len(plain), e.Size)
		}
		out = append(out, plain...)
	}
	return out, nil
}

// restoreWindowStarts restates Restore's window rule for the tests: a
// window takes entries while they fit in workers × containerBytes of
// plaintext, and always at least one. It returns each window's first
// entry index.
func restoreWindowStarts(recipe *mle.Recipe, workers, containerBytes int) []int {
	limit := uint64(workers) * uint64(containerBytes)
	var starts []int
	var n uint64
	for i, e := range recipe.Entries {
		if len(starts) == 0 || n+uint64(e.Size) > limit {
			starts = append(starts, i)
			n = 0
		}
		n += uint64(e.Size)
	}
	return starts
}

// TestParallelRestoreMatchesSerial is the pipeline's bit-for-bit
// guarantee: for every Config mode, Restore produces output identical to
// the chunk-at-a-time oracle — and to the original stream — at workers ∈
// {1, 4, 16} and container cache sizes ∈ {0, 1, 64}. The containers are
// small, so every configuration's recipe spans several windows. Run under
// -race, it is also the pipeline's concurrency proof.
func TestParallelRestoreMatchesSerial(t *testing.T) {
	const containerBytes = 32 << 10
	data := randData(91, 1<<20)
	for mode, cfg := range restoreModes(t) {
		t.Run(mode, func(t *testing.T) {
			store := NewStoreWithShards(containerBytes, DefaultShards)
			cfg := cfg
			cfg.Workers = 4
			client, err := NewClient(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recipe, err := client.Backup(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			serial, err := restoreChunkAtATime(store, recipe)
			if err != nil {
				t.Fatalf("chunk-at-a-time restore: %v", err)
			}
			if !bytes.Equal(serial, data) {
				t.Fatal("chunk-at-a-time restore does not reproduce the original stream")
			}
			for _, workers := range []int{1, 4, 16} {
				if n := len(restoreWindowStarts(recipe, workers, containerBytes)); n < 2 {
					t.Fatalf("workers=%d: recipe fits in %d window(s); the test needs several", workers, n)
				}
				for _, cacheSize := range []int{0, 1, 64} {
					t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize), func(t *testing.T) {
						rcfg := cfg
						rcfg.Workers = workers
						rcfg.RestoreCacheContainers = cacheSize
						rc, err := NewClient(store, rcfg)
						if err != nil {
							t.Fatal(err)
						}
						var out bytes.Buffer
						if err := rc.Restore(recipe, &out); err != nil {
							t.Fatalf("restore: %v", err)
						}
						if !bytes.Equal(out.Bytes(), serial) {
							t.Fatal("restore differs from the chunk-at-a-time restore")
						}
					})
				}
			}
		})
	}
}

// countingBackend counts Load calls per container.
type countingBackend struct {
	container.Backend
	mu    sync.Mutex
	loads map[containerRef]int
}

func (b *countingBackend) Load(shard, id int) (*container.Container, error) {
	b.mu.Lock()
	b.loads[containerRef{shard: shard, id: id}]++
	b.mu.Unlock()
	return b.Backend.Load(shard, id)
}

// TestRestoreReadsEachContainerOncePerWindow pins restore's read
// amplification on the layout a repository leaves behind: a file-backed
// store with 16 shards, each backup sealed on its own (one partial
// container per shard per backup), so adjacent recipe entries almost
// never share a container. Restoring the last of several generations
// with no cache may read each container at most once per window that
// needs it.
func TestRestoreReadsEachContainerOncePerWindow(t *testing.T) {
	const containerBytes = 1 << 20
	fb, err := container.CreateFileBackend(t.TempDir(), DefaultShards, containerBytes)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: fb, loads: make(map[containerRef]int)}
	store, err := NewStoreWithBackend(containerBytes, cb)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(120, 4<<20)
	var recipe *mle.Recipe
	for gen := int64(0); gen < 5; gen++ {
		if gen > 0 {
			data = mutate(data, 120+gen)
		}
		if recipe, err = client.Backup(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		// The bound: each window may read every distinct container its
		// entries live in, once.
		bound := make(map[containerRef]int)
		starts := append(restoreWindowStarts(recipe, workers, containerBytes), len(recipe.Entries))
		for w := 0; w+1 < len(starts); w++ {
			seen := make(map[containerRef]bool)
			for _, e := range recipe.Entries[starts[w]:starts[w+1]] {
				ref, _, ok, err := store.locate(e.Fingerprint)
				if err != nil || !ok {
					t.Fatalf("chunk %v not located (err=%v)", e.Fingerprint, err)
				}
				if !seen[ref] {
					seen[ref] = true
					bound[ref]++
				}
			}
		}
		cb.mu.Lock()
		cb.loads = make(map[containerRef]int)
		cb.mu.Unlock()
		rc, err := NewClient(store, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("workers=%d: restore mismatched", workers)
		}
		cb.mu.Lock()
		loads, total, maxTotal := cb.loads, 0, 0
		cb.mu.Unlock()
		for _, n := range bound {
			maxTotal += n
		}
		for ref, n := range loads {
			total += n
			if n > bound[ref] {
				t.Errorf("workers=%d: container %d (shard %d) loaded %d times, its entries span %d windows",
					workers, ref.id, ref.shard, n, bound[ref])
			}
		}
		t.Logf("workers=%d: %d container loads for %d recipe entries in %d windows (bound %d)",
			workers, total, len(recipe.Entries), len(starts)-1, maxTotal)
	}
}

// TestRestoreDispatch checks the public Restore entry point in both its
// regimes: the inline engine (workers=1) and the goroutine pipeline.
func TestRestoreDispatch(t *testing.T) {
	data := randData(92, 512<<10)
	store := NewStoreWithShards(32<<10, 4)
	client, err := NewClient(store, Config{Workers: 2, RestoreCacheContainers: 8})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Workers: 1},                            // inline
		{Workers: 0, RestoreCacheContainers: 8}, // pipeline, GOMAXPROCS workers
		{Workers: 1, RestoreCacheContainers: 1}, // inline, cached
	} {
		rc, err := NewClient(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("Restore with %+v mismatched", cfg)
		}
	}
}

// TestFileBackedRestoreAfterReopen proves the persistence round trip of
// the acceptance criteria: backup into a file-backed store, close the
// process's store object, Open the directory again, and restore the same
// bytes through the parallel pipeline.
func TestFileBackedRestoreAfterReopen(t *testing.T) {
	dir := t.TempDir()
	data := randData(93, 1<<20)

	store, err := Create(dir, 32<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	beforeUnique := store.UniqueChunks()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.UniqueChunks(); got != beforeUnique {
		t.Fatalf("reopened store has %d unique chunks, want %d", got, beforeUnique)
	}
	for _, cfg := range []Config{
		{Workers: 1},                             // inline
		{Workers: 4, RestoreCacheContainers: 16}, // pipeline
	} {
		rc, err := NewClient(reopened, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatalf("restore after reopen (%+v): %v", cfg, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("reopened restore mismatched (%+v)", cfg)
		}
	}
	// Dedup against the reopened index: re-backing-up the same stream
	// must store nothing new.
	rc, err := NewClient(reopened, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Backup(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if got := reopened.UniqueChunks(); got != beforeUnique {
		t.Fatalf("re-backup after reopen stored %d new chunks", got-beforeUnique)
	}
}

// TestFileBackedGCThenRestore exercises the GC sweep's rewrite through
// the file backend: expire one of two backups, GC, reopen, and restore
// the survivor.
func TestFileBackedGCThenRestore(t *testing.T) {
	dir := t.TempDir()
	store, err := Create(dir, 32<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := randData(94, 512<<10)
	v2 := mutate(v1, 95)
	r1, err := client.Backup(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.Backup(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("b1", r1); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("b2", r2); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteBackup("b1"); err != nil {
		t.Fatal(err)
	}
	st, err := store.GC()
	if err != nil {
		t.Fatalf("GC through file backend: %v", err)
	}
	if st.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("open after GC rewrite: %v", err)
	}
	defer reopened.Close()
	rc, err := NewClient(reopened, Config{Workers: 4, RestoreCacheContainers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rc.Restore(r2, &out); err != nil {
		t.Fatalf("survivor restore after GC+reopen: %v", err)
	}
	if !bytes.Equal(out.Bytes(), v2) {
		t.Fatal("survivor restore mismatched after GC+reopen")
	}
}

// corruptShardFile flips one byte inside the data region of the given
// shard file's first record.
func corruptShardFile(t *testing.T, dir string, shard int) {
	t.Helper()
	name := filepath.Join(dir, fmt.Sprintf("shard-%04d.fdc", shard))
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 64 {
		t.Fatalf("shard file %s too small to corrupt meaningfully", name)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreCorruptContainerOnDisk flips a byte in a persisted container
// and checks that both restore engines surface container.ErrCorrupt instead
// of returning wrong bytes.
func TestRestoreCorruptContainerOnDisk(t *testing.T) {
	dir := t.TempDir()
	data := randData(96, 256<<10)
	store, err := Create(dir, 32<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	corruptShardFile(t, dir, 0)

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open validates structure only, should succeed: %v", err)
	}
	defer reopened.Close()
	for _, cfg := range []Config{
		{Workers: 1},                            // inline
		{Workers: 4, RestoreCacheContainers: 4}, // pipeline
	} {
		rc, err := NewClient(reopened, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = rc.Restore(recipe, &out)
		if err == nil {
			t.Fatalf("restore of corrupted store succeeded (%+v)", cfg)
		}
		if !errors.Is(err, container.ErrCorrupt) {
			t.Fatalf("restore error %v, want container.ErrCorrupt", err)
		}
	}
}

// TestOpenTruncatedStoreDir covers Open's two truncation regimes: a torn
// record tail is recovered (losing only the unacknowledged container,
// which restore then reports as a missing chunk), while a file truncated
// into its header is structural corruption and refuses to open.
func TestOpenTruncatedStoreDir(t *testing.T) {
	dir := t.TempDir()
	data := randData(97, 256<<10)
	store, err := Create(dir, 32<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	name := filepath.Join(dir, "shard-0000.fdc")
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(name, st.Size()-25); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("open after torn tail should recover: %v", err)
	}
	rc, err := NewClient(reopened, Config{Workers: 4, RestoreCacheContainers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rc.Restore(recipe, &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore with a truncated container: %v, want ErrNotFound", err)
	}
	reopened.Close()

	// Truncating into the file header is not recoverable.
	if err := os.Truncate(name, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("Open of truncated header: %v, want container.ErrCorrupt", err)
	}
}

// failAfterWriter fails with errBoom once n bytes have been written.
type failAfterWriter struct {
	n       int
	written int
}

var errBoom = errors.New("boom")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errBoom
	}
	w.written += len(p)
	return len(p), nil
}

// TestRestoreWriterErrorReleasesPooledBuffers mirrors the backup
// pipeline's drain-on-error contract: a mid-restore writer failure —
// before the first window, mid-window, across windows — must stop both
// engines, propagate the error, and hand every pooled plaintext buffer
// back (in-flight windows included).
func TestRestoreWriterErrorReleasesPooledBuffers(t *testing.T) {
	data := randData(98, 1<<20)
	store := NewStoreWithShards(32<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 8, RestoreCacheContainers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	baseline := restoreBufsOutstanding.Load()
	for _, cfg := range []Config{
		{Workers: 8, RestoreCacheContainers: 4}, // 256 KiB windows
		{Workers: 1},                            // inline, 32 KiB windows
	} {
		rc, err := NewClient(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, failAt := range []int{0, 100, 128 << 10, 768 << 10} {
			err := rc.Restore(recipe, &failAfterWriter{n: failAt})
			if !errors.Is(err, errBoom) {
				t.Fatalf("workers=%d: restore with writer failing at %d: %v, want errBoom", cfg.Workers, failAt, err)
			}
			if got := restoreBufsOutstanding.Load(); got != baseline {
				t.Fatalf("workers=%d, failAt=%d: %d pooled restore buffers outstanding, want %d",
					cfg.Workers, failAt, got, baseline)
			}
		}
	}
	// And a clean restore still works afterwards, reusing the pool.
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore after writer-error drains mismatched")
	}
	if got := restoreBufsOutstanding.Load(); got != baseline {
		t.Fatalf("%d pooled restore buffers outstanding after clean restore", got)
	}
}

// TestRestoreMissingChunkParallel: a recipe referencing an unknown
// fingerprint fails its window's plan with ErrNotFound.
func TestRestoreMissingChunkParallel(t *testing.T) {
	store := NewStore(0)
	client, err := NewClient(store, Config{Workers: 4, RestoreCacheContainers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe := &mle.Recipe{Entries: []mle.RecipeEntry{{
		Fingerprint: [8]byte{1, 2, 3},
		Size:        16,
	}}}
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of unknown chunk: %v, want ErrNotFound", err)
	}
}

// TestRestoreConcurrentWithGC restores a registered backup while GC
// passes reclaim interleaved garbage and compact the shards underneath
// it: planned locations go stale and planned containers can vanish
// mid-restore, exercising the fingerprint-verified fallback paths.
func TestRestoreConcurrentWithGC(t *testing.T) {
	store := NewStoreWithShards(16<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(100, 512<<10)
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("keep", recipe); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	churnDone := make(chan error, 1)
	go func() {
		defer close(churnDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fresh unregistered garbage, then a GC that reclaims it —
			// every pass rewrites containers and moves live locations.
			gcClient, err := NewClient(store, Config{Workers: 1})
			if err != nil {
				churnDone <- err
				return
			}
			if _, err := gcClient.Backup(bytes.NewReader(randData(2000+i, 128<<10))); err != nil {
				churnDone <- err
				return
			}
			if _, err := store.GC(); err != nil {
				churnDone <- err
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		rc, err := NewClient(store, Config{Workers: 4, RestoreCacheContainers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatalf("restore %d concurrent with GC: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("restore %d mismatched under concurrent GC", i)
		}
	}
	close(stop)
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}
}

// TestRestoreConcurrentWithBackups runs restores while other clients
// append to the same store — open containers seal mid-restore — proving
// the locate/read race handling under -race.
func TestRestoreConcurrentWithBackups(t *testing.T) {
	store := NewStoreWithShards(32<<10, DefaultShards)
	data := randData(99, 512<<10)
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			wc, err := NewClient(store, Config{Workers: 2})
			if err != nil {
				writerDone <- err
				return
			}
			if _, err := wc.Backup(bytes.NewReader(randData(1000+i, 64<<10))); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		rc, err := NewClient(store, Config{Workers: 4, RestoreCacheContainers: 8})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatalf("restore %d concurrent with backups: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("restore %d mismatched under concurrent backups", i)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}
