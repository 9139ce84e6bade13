package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/mle"
)

// corruptBackend wraps a Backend and fails Load (and Get-through-Scan
// stays honest: Scan is untouched, so index rebuilds still work) with
// container.ErrCorrupt for chosen containers — the deterministic stand-in
// for a post-fsync media error caught by the record CRC.
type corruptBackend struct {
	container.Backend
	mu  sync.Mutex
	bad map[containerRef]bool
}

func (b *corruptBackend) markBad(ref containerRef) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bad == nil {
		b.bad = make(map[containerRef]bool)
	}
	b.bad[ref] = true
}

func (b *corruptBackend) Load(shard, id int) (*container.Container, error) {
	b.mu.Lock()
	bad := b.bad[containerRef{shard: shard, id: id}]
	b.mu.Unlock()
	if bad {
		return nil, container.ErrCorrupt
	}
	return b.Backend.Load(shard, id)
}

// degradedFixture backs up ~1 MiB into small containers, seals
// everything, and marks containers corrupt: the mid-stream chunk's
// container, or with pair set two containers whose chunks one restore
// window (at cfg.Workers) interleaves — A, then B, then A again — so the
// window's lost ranges come from two batches and only stream order lists
// them correctly. It returns the client, the original bytes, and the
// expected lost regions (every recipe entry whose chunk lives in a
// corrupt container).
func degradedFixture(t *testing.T, cfg Config, pair bool) (*Client, *mle.Recipe, []byte, []LostRange) {
	t.Helper()
	const containerBytes = 32 << 10
	data := randData(17, 1<<20)
	cb := &corruptBackend{Backend: container.NewMemBackend(4)}
	store, err := NewStoreWithBackend(containerBytes, cb)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	refs := make([]containerRef, len(recipe.Entries))
	for i, e := range recipe.Entries {
		ref, _, ok, err := store.locate(e.Fingerprint)
		if err != nil || !ok {
			t.Fatalf("chunk %d not located (err=%v)", i, err)
		}
		refs[i] = ref
	}
	mid := len(recipe.Entries) / 2
	bad := []containerRef{refs[mid]}
	if pair {
		bad = interleavedContainers(refs, restoreWindowStarts(recipe, cfg.Workers, containerBytes), mid)
		if bad == nil {
			t.Fatal("fixture: no window past mid-stream interleaves two containers")
		}
	}
	for _, ref := range bad {
		cb.markBad(ref)
	}

	var lost []LostRange
	var off uint64
	for i, e := range recipe.Entries {
		if slices.Contains(bad, refs[i]) {
			lost = append(lost, LostRange{Offset: off, Length: uint64(e.Size), Fingerprint: e.Fingerprint})
		}
		off += uint64(e.Size)
	}
	return client, recipe, data, lost
}

// interleavedContainers finds, in the first window at or after entry
// from, containers A != B with entries in the order A, B, A.
func interleavedContainers(refs []containerRef, starts []int, from int) []containerRef {
	starts = append(starts, len(refs))
	for w := 0; w+1 < len(starts); w++ {
		lo, hi := starts[w], starts[w+1]
		if hi <= from {
			continue
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if refs[j] == refs[i] {
					continue
				}
				for k := j + 1; k < hi; k++ {
					if refs[k] == refs[i] {
						return []containerRef{refs[i], refs[j]}
					}
				}
			}
		}
	}
	return nil
}

// checkDegradedOutput asserts out is exact outside the lost ranges and
// zero inside them.
func checkDegradedOutput(t *testing.T, data, out []byte, lost []LostRange) {
	t.Helper()
	if len(out) != len(data) {
		t.Fatalf("degraded output %d bytes, want %d", len(out), len(data))
	}
	expect := append([]byte(nil), data...)
	for _, r := range lost {
		for i := r.Offset; i < r.Offset+r.Length; i++ {
			expect[i] = 0
		}
	}
	if !bytes.Equal(out, expect) {
		t.Fatal("degraded output differs outside/inside the reported lost ranges")
	}
}

// TestRestoreCorruptContainerStrict: without DegradedRestore, a corrupt
// container mid-stream fails both restore paths with an error wrapping
// container.ErrCorrupt, the parallel pipeline drains without deadlock,
// and every pooled buffer comes back (run under -race, this is the
// satellite's propagation proof).
func TestRestoreCorruptContainerStrict(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Workers: 1}},
		{"parallel", Config{Workers: 8, RestoreCacheContainers: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			client, recipe, _, _ := degradedFixture(t, mode.cfg, false)
			baseline := RestoreBufsOutstanding()
			var out bytes.Buffer
			err := client.Restore(recipe, &out)
			if !errors.Is(err, container.ErrCorrupt) {
				t.Fatalf("restore over corrupt container: %v, want container.ErrCorrupt", err)
			}
			var de *DegradedError
			if errors.As(err, &de) {
				t.Fatal("strict restore returned a DegradedError")
			}
			if got := RestoreBufsOutstanding(); got != baseline {
				t.Fatalf("%d pooled restore buffers outstanding after failed restore, want %d", got, baseline)
			}
		})
	}
}

// TestRestoreDegraded: with DegradedRestore, both restore engines
// complete with zero-filled holes exactly at the corrupted containers'
// chunks, report them through an errors.As-retrievable *DegradedError in
// stream order — also when one window loses the interleaved chunks of two
// containers, which it reads as separate batches — and leak no pooled
// buffers.
func TestRestoreDegraded(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Workers: 1, DegradedRestore: true}},
		{"parallel", Config{Workers: 8, RestoreCacheContainers: 4, DegradedRestore: true}},
		{"parallelNoCache", Config{Workers: 4, DegradedRestore: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, pair := range []bool{false, true} {
				t.Run(fmt.Sprintf("interleaved=%v", pair), func(t *testing.T) {
					client, recipe, data, lost := degradedFixture(t, mode.cfg, pair)
					baseline := RestoreBufsOutstanding()
					var out bytes.Buffer
					err := client.Restore(recipe, &out)
					var de *DegradedError
					if !errors.As(err, &de) {
						t.Fatalf("degraded restore error = %v, want *DegradedError", err)
					}
					if len(de.Ranges) != len(lost) {
						t.Fatalf("reported %d lost ranges, want %d", len(de.Ranges), len(lost))
					}
					for i, r := range de.Ranges {
						if r != lost[i] {
							t.Fatalf("lost range %d = %+v, want %+v", i, r, lost[i])
						}
					}
					checkDegradedOutput(t, data, out.Bytes(), lost)
					if got := RestoreBufsOutstanding(); got != baseline {
						t.Fatalf("%d pooled restore buffers outstanding after degraded restore, want %d", got, baseline)
					}
				})
			}
		})
	}
}

// TestRestoreDegradedMissingChunk: a chunk absent from the index entirely
// (deleted by repair, never uploaded) zero-fills the same way — including
// through the parallel planner, which cannot batch a location it does not
// have.
func TestRestoreDegradedMissingChunk(t *testing.T) {
	data := randData(23, 256<<10)
	store := NewStoreWithShards(32<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 4, RestoreCacheContainers: 4, DegradedRestore: true})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Drop a mid-stream chunk from every shard index: simulate repair
	// having removed it.
	mid := len(recipe.Entries) / 2
	fp := recipe.Entries[mid].Fingerprint
	sh := store.shardFor(fp)
	sh.mu.Lock()
	delete(sh.index.(*mapIndex).m, fp)
	sh.mu.Unlock()

	var lost []LostRange
	var off uint64
	for _, e := range recipe.Entries {
		if e.Fingerprint == fp {
			lost = append(lost, LostRange{Offset: off, Length: uint64(e.Size), Fingerprint: fp})
		}
		off += uint64(e.Size)
	}
	var out bytes.Buffer
	err = client.Restore(recipe, &out)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("restore with missing chunk = %v, want *DegradedError", err)
	}
	if len(de.Ranges) != len(lost) {
		t.Fatalf("reported %d lost ranges, want %d", len(de.Ranges), len(lost))
	}
	checkDegradedOutput(t, data, out.Bytes(), lost)
}
