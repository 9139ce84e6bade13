package dedup

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"freqdedup/internal/container"
	"freqdedup/internal/lru"
	"freqdedup/internal/mle"
)

// Restore reconstructs the original stream described by recipe, writing it
// to w. Chunks are fetched by ciphertext fingerprint and decrypted with
// the per-chunk keys; recipe order restores the pre-scrambling layout.
//
// Restore is a container-granular parallel pipeline: the recipe is planned
// into container read batches (maximal runs of adjacent chunks stored in
// the same container), Config.Workers goroutines fetch and decrypt the
// batches — reading whole containers through an LRU container cache of
// Config.RestoreCacheContainers buffers — and an in-order writer
// reassembles the stream. The restored bytes are identical to the serial
// chunk-at-a-time restore at every worker count and cache size; with
// Workers == 1 and no cache the serial path runs directly. Peak decrypted
// plaintext held for reordering is bounded by roughly 2×Workers
// containers.
func (c *Client) Restore(recipe *mle.Recipe, w io.Writer) error {
	return c.RestoreContext(context.Background(), recipe, w)
}

// RestoreContext is Restore with cancellation: when ctx is cancelled the
// pipeline stops promptly between chunks — the fetch+decrypt workers abort,
// the in-order writer stops writing, and every pooled plaintext buffer
// still in flight is handed back to the pool before RestoreContext returns
// ctx.Err(). Bytes written to w before the cancellation stay written; the
// output is a strict prefix of the stream.
func (c *Client) RestoreContext(ctx context.Context, recipe *mle.Recipe, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.store == nil {
		return errors.New("dedup: client has no store to restore from")
	}
	if c.cfg.Workers <= 1 && c.cfg.RestoreCacheContainers == 0 {
		return c.restoreSerial(ctx, recipe, w)
	}
	return c.restoreParallel(ctx, recipe, w)
}

// restoreSerial is the chunk-at-a-time restore loop: one store lookup and
// one decrypt per recipe entry, in order. It is the oracle the parallel
// pipeline is proven against and the path Restore takes for the
// single-worker, uncached configuration.
func (c *Client) restoreSerial(ctx context.Context, recipe *mle.Recipe, w io.Writer) error {
	var offset uint64
	var lost []LostRange
	for i, e := range recipe.Entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		ct, err := c.store.Get(e.Fingerprint)
		if err != nil {
			if c.cfg.DegradedRestore && lostable(err) {
				if err := writeZeros(w, int(e.Size)); err != nil {
					return err
				}
				lost = append(lost, LostRange{Offset: offset, Length: uint64(e.Size), Fingerprint: e.Fingerprint})
				offset += uint64(e.Size)
				continue
			}
			return fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, e.Fingerprint, err)
		}
		plain := mle.DecryptDeterministic(e.Key, ct)
		if len(plain) != int(e.Size) {
			return fmt.Errorf("dedup: restore: chunk %d size %d, recipe says %d", i, len(plain), e.Size)
		}
		if _, err := w.Write(plain); err != nil {
			return fmt.Errorf("dedup: restore: write: %w", err)
		}
		offset += uint64(e.Size)
	}
	if len(lost) > 0 {
		return &DegradedError{Ranges: lost}
	}
	return nil
}

// writeZeros writes n zero bytes through a pooled buffer.
func writeZeros(w io.Writer, n int) error {
	buf := restoreBufGet(n)
	zeroFill(buf)
	_, err := w.Write(buf)
	restoreBufPut(buf)
	if err != nil {
		return fmt.Errorf("dedup: restore: write: %w", err)
	}
	return nil
}

// restoreBatch is one unit of the parallel restore plan: a maximal run of
// adjacent recipe entries whose chunks live in the same container, so the
// run costs one container fetch.
type restoreBatch struct {
	ref   containerRef
	start int // first recipe entry index
	n     int // number of entries
}

// restoreResult is one decrypted batch heading to the in-order writer:
// pooled plaintext buffers in recipe order, or the batch's error. In
// degraded mode a batch may also carry the lost ranges it zero-filled.
type restoreResult struct {
	idx  int
	bufs [][]byte
	lost []LostRange
	err  error
}

// restoreCache is the shared container cache of one Restore call: an LRU
// of whole-container entry sets, bounded in containers, behind a mutex so
// fetch workers share hits.
type restoreCache struct {
	mu sync.Mutex
	c  *lru.Cache[containerRef, []container.Entry]
}

func (rc *restoreCache) get(ref containerRef) ([]container.Entry, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.c.Get(ref)
}

func (rc *restoreCache) put(ref containerRef, entries []container.Entry) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.c.Put(ref, entries, 1)
}

// restoreParallel plans, fans out, and reassembles. Batches are handed to
// Config.Workers fetch+decrypt goroutines through a bounded window
// (2×workers batches in flight), and the caller's goroutine writes
// finished batches in plan order, releasing each pooled plaintext buffer
// as soon as it is written. On any error — a missing chunk, a corrupt
// container, a failing writer — the pipeline drains: in-flight batches
// finish or abort, and every pooled buffer is handed back (the drain
// contract mirrors the backup pipeline's).
func (c *Client) restoreParallel(ctx context.Context, recipe *mle.Recipe, w io.Writer) error {
	entries := recipe.Entries
	if len(entries) == 0 {
		return nil
	}

	// Plan the recipe into container read batches. Locations are kept so
	// workers can resolve entries within a fetched container without
	// searching; they are verified against the fingerprint at use (a
	// concurrent GC may move chunks) with a point-lookup fallback.
	locs := make([]container.Location, len(entries))
	offsets := make([]uint64, len(entries))
	var off uint64
	var batches []restoreBatch
	for i, e := range entries {
		offsets[i] = off
		off += uint64(e.Size)
		ref, loc, ok, lerr := c.store.locate(e.Fingerprint)
		if lerr != nil && !c.cfg.DegradedRestore {
			return fmt.Errorf("dedup: restore: chunk %d: %w", i, lerr)
		}
		if !ok || lerr != nil {
			if !c.cfg.DegradedRestore {
				return fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, e.Fingerprint, ErrNotFound)
			}
			// Degraded mode: plan the missing chunk into a container-less
			// batch (adjacent missing chunks share one); the worker's
			// point-lookup fallback re-checks the store and zero-fills.
			ref = containerRef{shard: -1, id: -1}
			loc = container.Location{Index: -1}
		}
		locs[i] = loc
		if n := len(batches); n > 0 && batches[n-1].ref == ref {
			batches[n-1].n++
		} else {
			batches = append(batches, restoreBatch{ref: ref, start: i, n: 1})
		}
	}

	var cache *restoreCache
	if c.cfg.RestoreCacheContainers > 0 {
		cache = &restoreCache{c: lru.New[containerRef, []container.Entry](uint64(c.cfg.RestoreCacheContainers), nil)}
	}

	workers := c.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(batches) {
		workers = len(batches)
	}
	inflight := 2 * workers

	jobs := make(chan int)
	results := make(chan restoreResult, inflight)
	done := make(chan struct{})
	sem := make(chan struct{}, inflight)

	// Dispatcher: feeds batch indexes, throttled by the in-flight window
	// so reordering memory stays bounded. Cancellation stops the feed; the
	// workers then drain jobs and exit.
	go func() {
		defer close(jobs)
		for bi := range batches {
			select {
			case sem <- struct{}{}:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- bi:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	// Fetch+decrypt workers. Each checks for cancellation before starting
	// a batch, so a cancelled restore stops decrypting within one batch.
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for bi := range jobs {
				if ctx.Err() != nil {
					return
				}
				res := c.processRestoreBatch(entries, locs, offsets, batches[bi], cache)
				res.idx = bi
				select {
				case results <- res:
				case <-done:
					releaseRestoreBufs(res.bufs)
					return
				case <-ctx.Done():
					releaseRestoreBufs(res.bufs)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// In-order writer: reassemble batches in plan order; after the first
	// error keep draining so every worker exits and every pooled buffer
	// comes back. Cancellation is just another first error: the workers
	// stop on their own, results closes, and the drain below releases
	// whatever they had produced.
	pending := make(map[int]restoreResult, inflight)
	next := 0
	var firstErr error
	var lostAll []LostRange
	fail := func(err error) {
		firstErr = err
		close(done)
	}
	for res := range results {
		if firstErr == nil {
			if err := ctx.Err(); err != nil {
				fail(err)
			}
		}
		if firstErr != nil {
			releaseRestoreBufs(res.bufs)
			continue
		}
		if res.err != nil {
			fail(res.err)
			continue
		}
		pending[res.idx] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := writeRestoreBufs(w, r.bufs); err != nil {
				fail(err)
				break
			}
			// Lost ranges are appended in plan (stream) order, because
			// batches are written in plan order.
			lostAll = append(lostAll, r.lost...)
			<-sem
			next++
		}
	}
	for _, r := range pending {
		releaseRestoreBufs(r.bufs)
	}
	if firstErr == nil {
		// The pipeline may have shut down on cancellation before the
		// writer saw a single result; never report a truncated restore as
		// success.
		firstErr = ctx.Err()
	}
	if firstErr == nil && len(lostAll) > 0 {
		return &DegradedError{Ranges: lostAll}
	}
	return firstErr
}

// processRestoreBatch fetches the batch's container (through the cache,
// when one is configured) and decrypts its entries into pooled buffers.
// In degraded mode, unrecoverable chunks become zero-filled buffers with
// their ranges recorded instead of aborting the batch.
func (c *Client) processRestoreBatch(entries []mle.RecipeEntry, locs []container.Location, offsets []uint64, b restoreBatch, cache *restoreCache) restoreResult {
	var centries []container.Entry
	if b.ref.shard >= 0 {
		var ok bool
		if cache != nil {
			centries, ok = cache.get(b.ref)
		}
		if !ok {
			var err error
			centries, err = c.store.readContainer(b.ref)
			switch {
			case errors.Is(err, container.ErrNotFound):
				// The planned container vanished (a concurrent GC compacted
				// the shard); every chunk is still live, so fall through with
				// no container — each entry below takes the point-lookup
				// fallback.
				centries = nil
			case c.cfg.DegradedRestore && lostable(err):
				// A corrupt container in degraded mode: fall through with no
				// container, so each entry's point lookup decides its fate
				// individually (it fails the same way and zero-fills).
				centries = nil
			case err != nil:
				return restoreResult{err: fmt.Errorf("dedup: restore: container %d (shard %d): %w", b.ref.id, b.ref.shard, err)}
			default:
				if cache != nil {
					cache.put(b.ref, centries)
				}
			}
		}
	}
	bufs := make([][]byte, 0, b.n)
	var lost []LostRange
	abort := func(err error) restoreResult {
		releaseRestoreBufs(bufs)
		return restoreResult{err: err}
	}
	for i := b.start; i < b.start+b.n; i++ {
		e := entries[i]
		var ct []byte
		if idx := locs[i].Index; idx >= 0 && idx < len(centries) && centries[idx].FP == e.Fingerprint {
			ct = centries[idx].Data
		} else {
			// The planned location went stale (a GC pass moved survivors
			// mid-restore) or was never resolved; fall back to a point
			// lookup.
			var err error
			ct, err = c.store.Get(e.Fingerprint)
			if err != nil {
				if c.cfg.DegradedRestore && lostable(err) {
					buf := restoreBufGet(int(e.Size))
					zeroFill(buf)
					bufs = append(bufs, buf)
					lost = append(lost, LostRange{Offset: offsets[i], Length: uint64(e.Size), Fingerprint: e.Fingerprint})
					continue
				}
				return abort(fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, e.Fingerprint, err))
			}
		}
		if len(ct) != int(e.Size) {
			return abort(fmt.Errorf("dedup: restore: chunk %d size %d, recipe says %d", i, len(ct), e.Size))
		}
		buf := restoreBufGet(len(ct))
		mle.DecryptDeterministicInto(e.Key, ct, buf)
		bufs = append(bufs, buf)
	}
	return restoreResult{bufs: bufs, lost: lost}
}

// writeRestoreBufs writes a batch's buffers in order, releasing each to
// the pool as it is consumed; on a write error the unwritten remainder is
// released too.
func writeRestoreBufs(w io.Writer, bufs [][]byte) error {
	for i, buf := range bufs {
		if _, err := w.Write(buf); err != nil {
			releaseRestoreBufs(bufs[i:])
			return fmt.Errorf("dedup: restore: write: %w", err)
		}
		restoreBufPut(buf)
	}
	return nil
}

// releaseRestoreBufs hands a batch's remaining buffers back to the pool.
func releaseRestoreBufs(bufs [][]byte) {
	for _, buf := range bufs {
		if buf != nil {
			restoreBufPut(buf)
		}
	}
}

// restorePool recycles plaintext buffers across restore batches, so a
// long restore allocates a steady-state set of buffers instead of one per
// chunk. Buffers are pow2-capacity so pooled capacities cluster.
var restorePool sync.Pool

// restoreBufsOutstanding counts pool buffers currently handed out; the
// drain-on-error tests assert it returns to its baseline after a failed
// restore (no buffer is abandoned).
var restoreBufsOutstanding atomic.Int64

// RestoreBufsOutstanding reports how many pooled restore buffers are
// currently handed out. It is a test hook: harnesses (the crash-point
// explorer, the drain-on-error tests) assert it returns to its baseline
// after failed and degraded restores, proving no pooled buffer leaks.
func RestoreBufsOutstanding() int64 { return restoreBufsOutstanding.Load() }

// restoreBufGet returns a pooled buffer of length n.
func restoreBufGet(n int) []byte {
	restoreBufsOutstanding.Add(1)
	if v := restorePool.Get(); v != nil {
		buf := *(v.(*[]byte))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	capacity := 1
	if n > 1 {
		capacity = 1 << bits.Len(uint(n-1))
	}
	return make([]byte, n, capacity)
}

// restoreBufPut returns a buffer to the pool.
func restoreBufPut(buf []byte) {
	restoreBufsOutstanding.Add(-1)
	b := buf[:0]
	restorePool.Put(&b)
}
