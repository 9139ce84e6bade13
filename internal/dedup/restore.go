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
// Restore assembles the stream forward, one window at a time. A window is
// a run of recipe entries holding at most Config.Workers × the store's
// container capacity of plaintext, and its entries are grouped by the
// container that stores them: each container a window touches is read
// (and CRC-checked) once, however the stream interleaves its chunks with
// other containers' chunks. Config.Workers goroutines read the containers
// — through an LRU cache of Config.RestoreCacheContainers containers,
// shared across windows — and decrypt every entry into its slot in the
// window, and an in-order writer emits each window once all of its
// containers are in. At most two windows are in flight, so the decrypted
// plaintext a restore holds is bounded by about 2×Workers containers.
// With Workers == 1 the same plan runs inline, without goroutines. The
// restored bytes are identical at every worker count and cache size.
func (c *Client) Restore(recipe *mle.Recipe, w io.Writer) error {
	return c.RestoreContext(context.Background(), recipe, w)
}

// RestoreContext is Restore with cancellation: when ctx is cancelled the
// pipeline stops promptly between container batches — the workers skip
// the batches still queued, the in-order writer stops writing, and every
// pooled plaintext buffer still in flight is handed back to the pool
// before RestoreContext returns ctx.Err(). Bytes written to w before the
// cancellation stay written; the output is a strict prefix of the stream.
func (c *Client) RestoreContext(ctx context.Context, recipe *mle.Recipe, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.store == nil {
		return errors.New("dedup: client has no store to restore from")
	}
	workers := c.cfg.Workers // at least 1: NewClient resolves 0
	r := &restorer{
		c:           c,
		entries:     recipe.Entries,
		windowBytes: uint64(workers) * uint64(c.store.containerBytes),
		w:           w,
	}
	if c.cfg.RestoreCacheContainers > 0 {
		r.cache = &restoreCache{c: lru.New[containerRef, []container.Entry](uint64(c.cfg.RestoreCacheContainers), nil)}
	}
	var err error
	if workers == 1 {
		err = r.runInline(ctx)
	} else {
		err = r.runParallel(ctx, workers)
	}
	if err == nil && len(r.lost) > 0 {
		return &DegradedError{Ranges: r.lost}
	}
	return err
}

// restorer is the state of one Restore call: the recipe, the container
// cache shared by its windows, and the in-order writer's position.
type restorer struct {
	c           *Client
	entries     []mle.RecipeEntry
	windowBytes uint64
	cache       *restoreCache // nil when the cache is off

	w      io.Writer
	offset uint64      // stream offset of the next byte to write
	lost   []LostRange // degraded holes written so far, in stream order
}

// restoreWindow is one forward-assembly window: recipe entries
// [start, start+len(slots)), planned into one batch per container.
type restoreWindow struct {
	start   int
	slots   []restoreSlot
	batches []restoreBatch

	// In the parallel engine the batches finish on different workers: mu
	// guards pending and err, and the last batch to finish closes done.
	mu      sync.Mutex
	pending int
	err     error
	done    chan struct{}
}

// restoreSlot is one entry of a window: its planned location (Index -1
// when unresolved), then its plaintext in a pooled buffer (nil until its
// batch fills it); lost marks a degraded zero-filled hole.
type restoreSlot struct {
	loc  container.Location
	buf  []byte
	lost bool
}

// restoreBatch is one container's share of a window: the window-relative
// positions of the entries that container stores, in stream order. A
// batch with ref.shard == -1 holds the entries the planner could not
// locate (degraded mode only).
type restoreBatch struct {
	ref     containerRef
	entries []int
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

// runInline is the single-worker engine: each window is planned, filled
// batch by batch, and written on the caller's goroutine.
func (r *restorer) runInline(ctx context.Context) error {
	for start := 0; start < len(r.entries); {
		win, err := r.plan(start)
		if err != nil {
			return err
		}
		for _, b := range win.batches {
			if err = ctx.Err(); err != nil {
				break
			}
			if err = r.fill(win, b); err != nil {
				break
			}
		}
		if err == nil {
			err = r.emit(win)
		}
		if err != nil {
			win.release()
			return err
		}
		start += len(win.slots)
	}
	return nil
}

// runParallel is the multi-worker engine. A planner goroutine cuts the
// windows and hands each window's batches to the fill workers; the
// caller's goroutine writes the windows in order. On any error — a
// missing chunk, a corrupt container, a failing writer, a cancelled ctx —
// the pipeline drains: the planner stops, the workers skip the batches
// still queued, and every planned window is released back to the pool
// before the error returns (the drain contract mirrors the backup
// pipeline's).
func (r *restorer) runParallel(ctx context.Context, workers int) error {
	stopCtx, stop := context.WithCancel(ctx)
	defer stop()

	type job struct {
		win *restoreWindow
		b   restoreBatch
	}
	jobs := make(chan job)
	// One window queues behind the one being written, and the planner
	// dispatches a window's batches only once it is queued: at most two
	// windows hold plaintext.
	windows := make(chan *restoreWindow, 1)

	go func() {
		defer close(windows)
		defer close(jobs)
		for start := 0; start < len(r.entries); {
			win, err := r.plan(start)
			if err != nil {
				win = &restoreWindow{err: err}
			}
			win.pending = len(win.batches)
			win.done = make(chan struct{})
			if win.pending == 0 {
				close(win.done)
			}
			select {
			case windows <- win:
			case <-stopCtx.Done():
				return
			}
			if err != nil {
				return
			}
			for k, b := range win.batches {
				select {
				case jobs <- job{win, b}:
				case <-stopCtx.Done():
					for range win.batches[k:] {
						win.finish(nil)
					}
					return
				}
			}
			start += len(win.slots)
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				var err error
				if stopCtx.Err() == nil {
					err = r.fill(j.win, j.b)
				}
				j.win.finish(err)
			}
		}()
	}

	// In-order writer. After the first error it keeps receiving, so that
	// every planned window is released once its batches are done.
	var firstErr error
	for win := range windows {
		<-win.done
		if firstErr == nil {
			if firstErr = ctx.Err(); firstErr == nil {
				firstErr = win.err
			}
			if firstErr == nil {
				firstErr = r.emit(win)
			}
			if firstErr != nil {
				stop()
			}
		}
		win.release()
	}
	wg.Wait()
	if firstErr == nil {
		// The planner stops without a word when ctx is cancelled between
		// windows; never report a truncated restore as success.
		firstErr = ctx.Err()
	}
	return firstErr
}

// finish records the outcome of one of the window's batches.
func (win *restoreWindow) finish(err error) {
	win.mu.Lock()
	if win.err == nil {
		win.err = err
	}
	win.pending--
	last := win.pending == 0
	win.mu.Unlock()
	if last {
		close(win.done)
	}
}

// plan cuts the window that starts at entry start — entries up to
// windowBytes of plaintext, at least one — and groups its entries by
// container. Locations are kept so fill can pick entries out of a read
// container without searching; they are verified against the fingerprint
// at use (a concurrent GC may move chunks). In strict mode an entry the
// index cannot resolve fails the plan; in degraded mode it joins the
// window's container-less batch, whose point lookups decide its fate.
func (r *restorer) plan(start int) (*restoreWindow, error) {
	end, n := start, uint64(0)
	for end < len(r.entries) && (end == start || n+uint64(r.entries[end].Size) <= r.windowBytes) {
		n += uint64(r.entries[end].Size)
		end++
	}
	win := &restoreWindow{start: start, slots: make([]restoreSlot, end-start)}
	batchOf := make(map[containerRef]int)
	for j := range win.slots {
		i := start + j
		ref, loc, ok, err := r.c.store.locate(r.entries[i].Fingerprint)
		if err != nil && !r.c.cfg.DegradedRestore {
			return nil, fmt.Errorf("dedup: restore: chunk %d: %w", i, err)
		}
		if !ok || err != nil {
			if !r.c.cfg.DegradedRestore {
				return nil, fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, r.entries[i].Fingerprint, ErrNotFound)
			}
			ref = containerRef{shard: -1, id: -1}
			loc = container.Location{Index: -1}
		}
		win.slots[j].loc = loc
		b, seen := batchOf[ref]
		if !seen {
			b = len(win.batches)
			batchOf[ref] = b
			win.batches = append(win.batches, restoreBatch{ref: ref})
		}
		win.batches[b].entries = append(win.batches[b].entries, j)
	}
	return win, nil
}

// fill reads batch b's container and decrypts its entries into their
// window slots. An entry whose planned location went stale (a GC pass
// moved survivors mid-restore) or was never resolved falls back to a
// point lookup; in degraded mode an unrecoverable chunk becomes a
// zero-filled slot marked lost. On error the slots filled so far stay in
// the window, for its release.
func (r *restorer) fill(win *restoreWindow, b restoreBatch) error {
	centries, err := r.readContainer(b.ref)
	if err != nil {
		return err
	}
	for _, j := range b.entries {
		i := win.start + j
		e := r.entries[i]
		var ct []byte
		if idx := win.slots[j].loc.Index; idx >= 0 && idx < len(centries) && centries[idx].FP == e.Fingerprint {
			ct = centries[idx].Data
		} else if ct, err = r.c.store.Get(e.Fingerprint); err != nil {
			if r.c.cfg.DegradedRestore && lostable(err) {
				buf := restoreBufGet(int(e.Size))
				zeroFill(buf)
				win.slots[j].buf, win.slots[j].lost = buf, true
				continue
			}
			return fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, e.Fingerprint, err)
		}
		if len(ct) != int(e.Size) {
			return fmt.Errorf("dedup: restore: chunk %d size %d, recipe says %d", i, len(ct), e.Size)
		}
		buf := restoreBufGet(len(ct))
		mle.DecryptDeterministicInto(e.Key, ct, buf)
		win.slots[j].buf = buf
	}
	return nil
}

// readContainer returns the entries of a batch's container, through the
// cache when one is configured. It returns no entries — so every entry
// takes the point-lookup fallback — for the container-less batch, for a
// container a concurrent GC compacted away (its chunks are still live,
// elsewhere), and in degraded mode for a corrupt container (each entry's
// point lookup then fails the same way and zero-fills).
func (r *restorer) readContainer(ref containerRef) ([]container.Entry, error) {
	if ref.shard < 0 {
		return nil, nil
	}
	if r.cache != nil {
		if centries, ok := r.cache.get(ref); ok {
			return centries, nil
		}
	}
	centries, err := r.c.store.readContainer(ref)
	switch {
	case errors.Is(err, container.ErrNotFound), r.c.cfg.DegradedRestore && lostable(err):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("dedup: restore: container %d (shard %d): %w", ref.id, ref.shard, err)
	}
	if r.cache != nil {
		r.cache.put(ref, centries)
	}
	return centries, nil
}

// emit writes a finished window's slots in stream order, returning each
// buffer to the pool once written and recording the degraded holes.
func (r *restorer) emit(win *restoreWindow) error {
	for j := range win.slots {
		s := &win.slots[j]
		if _, err := r.w.Write(s.buf); err != nil {
			return fmt.Errorf("dedup: restore: write: %w", err)
		}
		if s.lost {
			r.lost = append(r.lost, LostRange{Offset: r.offset, Length: uint64(len(s.buf)), Fingerprint: r.entries[win.start+j].Fingerprint})
		}
		r.offset += uint64(len(s.buf))
		restoreBufPut(s.buf)
		s.buf = nil
	}
	return nil
}

// release hands the window's remaining pooled buffers back to the pool.
func (win *restoreWindow) release() {
	for j := range win.slots {
		if buf := win.slots[j].buf; buf != nil {
			restoreBufPut(buf)
			win.slots[j].buf = nil
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
