package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"freqdedup"
	"freqdedup/internal/mle"
	"freqdedup/internal/segment"
)

// reconcileTolerance bounds reconcile.<phase>.unaccounted_cpu_frac: the
// share of a phase's process CPU that the layer costs below do not explain.
// The sum leaves out goroutine hand-offs, memory copies between stages,
// allocation and zeroing of buffers, and (remote) loopback socket calls, so
// it is expected to stay below the phase CPU; a share outside the tolerance
// means a layer is missing from the breakdown or measured wrongly.
const reconcileTolerance = 0.40

// replay is the standalone cost of each layer function, measured serially
// over the run's inputs, one layer at a time, outside any timed phase.
type replay struct {
	logical                     int64
	chunks                      int
	chunkNs, keyNs, encNs, ctNs int64
	decNs, lookupNs, putNs      int64
	segNs, minhashNs            int64
	crcNsPerB, allocNsPerB      float64
}

func (rp *replay) perB(ns int64) float64     { return float64(ns) / float64(rp.logical) }
func (rp *replay) perChunk(ns int64) float64 { return float64(ns) / float64(rp.chunks) }

// replayLayers runs each layer's public function over every image, in the
// order the backup pipeline applies them, into an in-memory store.
func replayLayers(w *workload, in *inputs) (*replay, error) {
	rp := &replay{}
	params := freqdedup.DefaultChunkingParams()
	params.DeferFingerprint = true // as the repository's pipelines chunk
	store := freqdedup.NewStore(0)
	mh := freqdedup.NewMinHashEncryption(freqdedup.NewLocalDeriver([]byte("perfbench system secret")))
	var dst []byte
	for _, s := range in.streams {
		for _, im := range s.images {
			rp.logical += int64(len(im.data))

			t := time.Now()
			cdc, err := freqdedup.NewContentDefinedChunker(bytes.NewReader(im.data), params)
			if err != nil {
				return nil, err
			}
			var sizes []int
			for {
				ch, err := cdc.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return nil, err
				}
				sizes = append(sizes, ch.Size())
				ch.Release()
			}
			rp.chunkNs += int64(time.Since(t))
			rp.chunks += len(sizes)
			chunks := make([][]byte, len(sizes))
			off := 0
			for i, n := range sizes {
				chunks[i] = im.data[off : off+n]
				off += n
			}

			keys := make([]freqdedup.Key, len(chunks))
			if w.defended {
				// Plaintext fingerprints, segmentation, one MinHash key
				// per segment.
				refs := make([]freqdedup.ChunkRef, len(chunks))
				t = time.Now()
				for i, c := range chunks {
					refs[i] = freqdedup.ChunkRef{FP: freqdedup.FingerprintOf(c), Size: uint32(len(c))}
				}
				rp.keyNs += int64(time.Since(t))
				t = time.Now()
				segs, err := segment.Split(refs, segment.DefaultParams())
				if err != nil {
					return nil, err
				}
				rp.segNs += int64(time.Since(t))
				t = time.Now()
				fps := make([]freqdedup.Fingerprint, 0, len(refs))
				for _, sg := range segs {
					fps = fps[:0]
					for _, r := range refs[sg.Start:sg.End] {
						fps = append(fps, r.FP)
					}
					k, err := mh.SegmentKey(fps)
					if err != nil {
						return nil, err
					}
					for i := sg.Start; i < sg.End; i++ {
						keys[i] = k
					}
				}
				rp.minhashNs += int64(time.Since(t))
			} else {
				t = time.Now()
				for i, c := range chunks {
					keys[i] = freqdedup.ConvergentKey(c)
				}
				rp.keyNs += int64(time.Since(t))
			}

			cts := make([][]byte, len(chunks))
			t = time.Now()
			for i, c := range chunks {
				cts[i] = freqdedup.EncryptDeterministic(keys[i], c)
			}
			rp.encNs += int64(time.Since(t))

			batch := make([]freqdedup.StoreChunk, len(cts))
			fps := make([]freqdedup.Fingerprint, len(cts))
			t = time.Now()
			for i, ct := range cts {
				fps[i] = freqdedup.FingerprintOf(ct)
			}
			rp.ctNs += int64(time.Since(t))
			for i, ct := range cts {
				batch[i] = freqdedup.StoreChunk{FP: fps[i], Data: ct}
			}

			// Lookups before puts, as a negotiation round asks before it
			// uploads.
			t = time.Now()
			store.ContainsBatch(fps, nil)
			rp.lookupNs += int64(time.Since(t))
			t = time.Now()
			if _, err := store.PutBatchOwned(batch); err != nil {
				return nil, err
			}
			rp.putNs += int64(time.Since(t))

			t = time.Now()
			for i, ct := range cts {
				if cap(dst) < len(ct) {
					dst = make([]byte, len(ct))
				}
				mle.DecryptDeterministicInto(keys[i], ct, dst[:len(ct)])
			}
			rp.decNs += int64(time.Since(t))
		}
	}

	buf := make([]byte, 4<<20)
	t := time.Now()
	var n int64
	for time.Since(t) < 50*time.Millisecond {
		crc32.ChecksumIEEE(buf)
		n += int64(len(buf))
	}
	rp.crcNsPerB = float64(time.Since(t)) / float64(n)
	return rp, nil
}

// ioSnap is a copy of the traced file system's counters.
type ioSnap [numClasses]struct{ writeB, writeNs, syncs, syncNs, reads, readB, readNs int64 }

func (fs *tracedFS) snapshot() ioSnap {
	var s ioSnap
	for i := range fs.cls {
		c := &fs.cls[i]
		s[i].writeB, s[i].writeNs, s[i].syncs = c.writeB.Load(), c.writeNs.Load(), c.syncs.Load()
		s[i].syncNs, s[i].reads, s[i].readB, s[i].readNs = c.syncNs.Load(), c.reads.Load(), c.readB.Load(), c.readNs.Load()
	}
	return s
}

func (s ioSnap) minus(o ioSnap) ioSnap {
	for i := range s {
		s[i].writeB -= o[i].writeB
		s[i].writeNs -= o[i].writeNs
		s[i].syncs -= o[i].syncs
		s[i].syncNs -= o[i].syncNs
		s[i].reads -= o[i].reads
		s[i].readB -= o[i].readB
		s[i].readNs -= o[i].readNs
	}
	return s
}

// accounted returns the CPU seconds that the layers explain in each phase
// of a traced round: the replayed layer costs scaled to the round's bytes
// and chunks, the file-system and socket calls as the wrappers timed them
// (syncs and socket reads excepted: they wait on the device or the peer),
// CRCs over the bytes framed, and the phase's heap allocation at the
// replayed cost per byte.
func accounted(w *workload, rp *replay, r *round) (backup, restore float64) {
	logical := float64(r.logical)
	b := logical * rp.perB(rp.chunkNs+rp.keyNs+rp.encNs+rp.ctNs+rp.segNs+rp.minhashNs)
	b += float64(r.io[0].writeNs()) + rp.crcNsPerB*float64(r.io[0][classContainer].writeB)
	b += rp.allocNsPerB * float64(r.backup.alloc)
	rs := logical*rp.perB(rp.decNs) + float64(r.io[1].readNs()) + rp.crcNsPerB*float64(r.io[1][classContainer].readB)
	rs += rp.allocNsPerB * float64(r.restore.alloc)
	if w.remote {
		ws := r.wire[0]
		uploaded := float64(ws.chunkDataB.Load())
		b += float64(r.chunks) * rp.perChunk(rp.lookupNs)              // negotiation lookups
		b += uploaded * rp.perB(rp.putNs+rp.ctNs)                      // puts and the server's fingerprint check of the misses
		b += 2 * rp.crcNsPerB * float64(ws.upB.Load()+ws.downB.Load()) // frame CRCs, both ends
		b += float64(ws.writeBlockedNs.Load())
		ws = r.wire[1]
		rs += 2*rp.crcNsPerB*float64(ws.upB.Load()+ws.downB.Load()) + float64(ws.writeBlockedNs.Load())
	} else {
		b += logical * rp.perB(rp.putNs)
	}
	return b / 1e9, rs / 1e9
}

func (s ioSnap) writeNs() (ns int64) {
	for _, c := range s {
		ns += c.writeNs
	}
	return ns
}

func (s ioSnap) readNs() (ns int64) {
	for _, c := range s {
		ns += c.readNs
	}
	return ns
}

// allocNsPerB measures the heap allocation cost per byte in this process,
// with its live heap, for blocks of the given size: the zeroing, the page
// faults of fresh spans and the GC work that allocation causes.
func allocNsPerB(size int) float64 {
	if size < 1 {
		size = 1
	}
	t := time.Now()
	var n int64
	for n < 512<<20 {
		allocSink = make([]byte, size)
		n += int64(size)
	}
	allocSink = nil
	return float64(time.Since(t)) / float64(n)
}

var allocSink []byte

// layerMetrics computes the per-layer metrics of a traced run: layer costs
// replayed over the inputs in, medians over the traced rounds of the
// counters the wrappers saw, the tracing overhead against the untraced
// rounds, and the reconciliation of each phase's CPU.
func (e *env) layerMetrics(rounds []*round, in *inputs, out io.Writer) (map[string]metric, error) {
	rp, err := replayLayers(e.w, in)
	if err != nil {
		return nil, err
	}
	var reads, readB int64
	for _, r := range rounds {
		reads += r.io[1][classContainer].reads
		readB += r.io[1][classContainer].readB
	}
	if reads > 0 {
		rp.allocNsPerB = allocNsPerB(int(readB / reads))
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("chunker.ns_per_B", rp.perB(rp.chunkNs), "ns/B")
	set("chunker.chunks", float64(rp.chunks), "count")
	set("chunker.mean_chunk_B", float64(rp.logical)/float64(rp.chunks), "B")
	set("mle.key_ns_per_B", rp.perB(rp.keyNs), "ns/B")
	set("mle.encrypt_ns_per_B", rp.perB(rp.encNs), "ns/B")
	set("fphash.ct_ns_per_B", rp.perB(rp.ctNs), "ns/B")
	set("mle.decrypt_ns_per_B", rp.perB(rp.decNs), "ns/B")
	set("segment.ns_per_chunk", rp.perChunk(rp.segNs), "ns/chunk")
	set("mle.minhash_segkey_ns_per_chunk", rp.perChunk(rp.minhashNs), "ns/chunk")
	set("dedup.lookup_ns_per_chunk", rp.perChunk(rp.lookupNs), "ns/chunk")
	set("dedup.put_ns_per_B", rp.perB(rp.putNs), "ns/B")
	set("container.crc_ns_per_B", rp.crcNsPerB, "ns/B")
	set("go.alloc_ns_per_B", rp.allocNsPerB, "ns/B")

	var traced, untraced []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	med := func(f func(r *round) float64) float64 {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r)
		}
		return median(xs)
	}
	perB := func(r *round, v int64) float64 { return float64(v) / float64(r.logical) }

	set("dedup.dup_frac", med(func(r *round) float64 {
		return 1 - float64(r.stats.UniqueChunks)/float64(r.chunks)
	}), "ratio")
	set("repo.open_ms", med(func(r *round) float64 { return 1000 * r.openS }), "ms")
	for c := classContainer; c <= classTracelog; c++ {
		c := c
		p := "vfs." + classNames[c] + "."
		set(p+"write_B_per_B", med(func(r *round) float64 { return perB(r, r.io[0][c].writeB+r.io[1][c].writeB) }), "B/B")
		set(p+"syncs", med(func(r *round) float64 { return float64(r.io[0][c].syncs + r.io[1][c].syncs) }), "count")
		set(p+"sync_ms", med(func(r *round) float64 { return float64(r.io[0][c].syncNs+r.io[1][c].syncNs) / 1e6 }), "ms")
		set(p+"read_B_per_B", med(func(r *round) float64 { return perB(r, r.io[0][c].readB+r.io[1][c].readB) }), "B/B")
		set(p+"read_ms", med(func(r *round) float64 { return float64(r.io[0][c].readNs+r.io[1][c].readNs) / 1e6 }), "ms")
	}

	wireSum := func(r *round, f func(ws *wireStats) int64) int64 {
		var v int64
		for _, ws := range r.wire {
			if ws != nil {
				v += f(ws)
			}
		}
		return v
	}
	wireMetric := func(name, unit string, f func(r *round) float64) {
		if !e.w.remote {
			set(name, 0, unit) // bypassed: no wire on local workloads
			return
		}
		set(name, med(f), unit)
	}
	wireMetric("wire.up_B_per_B", "B/B", func(r *round) float64 {
		return perB(r, wireSum(r, func(ws *wireStats) int64 { return ws.upB.Load() }))
	})
	wireMetric("wire.chunkdata_B_per_B", "B/B", func(r *round) float64 {
		return perB(r, wireSum(r, func(ws *wireStats) int64 { return ws.chunkDataB.Load() }))
	})
	wireMetric("wire.down_B_per_B", "B/B", func(r *round) float64 {
		return perB(r, wireSum(r, func(ws *wireStats) int64 { return ws.downB.Load() }))
	})
	wireMetric("wire.negotiate_frames", "count", func(r *round) float64 {
		return float64(wireSum(r, func(ws *wireStats) int64 { return ws.negFrames.Load() }))
	})
	wireMetric("wire.miss_frac", "ratio", func(r *round) float64 {
		refs := wireSum(r, func(ws *wireStats) int64 { return ws.negRefs.Load() })
		if refs == 0 {
			return 0
		}
		return float64(wireSum(r, func(ws *wireStats) int64 { return ws.negMisses.Load() })) / float64(refs)
	})
	wireMetric("wire.neg_turnaround_us.p50", "us", func(r *round) float64 {
		return float64(percentile(r.wire[0].turnaround, 0.50)) / 1e3
	})
	wireMetric("wire.neg_turnaround_us.p99", "us", func(r *round) float64 {
		return float64(percentile(r.wire[0].turnaround, 0.99)) / 1e3
	})
	wireMetric("wire.read_blocked_ms", "ms", func(r *round) float64 {
		return float64(wireSum(r, func(ws *wireStats) int64 { return ws.readBlockedNs.Load() })) / 1e6
	})
	wireMetric("wire.write_blocked_ms", "ms", func(r *round) float64 {
		return float64(wireSum(r, func(ws *wireStats) int64 { return ws.writeBlockedNs.Load() })) / 1e6
	})

	for _, ph := range []struct {
		name string
		get  func(r *round) phase
	}{{"backup", func(r *round) phase { return r.backup }}, {"restore", func(r *round) phase { return r.restore }}} {
		ph := ph
		set("go."+ph.name+".gc_cycles", med(func(r *round) float64 { return float64(ph.get(r).gcCycles) }), "count")
		set("go."+ph.name+".gc_pause_ms", med(func(r *round) float64 { return float64(ph.get(r).gcPauseNs) / 1e6 }), "ms")
		set("go."+ph.name+".gc_cpu_s", med(func(r *round) float64 { return ph.get(r).gcCPU }), "s")
		set("phase."+ph.name+".cpu_s", med(func(r *round) float64 { return ph.get(r).cpu }), "s")
		set("phase."+ph.name+".wall_s", med(func(r *round) float64 { return ph.get(r).wall }), "s")
		set("host."+ph.name+".steal_frac", med(func(r *round) float64 { return ph.get(r).host.stealFrac() }), "ratio")
	}

	// Reconciliation: 1 - (sum of layer costs) / phase CPU, per phase.
	var uB, uR []float64
	for _, r := range traced {
		b, rs := accounted(e.w, rp, r)
		uB = append(uB, 1-b/r.backup.cpu)
		uR = append(uR, 1-rs/r.restore.cpu)
	}
	set("reconcile.backup.unaccounted_cpu_frac", median(uB), "ratio")
	set("reconcile.restore.unaccounted_cpu_frac", median(uR), "ratio")

	backupMBps := func(rs []*round) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = float64(r.logical) / 1e6 / r.backup.net()
		}
		return median(xs)
	}
	tMBps, uMBps := backupMBps(traced), backupMBps(untraced)
	set("trace.traced_backup_MBps", tMBps, "MB/s")
	set("trace.untraced_backup_MBps", uMBps, "MB/s")
	set("trace.overhead_frac", 1-tMBps/uMBps, "ratio")

	fmt.Fprintf(out, "reconcile: unaccounted CPU share backup=%.3f restore=%.3f, tolerance +-%.2f\n",
		median(uB), median(uR), reconcileTolerance)
	for _, x := range []struct {
		phase string
		v     float64
	}{{"backup", median(uB)}, {"restore", median(uR)}} {
		if math.Abs(x.v) > reconcileTolerance {
			fmt.Fprintf(out, "WARN reconcile: the %s phase leaves %.3f of its CPU unaccounted, outside the tolerance %.2f\n",
				x.phase, x.v, reconcileTolerance)
		}
	}
	return m, nil
}
