// Package dedup implements a byte-level encrypted deduplication engine: the
// full client/server pipeline of Figure 2. A Client chunks an input stream,
// encrypts the chunks under a configurable MLE scheme (optionally with the
// paper's segment scrambling and MinHash encryption defenses), uploads the
// ciphertext chunks to a Store that deduplicates them into containers, and
// keeps a sealed recipe from which the original file is restored — in the
// original order, even when scrambling reordered the stored stream.
//
// # Concurrency model
//
// The engine is built for many clients hammering one store at once, the
// multi-client architecture of the paper's Figure 2:
//
//   - Store is lock-striped. The fingerprint index and the container
//     packer are split into N shards (NewStoreWithShards; NewStore picks
//     DefaultShards) keyed by fingerprint prefix (fphash.Fingerprint.Shard).
//     Put/Get lock only the owning shard; PutBatch groups a batch by shard
//     and locks each shard once. Each shard has its own open container, so
//     container packing is append-safe under concurrent writers without a
//     global packer lock.
//   - Client.Backup is a bounded streaming pipeline, and the only backup
//     pipeline in the module. A producer goroutine runs the
//     content-defined chunker (batch Rabin scanning over a fixed
//     lookahead buffer, plaintext SHA-256 deferred out of the serial path)
//     and feeds a bounded channel; the consumer gathers fixed windows and
//     fans each out to Config.Workers goroutines that derive keys, encrypt
//     (AES-256-CTR, the hot path), and fingerprint ciphertexts, then hands
//     the window to the client's Sink with one PutBatchOwned and releases
//     the plaintext buffers to the chunker pool. Resident plaintext is
//     bounded by the queue depth plus one window, regardless of stream
//     length.
//   - One pipeline, two sinks. NewClient's sink is the Store itself;
//     the network client (internal/server) builds a client with
//     NewSinkClient over a wire sink that splits each window at the
//     server's window size, negotiates it, and uploads the misses from
//     its receiver goroutine, bounded by the server's in-flight limit.
//   - Scrambling and MinHash encryption need whole-stream segmentation
//     (the segment divisor depends on the stream's mean chunk size), so
//     those configurations buffer the chunk list and fix the upload plan
//     up front on one goroutine, then run the same windowed fan-out over
//     the plan.
//   - Client.Restore assembles the stream forward, one window at a time.
//     A window is a run of recipe entries holding at most
//     Config.Workers × the container capacity of plaintext; the planner
//     groups its entries by container, so each container the window
//     touches is read and CRC-checked once, however the stream
//     interleaves the shards' containers. Config.Workers goroutines read
//     the containers — through an LRU container cache bounded by
//     Config.RestoreCacheContainers and shared across windows — and
//     decrypt each entry into its slot in the window's pooled buffers;
//     an in-order writer emits each finished window, returning each
//     buffer to the pool as it is written. At most two windows are in
//     flight. With one worker the same plan runs inline, without
//     goroutines. On any failure the pipeline drains: every in-flight
//     pooled buffer is handed back, mirroring Backup's drain-on-error
//     contract.
//   - Retention (RegisterBackup / DeleteBackup / GC, see gc.go) is
//     store-level under its own lock; GC additionally takes every shard
//     lock in index order, the package's global lock order.
//   - Cancellation. BackupContext, RestoreContext, and GCContext thread a
//     context through every pipeline: the backup consumer returns
//     promptly even while the producer is parked in a stalled Read, the
//     worker fan-outs stop between items, and the GC sweep stops between
//     shards (already-swept shards keep their atomic rewrites). A
//     cancelled pipeline drains exactly like a failed one — every pooled
//     buffer is handed back before the ctx.Err() return.
//
// # Persistence
//
// Sealed containers live behind a pluggable container.Backend. The
// default is in-memory (NewStore / NewStoreWithShards); Create / Open /
// NewStoreWithBackend run the same engine over per-shard append-only
// files (container.FileBackend) so the store survives process restarts.
// The durability boundary is the container seal: a sealed container is
// fsynced before the seal is acknowledged, Close seals the open
// containers on shutdown, and Open rebuilds the fingerprint index from
// the files' index headers without reading chunk data. GC compacts
// through the backend — each shard's rewrite is atomic (fresh file,
// rename over). Reads of damaged files fail with container.ErrCorrupt
// (records carry CRCs); they never return wrong bytes.
//
// Retention state, by contrast, is process-local: a reopened Store holds
// no registrations, and its documented "unregistered = unreferenced" GC
// rule reclaims everything. The snapshot Catalog (catalog.go) is the
// durable complement — an append-only, CRC-protected, torn-tail-recovering
// log of sealed snapshot recipes beside the container files, from which
// the freqdedup.Repository front door rebuilds the registrations on open.
//
// # Invariants
//
// The concurrency is strictly a wall-clock optimization; results are
// deterministic:
//
//   - A fingerprint is owned by exactly one shard, so dedup decisions are
//     exact regardless of shard count, and dedup statistics (Stats) are
//     identical for every shard count.
//   - Recipes returned by Backup are bit-for-bit independent of
//     Config.Workers: encryption is deterministic MLE and every result is
//     slotted by plan position, not completion order.
//   - With a single shard (NewStoreWithShards(n, 1)) and any worker count,
//     chunk placement — container IDs, entry order, sealing boundaries —
//     is bit-for-bit identical to the original serial engine.
//   - Restore output is byte-identical to a chunk-at-a-time restore for
//     every encryption/defense mode at every worker count and cache size, and
//     a file-backed store reopened with Open restores the same bytes.
//   - A Store is safe for concurrent use; a Client is not (its scrambling
//     RNG is stateful). Run one Client per goroutine.
package dedup
