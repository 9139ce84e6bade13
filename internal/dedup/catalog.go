package dedup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"freqdedup/internal/recordlog"
	"freqdedup/internal/vfs"
)

// The snapshot catalog: the durable record of which snapshots a repository
// holds, kept beside the container shard files. Without it, retention
// state lives only in process memory and a reopened store treats every
// chunk as unreferenced — the "GC after reopen reclaims everything"
// failure the Repository front door exists to fix.
//
// The catalog is a record log (internal/recordlog, which owns the file
// header, framing, torn-tail replay, salvage re-sync and group commit)
// with one record per mutation, fsynced before the mutation is
// acknowledged:
//
//	add    (kind 1): w2 = nameLen, w3 = payloadLen, body = name | payload
//	                 payload = created-at i64 | logical bytes u64 |
//	                           chunk count u32 | reserved u32 | sealed recipe
//	delete (kind 2): w2 = nameLen, w3 = 0, body = name (a tombstone)
//
// Replaying the log rebuilds the live snapshots. When tombstones
// accumulate, the catalog is compacted: the live add records, in name
// order, are rewritten into a fresh file that replaces the old one.

// CatalogName is the catalog's file name within a repository directory.
const CatalogName = "catalog.fdr"

// ErrCatalogCorrupt is returned when the catalog file fails structural
// validation or a non-tail record fails its checksum.
var ErrCatalogCorrupt = errors.New("dedup: snapshot catalog corrupt")

// ErrSnapshotExists is returned when adding a snapshot name that is
// already live in the catalog.
var ErrSnapshotExists = errors.New("dedup: snapshot already exists")

// ErrSnapshotNotFound is returned for operations on a snapshot name the
// catalog does not hold.
var ErrSnapshotNotFound = errors.New("dedup: snapshot not found")

// Catalog on-disk layout constants.
const (
	catKindAdd    = 1
	catKindDelete = 2

	// catMetaLen is the fixed metadata prefix of an add record's payload:
	// created-at (unix seconds, i64), logical bytes (u64), chunk count
	// (u32), reserved (u32); the sealed recipe follows.
	catMetaLen = 24

	// catMaxName and catMaxPayload bound record fields during replay:
	// lengths beyond them cannot come from a well-formed writer and are
	// treated as structural corruption rather than attempted allocations.
	catMaxName    = 4 << 10
	catMaxPayload = 1 << 30
)

// catFormat is the catalog's record-log format.
var catFormat = recordlog.Format{
	Name:     "dedup: catalog",
	Magic:    0x46445243, // "FDRC": freqdedup recipe catalog
	Version:  1,
	RecMagic: 0x46445231, // "FDR1": one catalog record
	BodyLen: func(nameLen, payloadLen uint32) (int64, bool) {
		ok := nameLen > 0 && nameLen <= catMaxName && payloadLen <= catMaxPayload
		return int64(nameLen) + int64(payloadLen), ok
	},
	Corrupt: ErrCatalogCorrupt,
}

// SnapshotRecord is one live snapshot in the catalog: the sealed recipe
// that restores it plus the summary metadata a listing needs without
// unsealing anything.
type SnapshotRecord struct {
	// Name is the caller-chosen snapshot name, unique among live
	// snapshots.
	Name string
	// CreatedUnix is the snapshot's creation time in Unix seconds.
	CreatedUnix int64
	// LogicalBytes is the snapshot's pre-dedup size.
	LogicalBytes uint64
	// Chunks is the snapshot's logical chunk count.
	Chunks uint32
	// SealedRecipe is the recipe sealed under the repository key
	// (mle.Recipe.Seal); the catalog never sees plaintext keys.
	SealedRecipe []byte
}

// Catalog is a durable snapshot catalog. The zero value is not usable;
// construct with CreateCatalog, OpenCatalog, or NewMemCatalog. A Catalog
// is safe for concurrent use.
//
// Mutations append their record under mu, apply it to live tentatively,
// and run the group commit with mu released, so concurrent mutations
// share fsyncs; a failed commit rolls the mutation back.
type Catalog struct {
	mu         sync.Mutex
	log        *recordlog.Log // nil for a memory-only catalog
	closed     bool
	live       map[string]SnapshotRecord
	tombstones int // delete records in the file not yet compacted away
	salvage    CatalogSalvageStats
}

// SetGroupCommitWindow sets the straggler window for catalog group
// commit: a leader delays its fsync this long so concurrent mutations can
// join the round. Zero (the default) syncs immediately.
func (c *Catalog) SetGroupCommitWindow(d time.Duration) {
	if c.log != nil {
		c.log.SetGroupCommitWindow(d)
	}
}

// CommitSyncs returns how many catalog fsync rounds have run — with
// concurrent mutations this is less than the mutation count, the batching
// ratio group commit exists to win.
func (c *Catalog) CommitSyncs() int64 {
	if c.log == nil {
		return 0
	}
	return c.log.CommitSyncs()
}

// NewMemCatalog returns a catalog kept only in memory — the
// backendless-repository counterpart of MemBackend. Nothing survives the
// process.
func NewMemCatalog() *Catalog {
	return &Catalog{live: make(map[string]SnapshotRecord)}
}

// CreateCatalog initializes a new, empty catalog file. It fails if the
// file already exists.
func CreateCatalog(path string) (*Catalog, error) {
	return CreateCatalogFS(vfs.OS, path)
}

// CreateCatalogFS is CreateCatalog against an explicit filesystem.
func CreateCatalogFS(fsys vfs.FS, path string) (*Catalog, error) {
	log, err := recordlog.Create(fsys, path, &catFormat)
	if err != nil {
		return nil, err
	}
	return &Catalog{log: log, live: make(map[string]SnapshotRecord)}, nil
}

// OpenCatalog opens an existing catalog file and replays its records. A
// record torn by a mid-append crash — an incomplete tail, or a final
// record whose checksum fails — is discarded by truncating the file back
// to the last acknowledged record. Structural damage anywhere else
// returns ErrCatalogCorrupt.
func OpenCatalog(path string) (*Catalog, error) {
	return OpenCatalogFS(vfs.OS, path)
}

// OpenCatalogFS is OpenCatalog against an explicit filesystem.
func OpenCatalogFS(fsys vfs.FS, path string) (*Catalog, error) {
	c := &Catalog{live: make(map[string]SnapshotRecord)}
	log, _, err := recordlog.Open(fsys, path, &catFormat, recordlog.Owner, c.replayFunc(path, false))
	if err != nil {
		return nil, err
	}
	c.log = log
	return c, nil
}

// CatalogSalvageStats reports what a salvage open of the catalog dropped.
type CatalogSalvageStats struct {
	// RecordsDropped counts mid-file records skipped because their
	// checksum failed or their structure could not be parsed.
	RecordsDropped int
	// BytesSkipped is the total size of the skipped regions.
	BytesSkipped int64
}

// Damaged reports whether the salvage pass had to drop anything.
func (s CatalogSalvageStats) Damaged() bool {
	return s.RecordsDropped > 0 || s.BytesSkipped > 0
}

// OpenCatalogSalvage opens a catalog whose file may be damaged mid-file —
// the fsck path for catalogs OpenCatalog rejects with ErrCatalogCorrupt.
// Unparseable or checksum-failing records are skipped (the replay
// re-synchronizes on the next record whose header parses and whose CRC
// verifies); a tombstone for a snapshot whose add record was lost is
// ignored rather than fatal. If anything was dropped the catalog is
// immediately compacted, so the on-disk file is clean again and appends
// are safe.
func OpenCatalogSalvage(fsys vfs.FS, path string) (*Catalog, CatalogSalvageStats, error) {
	c := &Catalog{live: make(map[string]SnapshotRecord)}
	log, st, err := recordlog.Open(fsys, path, &catFormat, recordlog.Salvage, c.replayFunc(path, true))
	c.salvage.RecordsDropped += st.RecordsDropped
	c.salvage.BytesSkipped += st.BytesSkipped
	if err != nil {
		return nil, c.salvage, err
	}
	c.log = log
	if c.salvage.Damaged() {
		if err := c.compactLocked(); err != nil {
			log.Close()
			return nil, c.salvage, fmt.Errorf("dedup: rewrite salvaged catalog: %w", err)
		}
	}
	return c, c.salvage, nil
}

// replayFunc returns the record visitor that rebuilds the live-snapshot
// map. In salvage mode, records whose content does not fit the live state
// are skipped and counted instead of failing the open.
func (c *Catalog) replayFunc(path string, salvage bool) func(recordlog.Record) error {
	return func(r recordlog.Record) error {
		name := string(r.Body[:r.W2])
		payload := r.Body[r.W2:]
		switch r.Kind {
		case catKindAdd:
			if len(payload) < catMetaLen {
				if salvage {
					c.salvage.RecordsDropped++
					return nil
				}
				return fmt.Errorf("%w: %s: add record for %q has a short payload", ErrCatalogCorrupt, path, name)
			}
			if _, ok := c.live[name]; ok {
				if !salvage {
					return fmt.Errorf("%w: %s: duplicate add for live snapshot %q", ErrCatalogCorrupt, path, name)
				}
				// A duplicate add means the tombstone between the two was
				// lost to damage: the later record is the acknowledged
				// state, so replace.
				c.salvage.RecordsDropped++
			}
			c.live[name] = SnapshotRecord{
				Name:         name,
				CreatedUnix:  int64(binary.LittleEndian.Uint64(payload[0:])),
				LogicalBytes: binary.LittleEndian.Uint64(payload[8:]),
				Chunks:       binary.LittleEndian.Uint32(payload[16:]),
				SealedRecipe: append([]byte(nil), payload[catMetaLen:]...),
			}
		case catKindDelete:
			if _, ok := c.live[name]; !ok {
				if salvage {
					// The add this tombstone pairs with was lost. Count
					// the tombstone too: the salvage must rewrite the file,
					// which a normal open rejects while it holds it.
					c.salvage.RecordsDropped++
					return nil
				}
				return fmt.Errorf("%w: %s: tombstone for unknown snapshot %q", ErrCatalogCorrupt, path, name)
			}
			delete(c.live, name)
			c.tombstones++
		default:
			if salvage {
				c.salvage.RecordsDropped++
				return nil
			}
			return fmt.Errorf("%w: %s: unknown record kind %d at offset %d", ErrCatalogCorrupt, path, r.Kind, r.Off)
		}
		return nil
	}
}

// addFrame is the add record for rec.
func addFrame(rec SnapshotRecord) recordlog.Frame {
	meta := encodeMeta(rec)
	return recordlog.Frame{
		Kind: catKindAdd,
		W2:   uint32(len(rec.Name)),
		W3:   uint32(len(meta) + len(rec.SealedRecipe)),
		Body: [][]byte{[]byte(rec.Name), meta, rec.SealedRecipe},
	}
}

// encodeMeta packs an add record's fixed metadata prefix.
func encodeMeta(rec SnapshotRecord) []byte {
	var meta [catMetaLen]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(rec.CreatedUnix))
	binary.LittleEndian.PutUint64(meta[8:], rec.LogicalBytes)
	binary.LittleEndian.PutUint32(meta[16:], rec.Chunks)
	return meta[:]
}

// Add records a new snapshot. When Add returns nil the snapshot is as
// durable as the catalog: for a file-backed catalog a sync covering the
// record has returned before Add does. Concurrent Adds share fsyncs via
// group commit — the mutation is applied tentatively under the lock, the
// commit runs with the lock released, and a failed commit rolls the
// mutation back.
func (c *Catalog) Add(rec SnapshotRecord) error {
	if rec.Name == "" {
		return errors.New("dedup: empty snapshot name")
	}
	if len(rec.Name) > catMaxName {
		return fmt.Errorf("dedup: snapshot name longer than %d bytes", catMaxName)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("dedup: catalog is closed")
	}
	if _, ok := c.live[rec.Name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSnapshotExists, rec.Name)
	}
	stored := rec
	stored.SealedRecipe = append([]byte(nil), rec.SealedRecipe...)
	if c.log == nil {
		c.live[rec.Name] = stored
		c.mu.Unlock()
		return nil
	}
	_, seq, err := c.log.Append(addFrame(rec))
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.live[rec.Name] = stored // tentative until the commit covers it
	c.mu.Unlock()
	if err := c.log.Commit(seq); err != nil {
		c.mu.Lock()
		delete(c.live, rec.Name)
		c.mu.Unlock()
		return err
	}
	return nil
}

// Delete removes a snapshot, appending a tombstone record. When the
// tombstones outnumber the live snapshots the catalog is compacted in the
// same call. Like Add, concurrent Deletes share fsyncs via group commit.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("dedup: catalog is closed")
	}
	rec, ok := c.live[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSnapshotNotFound, name)
	}
	if c.log == nil {
		delete(c.live, name)
		c.tombstones++
		c.mu.Unlock()
		return nil
	}
	_, seq, err := c.log.Append(recordlog.Frame{
		Kind: catKindDelete, W2: uint32(len(name)), Body: [][]byte{[]byte(name)},
	})
	if err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.live, name) // tentative until the commit covers it
	c.tombstones++
	c.mu.Unlock()
	if err := c.log.Commit(seq); err != nil {
		c.mu.Lock()
		c.live[name] = rec
		c.tombstones--
		c.mu.Unlock()
		return err
	}
	c.mu.Lock()
	if !c.closed && c.tombstones >= 8 && c.tombstones > len(c.live) {
		// Compaction is an optimization: the log already replays to the
		// right state, so a failed compaction only means the log stays
		// long. Do not fail the delete over it.
		_ = c.compactLocked()
	}
	c.mu.Unlock()
	return nil
}

// Get returns the live snapshot with the given name.
func (c *Catalog) Get(name string) (SnapshotRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.live[name]
	return rec, ok
}

// List returns every live snapshot, sorted by name.
func (c *Catalog) List() []SnapshotRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SnapshotRecord, 0, len(c.live))
	for _, rec := range c.live {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of live snapshots.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// Compact rewrites the catalog to hold only the live snapshots: the
// records are written to a fresh file, fsynced, and atomically renamed
// over the old one, so a crash mid-compaction leaves the previous catalog
// intact. A memory catalog compacts to a no-op.
func (c *Catalog) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		c.tombstones = 0
		return nil
	}
	return c.compactLocked()
}

func (c *Catalog) compactLocked() error {
	// Name order keeps compacted catalogs byte-comparable.
	names := make([]string, 0, len(c.live))
	for name := range c.live {
		names = append(names, name)
	}
	sort.Strings(names)
	frames := make([]recordlog.Frame, len(names))
	for i, name := range names {
		frames[i] = addFrame(c.live[name])
	}
	if err := c.log.Rewrite(frames); err != nil {
		return err
	}
	c.tombstones = 0
	return nil
}

// Close releases the catalog's file handle. Every acknowledged mutation
// is already durable; Close exists to release the descriptor.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}
