// Package recordlog is the append-only CRC record log under the snapshot
// catalog (catalog.fdr, internal/dedup) and the trace logs (traces.fdt
// and negotiation.fdt, internal/tracelog). It owns the durability rules
// both files share; a Format supplies only its magics, its version, the
// body-length rule over a record's two header words, and its corruption
// sentinel.
//
//	file    = magic u32 | version u32 | reserved u32 | reserved u32 | record*
//	record  = recMagic u32 | kind u32 | w2 u32 | w3 u32 | body | crc32
//
// Integers are little-endian; the CRC-32 (IEEE) covers the record header
// and body. Kind, w2, w3 and the body belong to the format.
//
// Replay reads records in file order. A record cut short by the end of
// the file, or a final record whose checksum fails, is what a crash
// mid-append leaves: an Owner open truncates it away, a ReadOnly open
// leaves it (it may be another process's append in flight). Any other
// damage is an error wrapping the sentinel. A Salvage open instead skips
// to the next record that proves itself by magic, header words and CRC —
// a header alone could be body bytes that contain the magic — counts
// what it skipped, and leaves the rewrite to the caller.
//
// Append writes a record at the tail without syncing; Commit returns once
// an fsync covering it has returned, sharing fsyncs between concurrent
// commits (internal/gcommit). A failed write may have torn a prefix of its
// record into the file, so Append truncates back to the tail before it
// reports the error; otherwise a shorter record written next would leave
// the torn bytes behind it, mid-file. A failed fsync leaves every unsynced
// record in doubt, so Commit truncates back to the last durable record.
// After a failed fsync, or a failed write whose truncate failed too, the
// log refuses all further appends; its owner reopens it.
package recordlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"freqdedup/internal/gcommit"
	"freqdedup/internal/vfs"
)

// Layout sizes shared by every format.
const (
	HeaderLen    = 16 // file header: magic, version, two reserved words
	RecHeaderLen = 16 // record header: magic, kind, w2, w3
	TrailerLen   = 4  // CRC-32 over record header and body
)

// Format is what the log knows about one file format.
type Format struct {
	// Name prefixes the log's own error messages, e.g. "tracelog".
	Name                     string
	Magic, Version, RecMagic uint32
	// BodyLen returns the body length header words w2 and w3 announce, or
	// false when they are out of the format's bounds.
	BodyLen func(w2, w3 uint32) (int64, bool)
	// Corrupt is the sentinel every structural error wraps.
	Corrupt error
}

// Mode selects how Open treats the file: Owner truncates a torn tail,
// ReadOnly leaves it and refuses appends, Salvage skips damaged records.
type Mode int

const (
	Owner Mode = iota
	ReadOnly
	Salvage
)

// Record is one replayed record at file offset Off. Body is valid only
// during the visit call.
type Record struct {
	Off    int64
	Kind   uint32
	W2, W3 uint32
	Body   []byte
}

// Frame is one record to write. Its body is the concatenation of Body.
type Frame struct {
	Kind   uint32
	W2, W3 uint32
	Body   [][]byte
}

// Stats reports what a Salvage open skipped: the damaged records and the
// total size of the skipped regions.
type Stats struct {
	RecordsDropped int
	BytesSkipped   int64
}

// Log is one open record log. It is safe for concurrent use.
type Log struct {
	fm   *Format
	fsys vfs.FS
	path string
	mode Mode

	// mu guards the handle and the tail state; handle swaps also hold
	// syncMu, which the commit fsync holds alone. Lock order: mu, syncMu.
	mu      sync.Mutex
	f       vfs.File
	size    int64
	seq     int64     // last assigned append sequence
	pending []pending // appended records not yet covered by a sync
	err     error     // set when a failed append could not be cut away
	scratch []byte

	syncMu sync.Mutex
	gc     *gcommit.Committer
}

// pending is an unsynced record's commit sequence and offset.
type pending struct {
	seq int64
	off int64
}

func newLog(fsys vfs.FS, path string, fm *Format, mode Mode, f vfs.File) *Log {
	l := &Log{fm: fm, fsys: fsys, path: path, mode: mode, f: f}
	l.gc = gcommit.New(func() error {
		l.syncMu.Lock()
		defer l.syncMu.Unlock()
		if l.f == nil {
			return l.closedErr()
		}
		return l.f.Sync()
	}, true)
	return l
}

func (l *Log) closedErr() error { return fmt.Errorf("%s: log is closed", l.fm.Name) }

// header returns the format's file header.
func (fm *Format) header() []byte {
	hdr := make([]byte, HeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], fm.Magic)
	binary.LittleEndian.PutUint32(hdr[4:], fm.Version)
	return hdr
}

// Create initializes a new, empty log file, syncing it and its directory.
// It fails if the file already exists.
func Create(fsys vfs.FS, path string, fm *Format) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: create: %w", fm.Name, err)
	}
	_, err = f.Write(fm.header())
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = vfs.SyncDir(fsys, filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("%s: write header: %w", fm.Name, err)
	}
	l := newLog(fsys, path, fm, Owner, f)
	l.size = HeaderLen
	return l, nil
}

// Open opens an existing log and replays it, calling visit for every
// record in file order; a visit error fails the open.
func Open(fsys vfs.FS, path string, fm *Format, mode Mode, visit func(Record) error) (*Log, Stats, error) {
	var f vfs.File
	var err error
	if mode == ReadOnly {
		f, err = fsys.Open(path)
	} else {
		f, err = fsys.OpenFile(path, os.O_RDWR, 0)
	}
	if err != nil {
		return nil, Stats{}, fmt.Errorf("%s: open: %w", fm.Name, err)
	}
	l := newLog(fsys, path, fm, mode, f)
	st, err := l.replay(visit)
	if err != nil {
		f.Close()
		return nil, st, err
	}
	return l, st, nil
}

func (l *Log) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", l.fm.Corrupt, l.path, fmt.Sprintf(format, args...))
}

// errTorn marks what a crash mid-append leaves: a record cut short by the
// end of the file, or a final record whose checksum fails.
var errTorn = errors.New("recordlog: torn record")

func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// readFrame reads and verifies the record at pos of the size-byte file f,
// reusing *buf for the body. It returns the record and its end offset,
// errTorn, an error wrapping the format's sentinel, or a read error.
func (l *Log) readFrame(f vfs.File, pos, size int64, buf *[]byte) (Record, int64, error) {
	var hdr [RecHeaderLen]byte
	if pos+RecHeaderLen > size {
		return Record{}, 0, errTorn
	}
	if _, err := f.ReadAt(hdr[:], pos); err != nil {
		return Record{}, 0, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != l.fm.RecMagic {
		return Record{}, 0, l.corrupt("bad record magic %#x at offset %d", m, pos)
	}
	r := Record{
		Off:  pos,
		Kind: binary.LittleEndian.Uint32(hdr[4:]),
		W2:   binary.LittleEndian.Uint32(hdr[8:]),
		W3:   binary.LittleEndian.Uint32(hdr[12:]),
	}
	n, ok := l.fm.BodyLen(r.W2, r.W3)
	if !ok {
		return Record{}, 0, l.corrupt("absurd record header words (%d, %d) at offset %d", r.W2, r.W3, pos)
	}
	end := pos + RecHeaderLen + n + TrailerLen
	if end > size {
		return Record{}, 0, errTorn
	}
	*buf = grow(*buf, n+TrailerLen)
	body := *buf
	if _, err := f.ReadAt(body, pos+RecHeaderLen); err != nil {
		return Record{}, 0, err
	}
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, body[:n])
	if crc != binary.LittleEndian.Uint32(body[n:]) {
		if end == size {
			return Record{}, 0, errTorn
		}
		return Record{}, 0, l.corrupt("record checksum mismatch at offset %d", pos)
	}
	r.Body = body[:n]
	return r, end, nil
}

// replay scans the file, handing every verified record to visit, and
// leaves l.size at the end of the last good record.
func (l *Log) replay(visit func(Record) error) (Stats, error) {
	var st Stats
	info, err := l.f.Stat()
	if err != nil {
		return st, err
	}
	size := info.Size()
	if size < HeaderLen {
		return st, fmt.Errorf("%w: %s shorter than its header", l.fm.Corrupt, l.path)
	}
	var hdr [HeaderLen]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return st, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != l.fm.Magic {
		return st, fmt.Errorf("%w: %s has bad magic %#x", l.fm.Corrupt, l.path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != l.fm.Version {
		return st, fmt.Errorf("%w: %s has unsupported version %d", l.fm.Corrupt, l.path, v)
	}

	pos := int64(HeaderLen)
	var body []byte
	for pos < size {
		r, end, err := l.readFrame(l.f, pos, size, &body)
		if err == nil {
			if err := visit(r); err != nil {
				return st, err
			}
			pos = end
			continue
		}
		torn := errors.Is(err, errTorn)
		if !torn && !errors.Is(err, l.fm.Corrupt) {
			return st, err
		}
		if l.mode == Salvage {
			next := l.resync(pos+1, size, &body)
			if next < size {
				st.RecordsDropped++
			}
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		if !torn {
			return st, err
		}
		if l.mode == Owner {
			// Discard the torn tail so appends start at a record boundary.
			if err := l.f.Truncate(pos); err != nil {
				return st, fmt.Errorf("%s: truncate torn tail: %w", l.fm.Name, err)
			}
			if err := l.f.Sync(); err != nil {
				return st, err
			}
		}
		break
	}
	l.size = pos
	return st, nil
}

// resync returns the offset of the next record at or after pos that
// proves itself by magic, header words and CRC, or size if none does.
func (l *Log) resync(pos, size int64, buf *[]byte) int64 {
	for ; pos < size; pos++ {
		if _, _, err := l.readFrame(l.f, pos, size, buf); err == nil {
			return pos
		}
	}
	return size
}

// frame serializes fr into l.scratch. Called with l.mu held.
func (l *Log) frame(fr Frame) ([]byte, error) {
	var n int64
	for _, p := range fr.Body {
		n += int64(len(p))
	}
	if want, ok := l.fm.BodyLen(fr.W2, fr.W3); !ok || want != n {
		return nil, fmt.Errorf("%s: record header words (%d, %d) do not describe a %d-byte body",
			l.fm.Name, fr.W2, fr.W3, n)
	}
	buf := grow(l.scratch, RecHeaderLen+n+TrailerLen)
	l.scratch = buf
	binary.LittleEndian.PutUint32(buf[0:], l.fm.RecMagic)
	binary.LittleEndian.PutUint32(buf[4:], fr.Kind)
	binary.LittleEndian.PutUint32(buf[8:], fr.W2)
	binary.LittleEndian.PutUint32(buf[12:], fr.W3)
	off := RecHeaderLen
	for _, p := range fr.Body {
		off += copy(buf[off:], p)
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

// Append writes one record at the tail without syncing, returning the
// record's file offset and its commit sequence for Commit.
func (l *Log) Append(fr Frame) (off, seq int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.f == nil:
		return 0, 0, l.closedErr()
	case l.mode == ReadOnly:
		return 0, 0, fmt.Errorf("%s: log is open read-only", l.fm.Name)
	case l.err != nil:
		return 0, 0, fmt.Errorf("%s: log poisoned by an earlier failed append: %w", l.fm.Name, l.err)
	}
	if err := l.gc.Err(); err != nil {
		return 0, 0, fmt.Errorf("%s: log poisoned by earlier sync failure: %w", l.fm.Name, err)
	}
	buf, err := l.frame(fr)
	if err != nil {
		return 0, 0, err
	}
	off = l.size
	if _, err := l.f.WriteAt(buf, off); err != nil {
		if terr := l.f.Truncate(off); terr != nil {
			l.err = terr
		} else {
			_ = l.f.Sync() // best-effort: the torn bytes were never acknowledged
		}
		return 0, 0, fmt.Errorf("%s: append record: %w", l.fm.Name, err)
	}
	l.size = off + int64(len(buf))
	l.seq++
	l.pending = append(l.pending, pending{seq: l.seq, off: off})
	return off, l.seq, nil
}

// Commit blocks until an fsync covering sequence seq has returned, sharing
// the fsync with concurrent commits. On failure the file is truncated back
// to the durable boundary and the log refuses further appends.
func (l *Log) Commit(seq int64) error {
	err := l.gc.Commit(seq)
	d := l.gc.Durable()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prunePendingLocked(d)
	if err != nil {
		l.truncateToDurableLocked()
		return fmt.Errorf("%s: sync: %w", l.fm.Name, err)
	}
	return nil
}

// prunePendingLocked drops pending entries covered by durable sequence d.
func (l *Log) prunePendingLocked(d int64) {
	i := 0
	for i < len(l.pending) && l.pending[i].seq <= d {
		i++
	}
	if i > 0 {
		l.pending = append(l.pending[:0], l.pending[i:]...)
	}
}

// truncateToDurableLocked discards the unsynced records after a failed
// commit. Concurrent failed commits compute the same boundary.
func (l *Log) truncateToDurableLocked() {
	if len(l.pending) > 0 {
		l.size = l.pending[0].off
		l.pending = l.pending[:0]
	}
	if l.f != nil && l.f.Truncate(l.size) == nil {
		_ = l.f.Sync()
	}
}

// Rewrite replaces the log's records with frames, written to a fresh file
// that is synced and renamed over the log: a crash leaves the old file or
// the new one. Waiting commits are released as durable.
func (l *Log) Rewrite(frames []Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.closedErr()
	}
	tmpName := l.path + ".rewrite"
	tmp, err := l.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("%s: rewrite: %w", l.fm.Name, err)
	}
	abort := func(err error) error {
		tmp.Close()
		l.fsys.Remove(tmpName)
		return fmt.Errorf("%s: rewrite: %w", l.fm.Name, err)
	}
	if _, err := tmp.Write(l.fm.header()); err != nil {
		return abort(err)
	}
	size := int64(HeaderLen)
	for _, fr := range frames {
		buf, err := l.frame(fr)
		if err != nil {
			return abort(err)
		}
		if _, err := tmp.Write(buf); err != nil {
			return abort(err)
		}
		size += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := l.fsys.Rename(tmpName, l.path); err != nil {
		return abort(err)
	}
	// Swap under syncMu so an in-flight commit never syncs a closed handle.
	l.syncMu.Lock()
	l.f.Close()
	l.f = tmp
	l.syncMu.Unlock()
	l.size = size
	l.pending = l.pending[:0]
	l.gc.MarkDurable(l.seq)
	_ = vfs.SyncDir(l.fsys, filepath.Dir(l.path)) // best-effort: the rename already committed
	return nil
}

// ReadRecord reads the record at off, whose body the caller knows to be
// bodyLen bytes long, verifies it, and returns its body. It is safe to
// call while other goroutines append.
func (l *Log) ReadRecord(off, bodyLen int64) ([]byte, error) {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	if f == nil {
		return nil, l.closedErr()
	}
	var body []byte
	end := off + RecHeaderLen + bodyLen + TrailerLen
	r, got, err := l.readFrame(f, off, end, &body)
	if errors.Is(err, errTorn) || (err == nil && got != end) {
		err = l.corrupt("record at offset %d does not hold its %d-byte body", off, bodyLen)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: read record: %w", l.fm.Name, err)
	}
	return r.Body, nil
}

// SetGroupCommitWindow sets how long a commit leader waits for others to
// join its fsync (gcommit.Committer.SetWindow).
func (l *Log) SetGroupCommitWindow(d time.Duration) { l.gc.SetWindow(d) }

// CommitSyncs returns how many commit fsync rounds have run.
func (l *Log) CommitSyncs() int64 { return l.gc.Syncs() }

// Close releases the file handle. Every committed record is already
// durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.syncMu.Lock()
	err := l.f.Close()
	l.f = nil
	l.syncMu.Unlock()
	return err
}
