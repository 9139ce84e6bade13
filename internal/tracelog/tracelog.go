// Package tracelog persists the adversary's view of a repository's upload
// traffic: the durable bridge between the storage stack's observation tap
// (dedup.UploadObserver) and the streaming attack engine
// (internal/attack).
//
// The paper's threat model (Section 3.3) grants the adversary exactly
// what crosses the wire after client-side encryption: the ciphertext
// chunk fingerprints, the ciphertext sizes, and their logical (upload)
// order — never plaintext, keys, or recipes. A Log records precisely
// that, one committed trace per acknowledged backup, in an append-only
// CRC-framed file (traces.fdt) beside the snapshot catalog, so
// OpenRepository can replay real backup histories into the attack engine
// long after the backups ran.
//
// # On-disk format
//
// The file is a record log (internal/recordlog, which owns the file
// header, framing, torn-tail replay and group commit) whose header words
// are a session id and the payload length:
//
//	begin   (kind 1): payload = backup label (UTF-8)
//	chunks  (kind 2): payload = n x (fingerprint [8] | size u32)
//	end     (kind 3): payload = total chunk count u64
//
// The session id lets concurrently running backups interleave their
// records in one file. Sessions buffer their windows in memory (spilling
// unsynced chunks records past a threshold), and the end record is
// fsynced — one group-committed sync shared by concurrent sessions —
// before a backup is acknowledged. A trace with no end record (a crashed
// or failed backup) is ignored on replay. Structural damage is ErrCorrupt:
// a damaged observation history surfaces as an error, never as a silently
// wrong attack input.
package tracelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/recordlog"
	"freqdedup/internal/trace"
	"freqdedup/internal/vfs"
)

// LogName is the trace log's file name within a repository directory.
const LogName = "traces.fdt"

// ErrCorrupt is returned when the trace log fails structural validation
// or a non-tail record fails its checksum.
var ErrCorrupt = errors.New("tracelog: trace log corrupt")

// On-disk layout constants.
const (
	kindBegin  = 1
	kindChunks = 2
	kindEnd    = 3

	// refLen is one observed chunk reference in a chunks payload.
	refLen = fphash.Size + 4

	// maxLabel and maxPayload bound record fields during replay: lengths
	// beyond them cannot come from a well-formed writer and are treated
	// as structural corruption rather than attempted allocations.
	maxLabel   = 4 << 10
	maxPayload = 64 << 20
)

// logFormat is the trace log's record-log format.
var logFormat = recordlog.Format{
	Name:     "tracelog",
	Magic:    0x4644544C, // "FDTL": freqdedup trace log
	Version:  1,
	RecMagic: 0x46445431, // "FDT1": one trace record
	BodyLen: func(sid, payloadLen uint32) (int64, bool) {
		return int64(payloadLen), payloadLen <= maxPayload
	},
	Corrupt: ErrCorrupt,
}

// extent locates one committed chunks record: the record's offset in the
// file and the number of references it holds.
type extent struct {
	off int64
	n   int
}

// Log is an adversary trace log: a sequence of committed backup traces.
// The zero value is not usable; construct with Create, Open, or NewMem.
// A Log is safe for concurrent use — concurrent backup sessions
// interleave records under one lock, and committed traces may be read
// while new ones are appended.
type Log struct {
	mu      sync.Mutex
	rl      *recordlog.Log // nil for a memory-only log
	path    string
	nextSID uint32
	backups []*BackupTrace
	closed  bool
}

// SetGroupCommitWindow sets the straggler window for the end-record group
// commit: a leader delays its fsync this long so concurrent session
// commits can join the round. Zero (the default) syncs immediately.
func (l *Log) SetGroupCommitWindow(d time.Duration) {
	if l.rl != nil {
		l.rl.SetGroupCommitWindow(d)
	}
}

// CommitSyncs returns how many end-record fsync rounds have run — with
// concurrent sessions this is less than the session count.
func (l *Log) CommitSyncs() int64 {
	if l.rl == nil {
		return 0
	}
	return l.rl.CommitSyncs()
}

// NewMem returns a log kept only in memory — the tap used by in-memory
// repositories and by the replay-equivalence tests. Nothing survives the
// process.
func NewMem() *Log { return &Log{} }

// Create initializes a new, empty trace log file. It fails if the file
// already exists.
func Create(path string) (*Log, error) {
	return CreateFS(vfs.OS, path)
}

// CreateFS is Create against an explicit filesystem.
func CreateFS(fsys vfs.FS, path string) (*Log, error) {
	rl, err := recordlog.Create(fsys, path, &logFormat)
	if err != nil {
		return nil, err
	}
	return &Log{rl: rl, path: path}, nil
}

// Open opens an existing trace log and replays its records, recovering
// the committed backup traces. A record torn by a mid-append crash is
// discarded by truncating the file back to the last complete record;
// traces whose backup never committed (no end record) are dropped. Open
// is for the log's owner (the repository); replay-only consumers must
// use OpenReadOnly — Open's tail truncation would corrupt a log another
// process is still appending to.
func Open(path string) (*Log, error) {
	return OpenFS(vfs.OS, path)
}

// OpenFS is Open against an explicit filesystem.
func OpenFS(fsys vfs.FS, path string) (*Log, error) {
	return openLog(fsys, path, recordlog.Owner)
}

// OpenReadOnly opens a trace log for replay without taking ownership:
// the file is opened read-only, an incomplete tail (which may simply be
// another process's in-flight append, not crash damage) is ignored
// rather than truncated, and Begin is refused. This is the mode for
// inspection tools (`defend attack -repo`, `-dataset repo:`) pointed at
// a repository that may still be live.
func OpenReadOnly(path string) (*Log, error) {
	return OpenReadOnlyFS(vfs.OS, path)
}

// OpenReadOnlyFS is OpenReadOnly against an explicit filesystem.
func OpenReadOnlyFS(fsys vfs.FS, path string) (*Log, error) {
	return openLog(fsys, path, recordlog.ReadOnly)
}

func openLog(fsys vfs.FS, path string, mode recordlog.Mode) (*Log, error) {
	l := &Log{path: path}
	rl, _, err := recordlog.Open(fsys, path, &logFormat, mode, l.replayFunc())
	if err != nil {
		return nil, err
	}
	l.rl = rl
	return l, nil
}

// replayFunc returns the record visitor that rebuilds the committed-trace
// list. Unterminated sessions stay as dead records: their backups were
// never acknowledged.
func (l *Log) replayFunc() func(recordlog.Record) error {
	// One in-flight (begun, not yet ended) trace per session id.
	type pending struct {
		label   string
		extents []extent
		count   int64
	}
	open := make(map[uint32]*pending)
	return func(r recordlog.Record) error {
		sid, payload, pos := r.W2, r.Body, r.Off
		if sid >= l.nextSID {
			l.nextSID = sid + 1
		}
		switch r.Kind {
		case kindBegin:
			if len(payload) > maxLabel {
				return fmt.Errorf("%w: %s: absurd label length %d at offset %d", ErrCorrupt, l.path, len(payload), pos)
			}
			if _, ok := open[sid]; ok {
				return fmt.Errorf("%w: %s: duplicate begin for session %d at offset %d", ErrCorrupt, l.path, sid, pos)
			}
			open[sid] = &pending{label: string(payload)}
		case kindChunks:
			p, ok := open[sid]
			if !ok {
				return fmt.Errorf("%w: %s: chunks record for unknown session %d at offset %d", ErrCorrupt, l.path, sid, pos)
			}
			if len(payload)%refLen != 0 {
				return fmt.Errorf("%w: %s: chunks payload length %d not a multiple of %d at offset %d",
					ErrCorrupt, l.path, len(payload), refLen, pos)
			}
			n := len(payload) / refLen
			p.extents = append(p.extents, extent{off: pos, n: n})
			p.count += int64(n)
		case kindEnd:
			p, ok := open[sid]
			if !ok {
				return fmt.Errorf("%w: %s: end record for unknown session %d at offset %d", ErrCorrupt, l.path, sid, pos)
			}
			if len(payload) != 8 {
				return fmt.Errorf("%w: %s: end payload length %d at offset %d", ErrCorrupt, l.path, len(payload), pos)
			}
			if want := int64(binary.LittleEndian.Uint64(payload)); want != p.count {
				return fmt.Errorf("%w: %s: session %d ended with %d chunks, records hold %d",
					ErrCorrupt, l.path, sid, want, p.count)
			}
			delete(open, sid)
			l.backups = append(l.backups, &BackupTrace{
				Label:   p.label,
				Chunks:  p.count,
				log:     l,
				extents: p.extents,
			})
		default:
			return fmt.Errorf("%w: %s: unknown record kind %d at offset %d", ErrCorrupt, l.path, r.Kind, pos)
		}
		return nil
	}
}

// Backups returns the committed backup traces in commit order. The
// returned slice is a snapshot; traces committed later are not included.
func (l *Log) Backups() []*BackupTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*BackupTrace, len(l.backups))
	copy(out, l.backups)
	return out
}

// Path returns the log's file path ("" for a memory log).
func (l *Log) Path() string { return l.path }

// Close releases the log's file handle. Every committed trace is already
// durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.rl == nil {
		return nil
	}
	return l.rl.Close()
}

// appendRecord appends one record without syncing (callers hold l.mu),
// returning the record's offset and commit sequence. Durability is
// deferred to the session's Commit, which runs the group-commit fsync.
func (l *Log) appendRecord(kind, sid uint32, payload []byte) (int64, int64, error) {
	return l.rl.Append(recordlog.Frame{
		Kind: kind, W2: sid, W3: uint32(len(payload)), Body: [][]byte{payload},
	})
}

// Begin starts recording one backup's upload trace. The returned Session
// implements dedup.UploadObserver; hand it to the client whose backup is
// being observed, then Commit after the backup is acknowledged (or Abort
// on failure — an aborted session's records are ignored on replay).
func (l *Log) Begin(label string) (*Session, error) {
	if len(label) > maxLabel {
		return nil, fmt.Errorf("tracelog: label longer than %d bytes", maxLabel)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("tracelog: log is closed")
	}
	s := &Session{log: l, label: label, sid: l.nextSID}
	l.nextSID++
	if l.rl != nil {
		if _, _, err := l.appendRecord(kindBegin, s.sid, []byte(label)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sessionSpillBytes is the encoded size past which a session's buffered
// windows spill to an (unsynced) chunks record. Below it, a backup's
// whole trace stays in memory until Commit — ObserveUpload does no I/O at
// all, keeping the observation tap off the backup's critical path.
const sessionSpillBytes = 4 << 20

// Session records one backup's observed upload stream. It implements
// dedup.UploadObserver. A session is used by one backup pipeline at a
// time; the log it writes to may carry concurrent sessions.
//
// A file-backed session buffers its windows in memory and writes them
// out — still without an fsync — only when the buffer passes the spill
// threshold. Durability happens once, at Commit: the buffered tail and
// the end record are appended, and the end-record fsync is shared with
// concurrently committing sessions via group commit.
type Session struct {
	log     *Log
	label   string
	sid     uint32
	count   int64
	extents []extent
	mem     []trace.ChunkRef // memory-log accumulation
	done    bool
	buf     []byte // encoded refs not yet spilled to the file
}

// ObserveUpload appends one window of observed uploads: ciphertext
// fingerprint and ciphertext size per chunk, in upload order. refs is
// only borrowed for the duration of the call.
func (s *Session) ObserveUpload(refs []trace.ChunkRef) error {
	if len(refs) == 0 {
		return nil
	}
	if s.done {
		return errors.New("tracelog: session already committed or aborted")
	}
	l := s.log
	if l.rl == nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			return errors.New("tracelog: log is closed")
		}
		s.mem = append(s.mem, refs...)
		s.count += int64(len(refs))
		return nil
	}
	// File-backed: encode into the session-local buffer, no log lock and
	// no I/O unless the spill threshold is crossed.
	off := len(s.buf)
	s.buf = append(s.buf, make([]byte, len(refs)*refLen)...)
	for _, ref := range refs {
		copy(s.buf[off:], ref.FP[:])
		binary.LittleEndian.PutUint32(s.buf[off+fphash.Size:], ref.Size)
		off += refLen
	}
	s.count += int64(len(refs))
	if len(s.buf) < sessionSpillBytes {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return s.spillLocked()
}

// spillLocked writes the session's buffered windows as one chunks record,
// without syncing. Called with l.mu held.
func (s *Session) spillLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	l := s.log
	if l.closed {
		return errors.New("tracelog: log is closed")
	}
	at, _, err := l.appendRecord(kindChunks, s.sid, s.buf)
	if err != nil {
		return err
	}
	s.extents = append(s.extents, extent{off: at, n: len(s.buf) / refLen})
	s.buf = s.buf[:0]
	return nil
}

// Commit seals the session's trace: buffered windows and the end record
// are appended, and a sync covering them has returned before Commit does,
// so an acknowledged backup's trace survives a crash. The sync is shared
// with concurrently committing sessions (group commit). The trace becomes
// visible to Backups.
func (s *Session) Commit() error {
	if s.done {
		return errors.New("tracelog: session already committed or aborted")
	}
	s.done = true
	l := s.log
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("tracelog: log is closed")
	}
	if l.rl == nil {
		l.backups = append(l.backups, &BackupTrace{
			Label: s.label, Chunks: s.count, log: l, mem: s.mem,
		})
		l.mu.Unlock()
		return nil
	}
	if err := s.spillLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(s.count))
	_, seq, err := l.appendRecord(kindEnd, s.sid, payload[:])
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.rl.Commit(seq); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.backups = append(l.backups, &BackupTrace{
		Label:   s.label,
		Chunks:  s.count,
		log:     l,
		extents: s.extents,
	})
	return nil
}

// Abort drops the session. Buffered windows are discarded; records
// already spilled stay in the file as dead space but are never replayed:
// without an end record the trace is not committed — exactly the state a
// crash mid-backup leaves behind.
func (s *Session) Abort() {
	s.done = true
	s.mem = nil
	s.buf = nil
}

// BackupTrace is one committed backup's observed upload stream. It
// implements attack.ChunkSource: Open returns a streaming reader over the
// log file (or the in-memory records for a memory log), so a trace larger
// than RAM feeds the attack engine without being materialized.
type BackupTrace struct {
	// Label is the backup's name as recorded at Begin.
	Label string
	// Chunks is the number of observed chunk uploads.
	Chunks int64

	log     *Log
	extents []extent
	mem     []trace.ChunkRef
}

// ChunkCount reports the trace's length, implementing the attack
// engine's optional table pre-sizing hint (attack.ChunkCounter).
func (t *BackupTrace) ChunkCount() int64 { return t.Chunks }

// Open returns a reader over the trace, re-verifying each record's CRC as
// it streams. Readers are independent; a trace may be open several times
// concurrently (the attack engine's counting passes do exactly that), and
// may be read while new sessions append to the same log. Traces must not
// be opened after the log is closed.
func (t *BackupTrace) Open() (attack.ChunkReader, error) {
	l := t.log
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, errors.New("tracelog: log is closed")
	}
	if l.rl == nil {
		return attack.SliceSource(t.mem).Open()
	}
	return &traceReader{t: t}, nil
}

// Materialize loads the whole trace as a backup stream — the bridge to
// code that needs in-memory streams (trace-level defense simulation,
// figure runners). Prefer Open for attack runs.
func (t *BackupTrace) Materialize() (*trace.Backup, error) {
	b := &trace.Backup{Label: t.Label, Chunks: make([]trace.ChunkRef, 0, t.Chunks)}
	r, err := t.Open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]trace.ChunkRef, 4096)
	for {
		n, err := r.Read(buf)
		b.Chunks = append(b.Chunks, buf[:n]...)
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// traceReader streams a file-backed trace extent by extent. Each chunks
// record is read whole (safe under concurrent appends to the same file)
// and verified before any reference is handed out; a closed log fails
// reads cleanly.
type traceReader struct {
	t   *BackupTrace
	ext int // next extent to load
	buf []trace.ChunkRef
	pos int
}

func (r *traceReader) Read(buf []trace.ChunkRef) (int, error) {
	for r.pos >= len(r.buf) {
		if r.ext >= len(r.t.extents) {
			return 0, io.EOF
		}
		if err := r.load(r.t.extents[r.ext]); err != nil {
			return 0, err
		}
		r.ext++
		r.pos = 0
	}
	n := copy(buf, r.buf[r.pos:])
	r.pos += n
	return n, nil
}

// load reads and verifies one chunks record, decoding it into r.buf.
func (r *traceReader) load(e extent) error {
	payload, err := r.t.log.rl.ReadRecord(e.off, int64(e.n*refLen))
	if err != nil {
		return err
	}
	if cap(r.buf) < e.n {
		r.buf = make([]trace.ChunkRef, e.n)
	}
	r.buf = r.buf[:e.n]
	for i := range r.buf {
		off := i * refLen
		copy(r.buf[i].FP[:], payload[off:off+fphash.Size])
		r.buf[i].Size = binary.LittleEndian.Uint32(payload[off+fphash.Size:])
	}
	return nil
}

func (r *traceReader) Close() error {
	r.buf = nil
	return nil
}
