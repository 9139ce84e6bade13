package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freqdedup"
	"freqdedup/internal/vfs"
	"freqdedup/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one round share
// a trace identifier; parent names the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory; write stores them when the run ends. A nil
// *tracer records nothing, which is how untraced rounds run.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	trace  atomic.Uint64 // current round
	phase  atomic.Uint64 // current phase span, the parent of layer spans

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span.
type open struct {
	id, parent uint64
	name       string
	start      time.Time
}

func (t *tracer) start(name string, parent uint64) open {
	if t == nil {
		return open{}
	}
	return open{id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

func (t *tracer) end(o open, bytes int64) {
	if t == nil {
		return
	}
	t.record(o.id, o.parent, o.name, o.start, time.Now(), bytes)
}

// record stores a finished span; id 0 allocates a fresh identifier.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time, bytes int64) {
	if id == 0 {
		id = t.nextID.Add(1)
	}
	s := span{
		ID: id, Parent: parent, Trace: t.trace.Load(), Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Bytes: bytes,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// File classes of a repository directory, as the vfs layer sees them.
const (
	classContainer = iota
	classCatalog
	classTracelog
	classOther
	numClasses
)

var classNames = [numClasses]string{"container", "catalog", "tracelog", "other"}

func classOf(name string) int {
	base := filepath.Base(name)
	switch {
	case strings.Contains(base, ".fdc"):
		return classContainer
	case strings.Contains(base, ".fdr"):
		return classCatalog
	case strings.Contains(base, ".fdt"):
		return classTracelog
	}
	return classOther
}

// ioCounters is one file class's device traffic.
type ioCounters struct {
	writeB, writeNs, syncs, syncNs, reads, readB, readNs atomic.Int64
}

// tracedFS wraps the repository's file system (WithFileSystem) and counts
// bytes, calls and time per file class. Syncs are also recorded as spans.
type tracedFS struct {
	vfs.FS
	tr  *tracer
	cls [numClasses]ioCounters
}

func newTracedFS(tr *tracer) *tracedFS { return &tracedFS{FS: freqdedup.OSFileSystem, tr: tr} }

func (fs *tracedFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs, c: &fs.cls[classOf(f.Name())]}, nil
}

func (fs *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return fs.wrap(fs.FS.OpenFile(name, flag, perm))
}

func (fs *tracedFS) Open(name string) (vfs.File, error) { return fs.wrap(fs.FS.Open(name)) }

type tracedFile struct {
	vfs.File
	fs *tracedFS
	c  *ioCounters
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.c.readNs.Add(int64(time.Since(t)))
	f.c.reads.Add(1)
	f.c.readB.Add(int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.c.writeNs.Add(int64(time.Since(t)))
	f.c.writeB.Add(int64(n))
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.c.writeNs.Add(int64(time.Since(t)))
	f.c.writeB.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.c.syncNs.Add(int64(end.Sub(t)))
	f.c.syncs.Add(1)
	f.fs.tr.record(0, f.fs.tr.phase.Load(), "vfs.sync."+classNames[classOf(f.Name())], t, end, 0)
	return err
}

// wireStats is what a passive observer of the server's connections sees:
// FDW1 frame headers and the few payload fields that describe negotiation.
type wireStats struct {
	tr *tracer

	upB, downB, chunkDataB        atomic.Int64
	negFrames, negRefs, negMisses atomic.Int64
	readBlockedNs, writeBlockedNs atomic.Int64
	mu                            sync.Mutex
	turnaround                    []time.Duration
}

// tracedListener wraps the server's listener so that every accepted
// connection is observed. It parses frames; it never alters bytes.
type tracedListener struct {
	net.Listener
	ws *wireStats
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, ws: l.ws, pending: map[uint32]time.Time{}}
	tc.up.onFrame = tc.upFrame
	tc.down.onFrame = tc.downFrame
	return tc, nil
}

// tracedConn is one server-side connection. Reads carry client-to-server
// frames (up), writes server-to-client frames (down). The server reads on
// one goroutine and writes under its connection's send lock, so each
// direction's parser is used by one goroutine at a time; pending is shared
// between the two and locked.
type tracedConn struct {
	net.Conn
	ws       *wireStats
	up, down frameParser

	mu      sync.Mutex
	pending map[uint32]time.Time // TNegotiate seq -> when it was fully read
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.ws.readBlockedNs.Add(int64(end.Sub(t)))
	c.ws.upB.Add(int64(n))
	c.up.feed(p[:n], end)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t := time.Now()
	c.down.feed(p, t)
	n, err := c.Conn.Write(p)
	c.ws.writeBlockedNs.Add(int64(time.Since(t)))
	c.ws.downB.Add(int64(n))
	return n, err
}

func (c *tracedConn) upFrame(typ uint32, payload []byte, n uint32, at time.Time) {
	switch typ {
	case wire.TNegotiate:
		if len(payload) < 8 {
			return
		}
		seq := binary.BigEndian.Uint32(payload)
		c.ws.negFrames.Add(1)
		c.ws.negRefs.Add(int64(binary.BigEndian.Uint32(payload[4:])))
		c.mu.Lock()
		c.pending[seq] = at
		c.mu.Unlock()
	case wire.TChunkData:
		c.ws.chunkDataB.Add(int64(n))
	}
}

func (c *tracedConn) downFrame(typ uint32, payload []byte, _ uint32, at time.Time) {
	if typ != wire.TNegotiateReply || len(payload) < 8 {
		return
	}
	seq := binary.BigEndian.Uint32(payload)
	refs := int(binary.BigEndian.Uint32(payload[4:]))
	// The sender leaves the bitmap's padding bits zero.
	misses := 0
	for _, b := range payload[8:] {
		misses += bits.OnesCount8(b)
	}
	c.ws.negMisses.Add(int64(misses))
	c.mu.Lock()
	read, ok := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if !ok {
		return
	}
	c.ws.mu.Lock()
	c.ws.turnaround = append(c.ws.turnaround, at.Sub(read))
	c.ws.mu.Unlock()
	c.ws.tr.record(0, c.ws.tr.phase.Load(), "wire.negotiate", read, at, int64(refs))
}

// frameParser follows the FDW1 framing of one byte stream: a 12-byte header
// (magic, type, length), the payload, a 4-byte CRC. It keeps the first
// bytes of each payload (all of a TNegotiateReply, whose bitmap counts the
// misses) and reports each frame when its last byte has passed.
type frameParser struct {
	hdr     [wire.HeaderLen]byte
	hn      int
	typ     uint32
	plen    uint32
	left    int64 // payload and CRC bytes still to pass
	keep    int
	payload []byte
	onFrame func(typ uint32, payload []byte, plen uint32, at time.Time)
}

const crcLen = 4

func (p *frameParser) feed(b []byte, at time.Time) {
	for len(b) > 0 {
		if p.hn < len(p.hdr) {
			k := copy(p.hdr[p.hn:], b)
			p.hn += k
			b = b[k:]
			if p.hn < len(p.hdr) {
				return
			}
			p.typ = binary.BigEndian.Uint32(p.hdr[4:])
			p.plen = binary.BigEndian.Uint32(p.hdr[8:])
			p.left = int64(p.plen) + crcLen
			p.keep = 8
			if p.typ == wire.TNegotiateReply {
				p.keep = int(p.plen)
			}
			if p.keep > int(p.plen) {
				p.keep = int(p.plen)
			}
			p.payload = p.payload[:0]
		}
		k := int64(len(b))
		if k > p.left {
			k = p.left
		}
		if room := p.keep - len(p.payload); room > 0 {
			take := int64(room)
			if take > k {
				take = k
			}
			p.payload = append(p.payload, b[:take]...)
		}
		b = b[k:]
		p.left -= k
		if p.left == 0 {
			p.onFrame(p.typ, p.payload, p.plen, at)
			p.hn = 0
		}
	}
}

// percentile returns the q-quantile of ds (nearest rank), or 0 for none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
