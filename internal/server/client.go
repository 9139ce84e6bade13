package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"freqdedup/internal/chunker"
	"freqdedup/internal/dedup"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/wire"
)

// DialConfig configures a Client session.
type DialConfig struct {
	// Tenant is the session's namespace; required.
	Tenant string
	// Token is the tenant's bearer token (ignored by open servers).
	Token []byte
	// Chunking sets the content-defined chunking parameters
	// (chunker.DefaultParams if zero). They must match the parameters the
	// repository's other clients use, or cross-client dedup degrades to
	// nothing — the server never sees plaintext, so it cannot check.
	Chunking chunker.Params
	// ChunkWorkers enables multi-stream chunking (gear only), exactly as
	// in the in-process pipeline (dedup.Config.ChunkWorkers).
	ChunkWorkers int
	// Workers is the encrypt+fingerprint fan-out (GOMAXPROCS if 0).
	Workers int
	// DialTimeout bounds connect + handshake (30s if zero).
	DialTimeout time.Duration
}

// Client is the network counterpart of the in-process backup client: it
// runs the same backup pipeline (dedup.Client: chunk and convergently
// encrypt locally) into a wire sink that negotiates fingerprints with the
// server and uploads only the misses, then hands the recipe to the server
// to seal — the full Backup/Restore/Snapshots/Delete surface over one
// authenticated TCP session.
//
// A Client is NOT safe for concurrent use: it multiplexes one connection
// and runs one operation at a time (operations serialize internally).
// Run one Client per goroutine for concurrent sessions — that is the
// multi-tenant architecture the server is built for. Only convergent
// encryption (EncConvergent) is spoken on the wire; the server-aided and
// MinHash schemes remain in-process.
//
// After a transport or mid-pipeline failure the session state is
// unrecoverable and the Client marks itself broken: further operations
// fail and the caller re-dials. Clean server-side rejections (name
// exists, not found, auth) leave the session usable.
type Client struct {
	nc     net.Conn
	wc     *wire.Conn
	limits wire.HelloOK

	// pipe is the backup pipeline; it uploads through sink, which carries
	// the state of the backup in progress.
	pipe *dedup.Client
	sink *wireSink

	mu     sync.Mutex
	broken bool
	closed bool
}

// Dial connects, authenticates, and negotiates limits with a server. It
// validates cfg as dedup.NewClient does before connecting.
func Dial(addr string, cfg DialConfig) (*Client, error) {
	if err := validTenant(cfg.Tenant); err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	sink := &wireSink{}
	pipe, err := dedup.NewSinkClient(sink, dedup.Config{
		Chunking:     cfg.Chunking,
		ChunkWorkers: cfg.ChunkWorkers,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	timeout := cfg.DialTimeout
	if timeout == 0 {
		timeout = handshakeTimeout
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, wc: wire.NewConn(nc), pipe: pipe, sink: sink}
	if err := c.handshake(cfg, timeout); err != nil {
		nc.Close()
		return nil, err
	}
	sink.c = c
	return c, nil
}

// handshake runs the Hello exchange under timeout and checks the limits
// the server advertises: they come from the network, so a zero window or
// in-flight limit is refused rather than trusted.
func (c *Client) handshake(cfg DialConfig, timeout time.Duration) error {
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	hello, err := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: cfg.Tenant, Token: cfg.Token})
	if err != nil {
		return err
	}
	if err := c.wc.Send(wire.THello, hello); err != nil {
		return err
	}
	p, err := c.expect(wire.THelloOK)
	if err != nil {
		return err
	}
	if c.limits, err = wire.ParseHelloOK(p); err != nil {
		return err
	}
	if c.limits.Version != wire.Version {
		return fmt.Errorf("server: protocol version %d, want %d", c.limits.Version, wire.Version)
	}
	if c.limits.WindowChunks == 0 || c.limits.MaxInflight == 0 {
		return fmt.Errorf("server: advertised window of %d chunks with %d in flight; both must be positive",
			c.limits.WindowChunks, c.limits.MaxInflight)
	}
	if m := c.pipe.Config().Chunking.Max; uint32(m) > c.limits.MaxChunkBytes {
		return fmt.Errorf("server: chunking max %d exceeds the server's chunk limit %d",
			m, c.limits.MaxChunkBytes)
	}
	return c.nc.SetDeadline(time.Time{})
}

// Close releases the connection. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// begin claims the client for one operation.
func (c *Client) begin() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("server: client is closed")
	}
	if c.broken {
		return errors.New("server: session is broken after a previous failure; re-dial")
	}
	return nil
}

func (c *Client) markBroken() {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	c.nc.Close()
}

// expect reads the next frame, surfacing TError as a Go error and any
// other type than want as a protocol error.
func (c *Client) expect(want uint32) ([]byte, error) {
	typ, p, err := c.wc.Recv()
	if err != nil {
		return nil, err
	}
	if typ == wire.TError {
		e, perr := wire.ParseError(p)
		if perr != nil {
			return nil, perr
		}
		return nil, remoteError(e)
	}
	if typ != want {
		return nil, fmt.Errorf("server: unexpected frame type %d, want %d", typ, want)
	}
	return p, nil
}

// remoteError maps a server-reported error to a client-side error that
// supports errors.Is against the repository sentinels.
func remoteError(e wire.ErrorInfo) error {
	switch e.Code {
	case wire.CodeNotFound:
		return fmt.Errorf("%w (%s)", dedup.ErrSnapshotNotFound, e.Msg)
	case wire.CodeExists:
		return fmt.Errorf("%w (%s)", dedup.ErrSnapshotExists, e.Msg)
	default:
		err := e
		return &err
	}
}

// watchCtx poisons the connection's deadlines when ctx fires, so blocking
// frame I/O unblocks promptly. The returned stop func must be called
// before the operation ends; it reports whether the ctx fired.
func (c *Client) watchCtx(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	stopped := make(chan struct{})
	fired := make(chan bool, 1)
	go func() {
		select {
		case <-ctx.Done():
			fired <- true
			c.nc.SetDeadline(time.Unix(1, 0))
		case <-stopped:
			fired <- false
		}
	}()
	return func() bool {
		close(stopped)
		return <-fired
	}
}

// cwindow is one in-flight backup window on the client side.
type cwindow struct {
	refs []trace.ChunkRef
	cts  [][]byte // ciphertexts, freed once the data frame is written
}

// wireSink is the backup pipeline's sink on the network client. Each
// upload window is split at the server-advertised window size; every part
// takes an in-flight slot, registers its ciphertexts as pending, and is
// sent as one TNegotiate. The receiver goroutine (recvLoop) answers the
// negotiate replies with the missed ciphertexts and frees a slot on every
// window acknowledgment.
type wireSink struct {
	c *Client

	// Per-backup state, reset by start.
	mu      sync.Mutex
	pending map[uint32]*cwindow
	seq     uint32
	negPay  []byte

	// slots bounds in-flight (unacknowledged) windows: the sender
	// acquires before TNegotiate, the receiver releases on TWindowAck.
	slots chan struct{}

	recvDone chan struct{}     // receiver exited
	info     wire.SnapshotInfo // TBackupDone payload, set before recvDone closes
	err      error             // receiver error (nil after TBackupDone), set before recvDone closes
}

// start resets the per-backup state and launches the receiver. The
// in-flight limit is the server's, clamped like the window size: it comes
// from the network and sizes the quiesce loop.
func (s *wireSink) start() {
	s.pending = make(map[uint32]*cwindow)
	s.seq = 0
	s.slots = make(chan struct{}, min(int(s.c.limits.MaxInflight), DefaultMaxInflight))
	s.recvDone = make(chan struct{})
	s.info, s.err = wire.SnapshotInfo{}, nil
	go s.recvLoop()
}

// acquire takes an in-flight slot, failing if the receiver has exited.
func (s *wireSink) acquire() error {
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-s.recvDone:
		if s.err != nil {
			return s.err
		}
		return errors.New("server: backup done before commit")
	}
}

// PutBatchOwned negotiates the pipeline's upload window in parts of at
// most the server's window size. It returns once every part is sent; the
// upload of the misses happens on the receiver.
func (s *wireSink) PutBatchOwned(chunks []dedup.PutChunk) ([]bool, error) {
	window := min(int(s.c.limits.WindowChunks), DefaultWindowChunks)
	for len(chunks) > 0 {
		part := chunks[:min(len(chunks), window)]
		chunks = chunks[len(part):]
		w := &cwindow{refs: make([]trace.ChunkRef, len(part)), cts: make([][]byte, len(part))}
		for i, ch := range part {
			w.refs[i] = trace.ChunkRef{FP: ch.FP, Size: uint32(len(ch.Data))}
			w.cts[i] = ch.Data
		}
		if err := s.acquire(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.pending[s.seq] = w
		s.mu.Unlock()
		s.negPay = wire.AppendNegotiate(s.negPay[:0], s.seq, w.refs)
		s.seq++
		if err := s.c.wc.Send(wire.TNegotiate, s.negPay); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// commit waits until every window is acknowledged, then commits the
// recipe and waits for the server's TBackupDone.
func (s *wireSink) commit(entries []mle.RecipeEntry) (wire.SnapshotInfo, error) {
	// Quiesce: once the sender holds every slot, every window is
	// acknowledged and the store holds all our chunks.
	for i := 0; i < cap(s.slots); i++ {
		if err := s.acquire(); err != nil {
			return wire.SnapshotInfo{}, err
		}
	}
	payload, err := wire.AppendCommit(nil, entries)
	if err != nil {
		return wire.SnapshotInfo{}, err
	}
	if err := s.c.wc.Send(wire.TBackupCommit, payload); err != nil {
		return wire.SnapshotInfo{}, err
	}
	<-s.recvDone
	return s.info, s.err
}

// recvLoop is Backup's receiver: it answers negotiate replies with the
// missed ciphertexts, retires acknowledged windows, and terminates on
// TBackupDone or any error. Every frame is untrusted: a reply or ack for
// a window that is unknown or in the wrong state ends the backup with a
// protocol error.
func (s *wireSink) recvLoop() {
	defer close(s.recvDone)
	var scratch []byte
	var miss []bool
	fail := func(err error) { s.err = err }
	for {
		typ, p, err := s.c.wc.Recv()
		if err != nil {
			fail(err)
			return
		}
		switch typ {
		case wire.TNegotiateReply:
			seq, m, err := wire.ParseNegotiateReply(p, miss)
			miss = m[:0]
			if err != nil {
				fail(err)
				return
			}
			s.mu.Lock()
			w := s.pending[seq]
			s.mu.Unlock()
			// cts is nil once the window's reply was answered.
			if w == nil || w.cts == nil || len(m) != len(w.refs) {
				fail(fmt.Errorf("server: negotiate reply for unknown or already answered window %d", seq))
				return
			}
			scratch = scratch[:0]
			var chunks [][]byte
			for i, missed := range m {
				if missed {
					chunks = append(chunks, w.cts[i])
				}
			}
			scratch = wire.AppendChunkData(scratch, seq, chunks)
			// The ciphertexts are dead after the frame is written: TCP
			// owns delivery, and a lost connection fails the whole backup.
			w.cts = nil
			if err := s.c.wc.Send(wire.TChunkData, scratch); err != nil {
				fail(err)
				return
			}
		case wire.TWindowAck:
			seq, err := wire.ParseSeq(p)
			if err != nil {
				fail(err)
				return
			}
			s.mu.Lock()
			w := s.pending[seq]
			delete(s.pending, seq)
			s.mu.Unlock()
			if w == nil || w.cts != nil {
				fail(fmt.Errorf("server: ack for unknown or unanswered window %d", seq))
				return
			}
			<-s.slots
		case wire.TBackupDone:
			info, err := wire.ParseSnapshotInfo(p)
			if err != nil {
				fail(err)
				return
			}
			s.info = info
			return
		case wire.TError:
			e, perr := wire.ParseError(p)
			if perr != nil {
				fail(perr)
			} else {
				fail(remoteError(e))
			}
			return
		default:
			fail(fmt.Errorf("server: unexpected frame type %d during backup", typ))
			return
		}
	}
}

// Backup runs the backup pipeline over src — chunk and convergently
// encrypt locally, exactly as dedup.Client.Backup — negotiates each
// window's fingerprints with the server, uploads only the chunks the
// shared store is missing, and commits the recipe, returning once the
// server acknowledges the snapshot durable. Windows pipeline: up to the
// server-advertised in-flight limit of windows may be unacknowledged at
// once, so encryption, negotiation, and upload overlap.
//
// Cancelling ctx abandons the session (the connection is closed and the
// server aborts: no snapshot appears). As with dedup.Client.Backup, if
// Backup returns an error the chunking goroutine may still be completing
// one in-flight read of src: do not reuse, reset, or close a
// non-thread-safe src immediately after a failed Backup.
func (c *Client) Backup(ctx context.Context, name string, src io.Reader) (wire.SnapshotInfo, error) {
	if err := c.begin(); err != nil {
		return wire.SnapshotInfo{}, err
	}
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		return wire.SnapshotInfo{}, err
	}
	ctxFired := c.watchCtx(ctx)
	info, broken, err := c.backup(ctx, payload, src)
	if ctxFired() {
		err = ctx.Err()
		broken = true
	} else if err == nil {
		// The deadline poison races the op only when ctx fired; clear any
		// leftover deadline state for the next operation.
		_ = c.nc.SetDeadline(time.Time{})
	}
	if broken && err != nil {
		c.markBroken()
	}
	return info, err
}

// backup is Backup's body; broken reports whether the session state is
// unrecoverable (mid-pipeline failure) as opposed to a clean rejection.
func (c *Client) backup(ctx context.Context, namePayload []byte, src io.Reader) (info wire.SnapshotInfo, broken bool, err error) {
	if err := c.wc.Send(wire.TBackupBegin, namePayload); err != nil {
		return wire.SnapshotInfo{}, true, err
	}
	if _, err := c.expect(wire.TBackupReady); err != nil {
		// A clean rejection (exists, shutdown) leaves the conn synced.
		var ei *wire.ErrorInfo
		clean := errors.Is(err, dedup.ErrSnapshotExists) || errors.As(err, &ei)
		return wire.SnapshotInfo{}, !clean, err
	}
	// From here on every failure is mid-pipeline: the receiver may have
	// frames in flight, so the session cannot be reused.
	c.sink.start()
	recipe, err := c.pipe.BackupContext(ctx, src)
	if err == nil {
		info, err = c.sink.commit(recipe.Entries)
	}
	if err != nil {
		// Unblock and collect the receiver before returning: closing the
		// conn ends it.
		c.nc.Close()
		<-c.sink.recvDone
		return wire.SnapshotInfo{}, true, err
	}
	return info, false, nil
}

// Restore streams the named snapshot's plaintext to w. Bytes written to w
// before a mid-stream error stay written (a strict prefix), matching the
// in-process Restore contract.
func (c *Client) Restore(ctx context.Context, name string, w io.Writer) error {
	if err := c.begin(); err != nil {
		return err
	}
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		return err
	}
	ctxFired := c.watchCtx(ctx)
	broken, err := c.restore(payload, w)
	if ctxFired() {
		err = ctx.Err()
		broken = true
	} else if err == nil {
		_ = c.nc.SetDeadline(time.Time{})
	}
	if broken && err != nil {
		c.markBroken()
	}
	return err
}

func (c *Client) restore(reqPayload []byte, w io.Writer) (broken bool, err error) {
	if err := c.wc.Send(wire.TRestoreReq, reqPayload); err != nil {
		return true, err
	}
	var total uint64
	for {
		typ, p, rerr := c.wc.Recv()
		if rerr != nil {
			return true, rerr
		}
		switch typ {
		case wire.TRestoreData:
			total += uint64(len(p))
			if _, werr := w.Write(p); werr != nil {
				// The local sink failed mid-stream; the conn still has
				// frames in flight we will not consume.
				return true, werr
			}
		case wire.TRestoreEnd:
			want, perr := wire.ParseU64(p)
			if perr != nil {
				return true, perr
			}
			if want != total {
				return true, fmt.Errorf("server: restore length %d, server reported %d", total, want)
			}
			return false, nil
		case wire.TError:
			e, perr := wire.ParseError(p)
			if perr != nil {
				return true, perr
			}
			// The error frame terminates the stream cleanly; the session
			// stays usable.
			return false, remoteError(e)
		default:
			return true, fmt.Errorf("server: unexpected frame type %d during restore", typ)
		}
	}
}

// Snapshots lists the tenant's snapshots (tenant-relative names).
func (c *Client) Snapshots() ([]wire.SnapshotInfo, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	if err := c.wc.Send(wire.TSnapshotsReq, nil); err != nil {
		c.markBroken()
		return nil, err
	}
	p, err := c.expect(wire.TSnapshotsReply)
	if err != nil {
		if !isRemote(err) {
			c.markBroken()
		}
		return nil, err
	}
	return wire.ParseSnapshotList(p)
}

// Delete removes the tenant's named snapshot durably.
func (c *Client) Delete(name string) error {
	if err := c.begin(); err != nil {
		return err
	}
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		return err
	}
	if err := c.wc.Send(wire.TDeleteReq, payload); err != nil {
		c.markBroken()
		return err
	}
	if _, err := c.expect(wire.TDeleteOK); err != nil {
		if !isRemote(err) {
			c.markBroken()
		}
		return err
	}
	return nil
}

// Stats reports the tenant's server-side accounting.
func (c *Client) Stats() (wire.TenantUsage, error) {
	if err := c.begin(); err != nil {
		return wire.TenantUsage{}, err
	}
	if err := c.wc.Send(wire.TStatsReq, nil); err != nil {
		c.markBroken()
		return wire.TenantUsage{}, err
	}
	p, err := c.expect(wire.TStatsReply)
	if err != nil {
		if !isRemote(err) {
			c.markBroken()
		}
		return wire.TenantUsage{}, err
	}
	return wire.ParseTenantUsage(p)
}

// isRemote reports whether err is a server-reported (clean) error rather
// than a transport/protocol failure.
func isRemote(err error) bool {
	var ei *wire.ErrorInfo
	return errors.As(err, &ei) ||
		errors.Is(err, dedup.ErrSnapshotNotFound) ||
		errors.Is(err, dedup.ErrSnapshotExists)
}
