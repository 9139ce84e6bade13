package server

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"freqdedup/internal/chunker"
	"freqdedup/internal/wire"
)

// hostileServer serves the server side of the protocol by hand on a
// loopback listener and returns its address. It advertises limits in
// THelloOK verbatim and, with dupReplies, answers every TNegotiate twice.
// Otherwise it behaves: every chunk is a miss, every TChunkData is
// acknowledged, and a commit is answered with TBackupDone.
func hostileServer(t *testing.T, limits wire.HelloOK, dupReplies bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveHostile(nc, limits, dupReplies)
		}
	}()
	return ln.Addr().String()
}

func serveHostile(nc net.Conn, limits wire.HelloOK, dupReplies bool) {
	defer nc.Close()
	wc := wire.NewConn(nc)
	if typ, _, err := wc.Recv(); err != nil || typ != wire.THello {
		return
	}
	if err := wc.Send(wire.THelloOK, wire.AppendHelloOK(nil, limits)); err != nil {
		return
	}
	for {
		typ, p, err := wc.Recv()
		if err != nil {
			return
		}
		switch typ {
		case wire.TBackupBegin:
			err = wc.Send(wire.TBackupReady, nil)
		case wire.TNegotiate:
			seq, refs, perr := wire.ParseNegotiate(p, nil)
			if perr != nil {
				return
			}
			miss := make([]bool, len(refs))
			for i := range miss {
				miss[i] = true
			}
			reply := wire.AppendNegotiateReply(nil, seq, miss)
			err = wc.Send(wire.TNegotiateReply, reply)
			if err == nil && dupReplies {
				err = wc.Send(wire.TNegotiateReply, reply)
			}
		case wire.TChunkData:
			seq, _, perr := wire.ParseChunkData(p, nil)
			if perr != nil {
				return
			}
			err = wc.Send(wire.TWindowAck, wire.AppendSeq(nil, seq))
		case wire.TBackupCommit:
			entries, perr := wire.ParseCommit(p)
			if perr != nil {
				return
			}
			info := wire.SnapshotInfo{Name: "b", Chunks: uint32(len(entries))}
			err = wc.Send(wire.TBackupDone, wire.AppendSnapshotInfo(nil, info))
		default:
			err = wc.Send(wire.TError, wire.AppendError(nil, wire.CodeProtocol, "unsupported"))
		}
		if err != nil {
			return
		}
	}
}

// TestHostileServer feeds the client limits and replies a well-behaved
// server never sends. Each must end in an error on the client — never a
// panic, a hang, or an unbounded loop — and a failed backup must mark the
// session broken and hand every pooled chunk buffer back.
func TestHostileServer(t *testing.T) {
	valid := wire.HelloOK{Version: wire.Version, WindowChunks: 64, MaxInflight: 2, MaxChunkBytes: DefaultMaxChunkBytes}
	with := func(edit func(*wire.HelloOK)) wire.HelloOK {
		h := valid
		edit(&h)
		return h
	}
	cases := []struct {
		name       string
		limits     wire.HelloOK
		dupReplies bool
		dialErr    string // substring of Dial's error; "" means Dial succeeds
		backupErr  string // substring of Backup's error; "" means Backup succeeds
	}{
		{name: "well-behaved", limits: valid},
		{name: "repeated-reply", limits: valid, dupReplies: true, backupErr: "already answered window"},
		{name: "zero-inflight", limits: with(func(h *wire.HelloOK) { h.MaxInflight = 0 }), dialErr: "must be positive"},
		{name: "zero-window", limits: with(func(h *wire.HelloOK) { h.WindowChunks = 0 }), dialErr: "must be positive"},
		{name: "huge-inflight", limits: with(func(h *wire.HelloOK) { h.MaxInflight = math.MaxUint32 })},
		{name: "huge-window", limits: with(func(h *wire.HelloOK) { h.WindowChunks = math.MaxUint32 })},
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := chunker.BufsOutstanding()
			addr := hostileServer(t, tc.limits, tc.dupReplies)
			c, err := Dial(addr, DialConfig{Tenant: "alice", DialTimeout: 10 * time.Second})
			if tc.dialErr != "" {
				if err == nil {
					c.Close()
					t.Fatalf("Dial accepted limits %+v", tc.limits)
				}
				if !strings.Contains(err.Error(), tc.dialErr) {
					t.Fatalf("Dial error = %v, want it to mention %q", err, tc.dialErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, err = c.Backup(ctx, "b", bytes.NewReader(data))
			if tc.backupErr == "" {
				if err != nil {
					t.Fatalf("Backup: %v", err)
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), tc.backupErr) {
					t.Fatalf("Backup error = %v, want it to mention %q", err, tc.backupErr)
				}
				if _, err := c.Snapshots(); err == nil || !strings.Contains(err.Error(), "broken") {
					t.Fatalf("session after a protocol failure: %v, want broken", err)
				}
			}
			// The pipeline's producer drains asynchronously after an error
			// return; wait for it to hand every pooled buffer back.
			deadline := time.Now().Add(10 * time.Second)
			for chunker.BufsOutstanding() != base {
				if time.Now().After(deadline) {
					t.Fatalf("pooled chunk buffers leaked: %d outstanding, baseline %d", chunker.BufsOutstanding(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestDialRejectsInvalidConfig checks that Dial refuses, before it
// connects, every configuration the backup pipeline (dedup.NewSinkClient)
// refuses, instead of silently falling back to other settings.
func TestDialRejectsInvalidConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gear := chunker.DefaultParams()
	gear.Algorithm = chunker.AlgoGear
	narrowGear := gear
	narrowGear.Min = chunker.GearWindow - 1
	cases := []struct {
		name string
		cfg  DialConfig
	}{
		{"negative-workers", DialConfig{Workers: -1}},
		{"negative-chunk-workers", DialConfig{ChunkWorkers: -1}},
		{"multi-stream-rabin", DialConfig{ChunkWorkers: 2}},
		{"multi-stream-gear-min-below-window", DialConfig{Chunking: narrowGear, ChunkWorkers: 2}},
		{"invalid-chunking", DialConfig{Chunking: chunker.Params{Min: 4096, Avg: 1024, Max: 8192}}},
	}
	for _, tc := range cases {
		tc.cfg.Tenant = "alice"
		tc.cfg.DialTimeout = 200 * time.Millisecond
		if c, err := Dial(ln.Addr().String(), tc.cfg); err == nil {
			c.Close()
			t.Errorf("%s: Dial accepted %+v", tc.name, tc.cfg)
		}
	}
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if nc, err := ln.Accept(); err == nil {
		nc.Close()
		t.Fatal("Dial connected before rejecting its configuration")
	}
}
