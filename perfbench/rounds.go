package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"freqdedup"
)

// phase is the cost of one timed phase.
type phase struct {
	wall, cpu float64 // seconds
	alloc     uint64  // heap bytes allocated
	gcCycles  uint32
	gcPauseNs uint64
	gcCPU     float64 // the runtime's estimate of GC CPU seconds
	host      hostCPU // the machine's CPU time over the phase
}

// net is the phase's wall time less what the hypervisor stole.
func (p phase) net() float64 { return netWall(p.wall, p.host) }

// meter brackets a timed phase. Its snapshots stop the world briefly, once
// at each end of the phase.
type meter struct {
	t     time.Time
	cpu   float64
	ms    runtime.MemStats
	gcCPU float64
	host  hostCPU
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostCPU is the machine's CPU time from /proc/stat, in clock ticks: the
// time its CPUs were busy, and the time the hypervisor ran other guests
// while one of them had work (steal).
type hostCPU struct{ busy, steal float64 }

// readHostCPU returns zeros where /proc/stat cannot be read; no time then
// counts as stolen.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	// user nice system idle iowait irq softirq steal
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

func (h hostCPU) minus(o hostCPU) hostCPU { return hostCPU{h.busy - o.busy, h.steal - o.steal} }

// stealFrac is the share of the CPU time the machine had work for that the
// hypervisor gave to other guests instead.
func (h hostCPU) stealFrac() float64 {
	if h.steal <= 0 || h.busy+h.steal <= 0 {
		return 0
	}
	return h.steal / (h.busy + h.steal)
}

// netWall is wall seconds less the share of them the hypervisor stole. On a
// shared host that share swings from run to run by more than the program's
// own cost does; without steal, netWall is the wall time.
func netWall(wall float64, h hostCPU) float64 { return wall * (1 - h.stealFrac()) }

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// startMeter collects the garbage of set-up first, so that a phase does not
// pay for collecting what the benchmark itself allocated.
func startMeter() meter {
	runtime.GC()
	m := meter{}
	runtime.ReadMemStats(&m.ms)
	m.gcCPU = gcCPUSeconds()
	m.host = readHostCPU()
	m.cpu = processCPU()
	m.t = time.Now()
	return m
}

func (m meter) stop() phase {
	wall := time.Since(m.t).Seconds()
	cpu := processCPU() - m.cpu
	host := readHostCPU().minus(m.host)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{
		wall:      wall,
		cpu:       cpu,
		alloc:     ms.TotalAlloc - m.ms.TotalAlloc,
		gcCycles:  ms.NumGC - m.ms.NumGC,
		gcPauseNs: ms.PauseTotalNs - m.ms.PauseTotalNs,
		gcCPU:     gcCPUSeconds() - m.gcCPU,
		host:      host,
	}
}

// round is one fresh repository taken through set-up, the backup phase and
// the restore phase.
type round struct {
	set             int // input set
	digest          [sha256.Size]byte
	traced          bool
	setup           float64 // seconds, net of steal
	setupSteal      float64 // share of the set-up's CPU time stolen
	backup, restore phase
	openS           float64 // cold OpenRepository (plus server start and dials, remote)
	logical         int64
	chunks          int   // logical chunks over all snapshots
	stored          int64 // repository bytes on disk after the backup phase
	stats           freqdedup.DedupStats
	attempted       int
	failed          int
	problems        []string
	fs              *tracedFS
	io              [2]ioSnap     // file-system traffic of the backup and restore phase
	wire            [2]*wireStats // backup and restore phase; remote only
}

// ioMark returns the traced file system's counters, or zeros untraced.
func (r *round) ioMark() ioSnap {
	if r.fs == nil {
		return ioSnap{}
	}
	return r.fs.snapshot()
}

// counts formats the counts that depend only on the seed and the input set:
// chunks over all snapshots, unique chunks stored and their ciphertext bytes.
func (r *round) counts() string {
	return fmt.Sprintf("logical_chunks=%d unique_chunks=%d stored_bytes=%d",
		r.chunks, r.stats.UniqueChunks, r.stats.PhysicalBytes)
}

func (r *round) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// env is what every round of a run shares.
type env struct {
	w       *workload
	seed    int64
	mib     int
	workDir string
	sinks   sinks
	tr      *tracer
}

// runRound sets up a fresh repository, backs up every stream's generations
// in order, verifies the repository, reopens it cold and restores every
// snapshot, checking each against its generated image. traced selects the
// instrumented file system and listener; the end-to-end figures of a run
// come only from untraced rounds.
func (e *env) runRound(ctx context.Context, set int, traced bool) (*round, error) {
	r := &round{set: set, traced: traced}
	var tr *tracer
	if traced {
		tr = e.tr
		r.fs = newTracedFS(tr)
		tr.trace.Add(1)
	}
	roundSpan := tr.start("round", 0)
	setupSpan := tr.start("setup", roundSpan.id)

	h0 := readHostCPU()
	t0 := time.Now()
	in, err := generate(e.w, e.seed, set, e.mib)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "repo-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := e.w.options()
	if traced {
		opts = append(opts, freqdedup.WithFileSystem(r.fs))
	}
	repo, err := freqdedup.CreateRepository(dir, opts...)
	if err != nil {
		return nil, err
	}
	var rem *remote
	if e.w.remote {
		if rem, err = startRemote(repo, len(in.streams), r, tr, 0); err != nil {
			repo.Close()
			return nil, err
		}
	}
	h := readHostCPU().minus(h0)
	r.setup, r.setupSteal = netWall(time.Since(t0).Seconds(), h), h.stealFrac()
	tr.end(setupSpan, 0)

	r.digest = in.digest()
	e.sinks.fit(in)
	r.logical = in.logical

	// Backup phase: each stream backs up its generations in order, each
	// one closed-loop; streams run concurrently.
	bspan := tr.start("backup", roundSpan.id)
	if tr != nil {
		tr.phase.Store(bspan.id)
	}
	io0 := r.ioMark()
	m := startMeter()
	e.forEachStream(in, func(c int, s stream) []error {
		errs := make([]error, len(s.images))
		for g, im := range s.images {
			op := tr.start("op.backup", bspan.id)
			if rem != nil {
				_, errs[g] = rem.clients[c].Backup(ctx, im.name, bytes.NewReader(im.data))
			} else {
				_, errs[g] = repo.Backup(ctx, im.name, bytes.NewReader(im.data))
			}
			tr.end(op, int64(len(im.data)))
		}
		return errs
	}, r, "backup")
	r.backup = m.stop()
	r.io[0] = r.ioMark().minus(io0)
	tr.end(bspan, in.logical)

	// Between the phases, untimed: stop serving, measure, verify, close.
	if rem != nil {
		if err := rem.stop(); err != nil {
			r.problems = append(r.problems, "stop server: "+err.Error())
		}
	}
	r.stats = repo.Stats()
	for _, snap := range repo.Snapshots() {
		r.chunks += snap.Chunks
	}
	if r.stored, err = dirBytes(dir); err != nil {
		repo.Close()
		return nil, err
	}
	if err := repo.Verify(ctx); err != nil {
		r.problems = append(r.problems, "verify: "+err.Error())
	}
	if err := repo.Close(); err != nil {
		return nil, err
	}

	// Restore phase: a cold open, then every snapshot restored.
	rspan := tr.start("restore", roundSpan.id)
	if tr != nil {
		tr.phase.Store(rspan.id)
	}
	io0 = r.ioMark()
	m = startMeter()
	ospan := tr.start("op.open", rspan.id)
	t := time.Now()
	repo, err = freqdedup.OpenRepository(dir, opts...)
	if err == nil && e.w.remote {
		rem, err = startRemote(repo, len(in.streams), r, tr, 1)
		if err != nil {
			repo.Close()
		}
	}
	r.openS = time.Since(t).Seconds()
	tr.end(ospan, 0)
	r.op("open", err)
	if err == nil {
		for c := range e.sinks {
			for _, sk := range e.sinks[c] {
				sk.buf = sk.buf[:0]
			}
		}
		e.forEachStream(in, func(c int, s stream) []error {
			errs := make([]error, len(s.images))
			for g, im := range s.images {
				op := tr.start("op.restore", rspan.id)
				if rem != nil {
					errs[g] = rem.clients[c].Restore(ctx, im.name, e.sinks[c][g])
				} else {
					errs[g] = repo.Restore(ctx, im.name, e.sinks[c][g])
				}
				tr.end(op, int64(len(im.data)))
			}
			return errs
		}, r, "restore")
	}
	r.restore = m.stop()
	r.io[1] = r.ioMark().minus(io0)
	tr.end(rspan, in.logical)
	if tr != nil {
		tr.phase.Store(roundSpan.id)
	}
	if err == nil {
		if rem != nil {
			if err := rem.stop(); err != nil {
				r.problems = append(r.problems, "stop server: "+err.Error())
			}
		}
		if err := repo.Close(); err != nil {
			r.problems = append(r.problems, "close: "+err.Error())
		}
		// Every restore is hashed against its generated image, outside
		// the timed phase; a mismatch fails that restore op.
		for c, s := range in.streams {
			for g, im := range s.images {
				if sha256.Sum256(e.sinks[c][g].buf) != im.sum {
					r.failed++
					r.problems = append(r.problems, fmt.Sprintf("restore %s/%s: SHA-256 differs from the generated image", s.tenant, im.name))
				}
			}
		}
	}
	tr.end(roundSpan, 0)
	return r, nil
}

// forEachStream runs fn for every stream, concurrently when there are
// several, and records each returned error as one op.
func (e *env) forEachStream(in *inputs, fn func(c int, s stream) []error, r *round, what string) {
	results := make([][]error, len(in.streams))
	var wg sync.WaitGroup
	for c, s := range in.streams {
		c, s := c, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = fn(c, s)
		}()
	}
	wg.Wait()
	for c, errs := range results {
		for g, err := range errs {
			r.op(fmt.Sprintf("%s %s/%s", what, in.streams[c].tenant, in.streams[c].images[g].name), err)
		}
	}
}

// remote is a RepoServer on loopback TCP with one client connection per
// tenant.
type remote struct {
	srv     *freqdedup.RepoServer
	served  chan error
	clients []*freqdedup.RemoteClient
}

// startRemote serves repo on a loopback port and dials one client per
// tenant. In a traced round the listener is observed, with the statistics
// of phase p kept in r.wire[p].
func startRemote(repo *freqdedup.Repository, tenants int, r *round, tr *tracer, p int) (*remote, error) {
	srv, err := freqdedup.NewRepositoryServer(repo, freqdedup.ServerConfig{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	if r.traced {
		r.wire[p] = &wireStats{tr: tr}
		ln = &tracedListener{Listener: ln, ws: r.wire[p]}
	}
	rem := &remote{srv: srv, served: make(chan error, 1)}
	go func() { rem.served <- srv.Serve(ln) }()
	for c := 0; c < tenants; c++ {
		cl, err := freqdedup.DialServer(ln.Addr().String(), freqdedup.RemoteClientConfig{
			Tenant:  fmt.Sprintf("tenant%d", c),
			Workers: 1,
		})
		if err != nil {
			rem.stop()
			return nil, err
		}
		rem.clients = append(rem.clients, cl)
	}
	return rem, nil
}

// stop closes the clients and the server and waits for Serve to return.
func (rem *remote) stop() error {
	var errs []error
	for _, cl := range rem.clients {
		errs = append(errs, cl.Close())
	}
	errs = append(errs, rem.srv.Close(), <-rem.served)
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
