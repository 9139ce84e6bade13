// Command perfbench is the repository's benchmark: file-backed
// backup/restore workloads driven end to end through the public API, with
// a separately traced run that breaks each phase into its layers. See
// README.md for the workloads, the metrics and how to read them.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload local-fileserver --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any output is incorrect.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"freqdedup"
)

// workload is one benchmark input set and the repository configuration it
// runs against.
type workload struct {
	name, why   string
	generator   string // registered generator (freqdedup.Workloads)
	streams     int    // concurrent streams: backup jobs or remote tenants
	generations int    // backups per stream
	mib         int    // initial backup size per stream, in MiB
	remote      bool
	defended    bool
}

var workloads = []*workload{
	{
		name:      "local-fileserver",
		why:       "the default user path: in-process convergent encryption with high inter-generation dedup",
		generator: "fileserver", streams: 1, generations: 6, mib: 8,
	},
	{
		name:      "remote-vmfarm",
		why:       "two tenants over loopback TCP: wire, negotiation and contended fsyncs on cloned images",
		generator: "vmfarm", streams: 2, generations: 6, mib: 8, remote: true,
	},
	{
		name:      "local-fileserver-defended",
		why:       "the paper's defense on local-fileserver's data: MinHash segment keys and scrambled upload order",
		generator: "fileserver", streams: 1, generations: 6, mib: 8, defended: true,
	},
}

// scrambleSeed fixes the defended workload's upload order, so that its
// inputs and stored bytes depend only on --seed.
const scrambleSeed = 0x5eed

// options returns the repository options of the workload: defaults, plus
// what the workload is defined by.
func (w *workload) options() []freqdedup.RepositoryOption {
	if w.remote {
		return nil
	}
	opts := []freqdedup.RepositoryOption{freqdedup.WithWorkers(runtime.GOMAXPROCS(0))}
	if w.defended {
		opts = append(opts,
			freqdedup.WithEncryption(freqdedup.EncMinHash),
			freqdedup.WithKeyDeriver(freqdedup.NewLocalDeriver([]byte("perfbench system secret"))),
			freqdedup.WithScramble(scrambleSeed))
	}
	return opts
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// flushPolicy states the durability settings every workload runs with.
const flushPolicy = "per-op fsync: every Backup syncs its containers and catalog before it returns (group commit off); " +
	"map fingerprint index; Rabin chunking; restore cache 0 containers"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	mib      int    // overrides the workload's size when positive
	out      string // build and scratch directory
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced breakdown instead of the end-to-end measurement")
	flag.IntVar(&cfg.mib, "mib", 0, "initial backup size per stream in MiB (0 keeps the workload's)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for temporary repositories and span files")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and writes its report to out, the
// result object last.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	mib := w.mib
	if cfg.mib > 0 {
		mib = cfg.mib
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	e := &env{w: w, seed: cfg.seed, mib: mib, workDir: workDir}
	if cfg.trace {
		e.tr = newTracer()
	}

	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d go=%s %s/%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "flush policy: %s\n", flushPolicy)
	fmt.Fprintf(out, "load: %d closed-loop stream(s) x %d generations, %s generator, %d MiB initial backup per stream\n",
		w.streams, w.generations, w.generator, mib)

	// Rounds run while the next one is expected to end within the
	// measuring time, and at least minRounds of them. Round 0 warms the
	// process up (heap growth, first page faults) and is checked but not
	// measured. A traced run alternates traced and untraced rounds, so
	// that the tracing overhead is measured within the run.
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	minRounds := 2
	if cfg.trace {
		minRounds = 3
	}
	var rounds []*round
	var longest time.Duration
	for len(rounds) < minRounds || time.Now().Add(longest).Before(deadline) {
		t := time.Now()
		i := len(rounds)
		r, err := e.runRound(ctx, i%datasets, cfg.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
		rounds = append(rounds, r)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	first := rounds[0]
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		mb := float64(r.logical) / 1e6
		fmt.Fprintf(out, "round %d: set=%d traced=%v setup_s=%.4f backup_MBps=%.2f restore_MBps=%.2f backup_cpu_s=%.3f restore_cpu_s=%.3f alloc_B_per_B=%.2f steal=%.3f/%.3f/%.3f\n",
			i, r.set, r.traced, r.setup, mb/r.backup.net(), mb/r.restore.net(), r.backup.cpu, r.restore.cpu,
			float64(r.backup.alloc+r.restore.alloc)/float64(r.logical),
			r.setupSteal, r.backup.host.stealFrac(), r.restore.host.stealFrac())
		for _, p := range r.problems {
			fmt.Fprintf(out, "FAIL round %d: %s\n", i, p)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	// The seed alone determines the inputs: set 0, generated again, must
	// equal what round 0 backed up.
	again, err := generate(w, cfg.seed, 0, mib)
	if err != nil {
		return nil, err
	}
	if again.digest() != first.digest {
		fmt.Fprintln(out, "FAIL: input set 0 generated twice from one seed differs")
		res.Correct = false
	}
	fmt.Fprintf(out, "inputs: set=0 sha256=%x logical_bytes=%d\n", first.digest, first.logical)
	fmt.Fprintf(out, "counts: set=0 %s\n", first.counts())
	fmt.Fprintf(out, "ops: attempted=%d failed=%d failed_op_frac=%g rounds=%d\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(rounds))

	measured := rounds[1:]
	if cfg.trace {
		lm, err := e.layerMetrics(measured, again, out)
		if err != nil {
			return nil, err
		}
		res.Metrics = lm
		spans := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := e.tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(e.tr.spans), spans)
	} else {
		res.Metrics = endToEnd(measured)
	}
	printMetrics(out, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// endToEnd computes the end-to-end metrics over the measured rounds. Rates
// and per-byte costs are ratios of sums, that is, over all the rounds' work
// taken together: the container layout, and with it the restore cost,
// varies from round to round with how concurrent commits interleave, and
// a median would jump between such modes. Set-up time is the median of the
// rounds' set-ups. Wall times are net of hypervisor steal (netWall).
func endToEnd(rounds []*round) map[string]metric {
	var mb, bWall, rWall, bCPU, rCPU, alloc, stored, logical float64
	var setup []float64
	for _, r := range rounds {
		mb += float64(r.logical) / 1e6
		logical += float64(r.logical)
		bWall += r.backup.net()
		rWall += r.restore.net()
		bCPU += r.backup.cpu
		rCPU += r.restore.cpu
		alloc += float64(r.backup.alloc + r.restore.alloc)
		stored += float64(r.stored)
		setup = append(setup, r.setup)
	}
	return map[string]metric{
		"backup_MBps":           {mb / bWall, "MB/s"},
		"restore_MBps":          {mb / rWall, "MB/s"},
		"backup_cpu_ms_per_MB":  {1000 * bCPU / mb, "ms/MB"},
		"restore_cpu_ms_per_MB": {1000 * rCPU / mb, "ms/MB"},
		"stored_B_per_B":        {stored / logical, "B/B"},
		"alloc_B_per_B":         {alloc / logical, "B/B"},
		"setup_s":               {median(setup), "s"},
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-44s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
