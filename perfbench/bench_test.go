package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json this test checks the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at 1 MiB per stream for the minimum number of
// rounds and returns its result and full output.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		workload: workload, seed: seed, seconds: 0.001, trace: trace, mib: 1, out: t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	return &last, out.String()
}

// line returns the output line starting with prefix.
func line(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return ""
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		res, _ := tinyRun(t, w.Name, 1, false)
		checkMetrics(t, w.Name, res.Metrics, s.EndToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
		res, _ = tinyRun(t, w.Name, 1, true)
		checkMetrics(t, w.Name, res.Metrics, s.PerLayer)
	}
}

func TestSeedDeterminesInputsAndCounts(t *testing.T) {
	for _, w := range workloads {
		_, a := tinyRun(t, w.name, 7, false)
		_, b := tinyRun(t, w.name, 7, false)
		_, c := tinyRun(t, w.name, 8, false)
		if x, y := line(t, a, "inputs:"), line(t, b, "inputs:"); x != y {
			t.Errorf("%s: same seed, different inputs: %q vs %q", w.name, x, y)
		}
		if x, y := line(t, a, "counts:"), line(t, b, "counts:"); x != y {
			t.Errorf("%s: same seed, different counts: %q vs %q", w.name, x, y)
		}
		if x, y := line(t, a, "inputs:"), line(t, c, "inputs:"); x == y {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs %q", w.name, x)
		}
	}
}

func TestSinkRejectsOverlongRestore(t *testing.T) {
	s := &sink{limit: 4}
	if _, err := s.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("e")); err == nil {
		t.Fatal("write past the expected size succeeded")
	}
}

func TestNetWallSubtractsStolenShare(t *testing.T) {
	if got := netWall(2, hostCPU{}); got != 2 {
		t.Errorf("no host figures: netWall = %v, want the wall time 2", got)
	}
	if got := netWall(2, hostCPU{busy: 90, steal: 10}); got != 1.8 {
		t.Errorf("10%% stolen: netWall = %v, want 1.8", got)
	}
	if got := (hostCPU{busy: 10, steal: 5}).minus(hostCPU{busy: 4, steal: 2}); got != (hostCPU{busy: 6, steal: 3}) {
		t.Errorf("minus = %+v", got)
	}
}
