// Command perfbench is the repository benchmark. It launches the gpufreqd
// binaries built from the checkout, drives them over loopback from this one
// client process, checks every answer against computations made here, and
// prints one JSON result line. With -trace 1 it instead replays the
// workload's generated inputs in-process, timing each layer's public
// functions, and prints the per-layer metrics. See README.md.
//
// Usage (from the repository root; perfbench/run.sh builds and calls it):
//
//	perfbench -workload serve-known -seed 1 -seconds 10 -trace 0
//	perfbench -repeat 10 -sets 2 -seconds 10    # interleaved runs, spreads, shifts
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// device is the GPU profile every workload serves.
const device = "titanx"

// env is what one run needs from its surroundings.
type env struct {
	bin      string // directory holding the gpufreqd and gpufreq binaries
	work     string // scratch directory of this run (inside the checkout)
	snapshot string // the published serve snapshot (model directory)
	seed     int64
	seconds  float64
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one run's accounting: operations attempted and failed,
// failed output checks, and metrics.
type run struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// set records a metric.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		}
		return false
	}
	return true
}

// check records a failed output check; it returns ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		if len(r.problems) < 20 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		}
		r.problems = append(r.problems, msg)
	}
	return ok
}

// workload is one benchmark workload: its untraced run, and which /select
// stream its traced run replays.
type workload struct {
	name        string
	run         func(e *env, r *run) error
	novelTraced bool
}

var workloads = []workload{
	{"serve-known", runServeKnown, false},
	{"serve-novel", runServeNovel, true},
	{"batch-novel", runBatchNovel, true},
	{"fleet-adapt", runFleetAdapt, false},
	{"fleet-budget", runFleetBudget, false},
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-known, serve-novel, batch-novel, fleet-adapt, fleet-budget")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phases")
	trace := flag.Int("trace", 0, "1 = traced in-process run printing the per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the gpufreqd and gpufreq binaries")
	work := flag.String("work", ".bench_build", "directory for snapshots, run scratch and spans")
	repeat := flag.Int("repeat", 0, "run every workload interleaved this many times per set and print medians, quartiles and spreads")
	sets := flag.Int("sets", 1, "with -repeat: number of sets of runs to compare")
	flag.Parse()

	if *repeat > 0 {
		if err := repeatMode(*repeat, *sets, *seed, *seconds, []string{"-bin", *bin, "-work", *work}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runOne(w, *bin, *work, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne prepares the snapshot and a scratch directory, runs the workload
// and removes the scratch directory.
func runOne(w *workload, bin, work string, seed int64, seconds float64, traced bool) (*result, error) {
	bin, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	snap, err := ensureSnapshot(bin, work)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{bin: bin, work: dir, snapshot: snap, seed: seed, seconds: seconds}
	r := newRun()
	if traced {
		err = traceWorkload(e, r, w.novelTraced)
	} else {
		err = w.run(e, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

// ensureSnapshot returns the serve snapshot's model directory, training
// and publishing it with `gpufreq save` (paper scale: 40 settings per
// micro-benchmark) when no snapshot exists for the code under test. The
// cache is keyed on the hash of the built gpufreq binary, so a build of
// other code (another commit, or edits to the training, feature or
// registry code) never serves a snapshot it did not train.
func ensureSnapshot(bin, work string) (string, error) {
	key, err := fileHash(filepath.Join(bin, "gpufreq"))
	if err != nil {
		return "", err
	}
	dir := filepath.Join(work, "snapshot-"+key)
	if _, err := os.Stat(filepath.Join(dir, device, "ACTIVE.json")); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "perfbench: training and publishing the serve snapshot for gpufreq %s\n", key)
	start := time.Now()
	cmd := exec.Command(filepath.Join(bin, "gpufreq"), "save", "-model-dir", tmp, "-device", device)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("gpufreq save: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: snapshot published in %.1f s\n", time.Since(start).Seconds())
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// fileHash returns the first 16 hex digits of the SHA-256 of a file.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// median returns the median of xs (0 for none).
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

// percentile returns the p-th percentile (0..100) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns Q1, median, Q3 as Python's statistics.quantiles(n=4)
// computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// tailLine describes a latency sample: median and the highest percentile
// with at least ten samples beyond it.
func tailLine(ms []float64) string {
	n := len(ms)
	switch {
	case n >= 10000:
		return fmt.Sprintf("p50 %.3f ms, p99.9 %.3f ms over %d", median(ms), percentile(ms, 99.9), n)
	case n >= 1000:
		return fmt.Sprintf("p50 %.3f ms, p99 %.3f ms over %d", median(ms), percentile(ms, 99), n)
	case n >= 100:
		return fmt.Sprintf("p50 %.3f ms, p90 %.3f ms over %d", median(ms), percentile(ms, 90), n)
	}
	return fmt.Sprintf("p50 %.3f ms over %d", median(ms), n)
}
