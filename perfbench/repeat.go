package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json repeat mode reads: each
// end-to-end metric's bound and direction.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// sample is one run's result in repeat mode.
type sample struct {
	set  int
	res  result
	wall time.Duration
}

// repeatMode runs every workload `rounds` times per set, sets
// times over, interleaved (the workload order rotates each round, and each
// run gets its own seed), and prints each end-to-end metric's median,
// quartiles and spread per set against the bound in BENCHMARK.json, the
// shift of the second set's median against the first, and the share of
// failed operations.
func repeatMode(rounds, sets int, seed int64, seconds float64, passThrough []string) error {
	var spec benchmarkSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := map[string][]sample{}
	n := 0
	for set := 0; set < sets; set++ {
		for round := 0; round < rounds; round++ {
			for j := range names {
				w := names[(j+round)%len(names)]
				s := seed + int64(set*rounds+round)
				args := append([]string{"-workload", w, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", "0"}, passThrough...)
				start := time.Now()
				res, err := runChild(self, args)
				n++
				wall := time.Since(start)
				if err != nil {
					// A run that produced no result counts as one failed
					// operation and an incorrect run.
					fmt.Fprintf(os.Stderr, "perfbench: run %d: %s seed %d set %d: no result: %v\n", n, w, s, set+1, err)
					res = result{Attempted: 1, Failed: 1}
				}
				fmt.Fprintf(os.Stderr, "perfbench: run %d: %s seed %d set %d: %.1f s, correct=%v attempted=%d failed=%d\n",
					n, w, s, set+1, wall.Seconds(), res.Correct, res.Attempted, res.Failed)
				runs[w] = append(runs[w], sample{set: set, res: res, wall: wall})
			}
		}
	}
	for _, w := range names {
		printWorkload(w, runs[w], sets, spec)
	}
	return nil
}

// runChild runs one benchmark run and parses its last output line.
func runChild(self string, args []string) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// printWorkload prints one workload's table.
func printWorkload(w string, ss []sample, sets int, spec benchmarkSpec) {
	fmt.Printf("\n%s\n", w)
	var walls []float64
	allCorrect := true
	failShares := make([]string, sets)
	for set := 0; set < sets; set++ {
		att, fail := 0, 0
		for _, s := range ss {
			if s.set == set {
				att += s.res.Attempted
				fail += s.res.Failed
				allCorrect = allCorrect && s.res.Correct
				walls = append(walls, s.wall.Seconds())
			}
		}
		failShares[set] = fmt.Sprintf("%d/%d", fail, att)
	}
	fmt.Printf("  runs %d, all correct %v, failed/attempted per set %s, wall per run median %.1f s max %.1f s\n",
		len(ss), allCorrect, strings.Join(failShares, " "), median(walls), maxOf(walls))
	names := map[string]bool{}
	for _, s := range ss {
		for m := range s.res.Metrics {
			names[m] = true
		}
	}
	var sorted []string
	for m := range names {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	fmt.Printf("  %-14s %-5s %12s %12s %12s %8s %7s %8s %s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "shift", "verdict")
	for _, m := range sorted {
		bound, better := math.NaN(), ""
		for _, e := range spec.EndToEnd {
			if e.Name == m {
				bound, better = e.Bound, e.Better
			}
		}
		var first float64
		for set := 0; set < sets; set++ {
			var vs []float64
			for _, s := range ss {
				if s.set == set {
					vs = append(vs, s.res.Metrics[m].Value)
				}
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / q2
			shift := 0.0
			if set == 0 {
				first = q2
			} else {
				shift = q2/first - 1
				if better == "higher" {
					shift = -shift
				}
			}
			verdict := ""
			if !math.IsNaN(bound) {
				switch {
				case m != "setup_s" && spread > bound:
					verdict = "SPREAD OVER BOUND"
				case shift > bound:
					verdict = "SHIFT OVER BOUND"
				case m != "setup_s" && spread > bound/3:
					verdict = "spread over a third of the bound"
				default:
					verdict = "ok"
				}
			}
			fmt.Printf("  %-14s %-5d %12.5g %12.5g %12.5g %7.2f%% %6.0f%% %+7.2f%% %s\n",
				m, set+1, q1, q2, q3, 100*spread, 100*bound, 100*shift, verdict)
		}
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
