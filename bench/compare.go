package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root, which
// is the working directory under bench/run.sh and the parent one under
// `go run .` or `go test` in bench/.
func loadBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return bf, err
		}
		if err := json.Unmarshal(data, &bf); err != nil {
			return bf, fmt.Errorf("%s: %w", path, err)
		}
		return bf, nil
	}
	return bf, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// readRuns collects the result objects in a file: every line that is a
// JSON object with metrics, so whole benchmark logs may be passed.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			runs = append(runs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return runs, nil
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// side summarizes one metric over one file's runs.
type side struct {
	median, q1, q3, spread float64
	n                      int
}

func summarize(runs []result, name string) (side, bool) {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	if len(xs) == 0 {
		return side{}, false
	}
	q := quartiles(xs)
	med := median(xs)
	return side{median: med, q1: q[0], q3: q[2], spread: ratio(q[2]-q[0], math.Abs(med)), n: len(xs)}, true
}

// compareMain prints, for each metric, both sides' medians and quartiles
// and, for end-to-end metrics, whether B's median stays within A's bound.
// It exits 1 when one does not, or when B fails more operations than A.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2][]result
	for i, path := range args {
		if sides[i], err = readRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	failed := func(runs []result) (n int) {
		for _, r := range runs {
			n += r.Failed
		}
		return n
	}
	fa, fb := failed(sides[0]), failed(sides[1])
	fmt.Fprintf(w, "runs: A %d (%d failed ops), B %d (%d failed ops)\n", len(sides[0]), fa, len(sides[1]), fb)
	ok := fb <= fa
	fmt.Fprintf(w, "%-32s %12s %23s %7s %12s %23s %7s %8s  %s\n",
		"metric", "A median", "A [q1, q3]", "spread", "B median", "B [q1, q3]", "spread", "worse", "verdict")
	for _, m := range slices.Concat(bf.EndToEnd, bf.PerLayer) {
		a, okA := summarize(sides[0], m.Name)
		b, okB := summarize(sides[1], m.Name)
		if !okA || !okB {
			continue
		}
		worse := ratio(b.median-a.median, math.Abs(a.median))
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "-"
		if m.Bound != nil {
			verdict = "ok"
			if worse > *m.Bound {
				verdict = fmt.Sprintf("WORSE than bound %.0f%%", 100**m.Bound)
				ok = false
			}
			if a.spread > *m.Bound || b.spread > *m.Bound {
				verdict += ", spread above bound"
			}
		}
		fmt.Fprintf(w, "%-32s %12.5g [%10.5g, %10.5g] %6.1f%% %12.5g [%10.5g, %10.5g] %6.1f%% %7.1f%%  %s\n",
			m.Name, a.median, a.q1, a.q3, 100*a.spread, b.median, b.q1, b.q3, 100*b.spread, 100*worse, verdict)
	}
	if !ok {
		return 1
	}
	return 0
}
