package results

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sfence/internal/stats"
)

// BaselineChange summarizes one generated file's drift against the
// committed baseline file of the same name.
type BaselineChange struct {
	// Artifact names the file: a BENCH_*.json artifact or EXPERIMENTS.md.
	Artifact string
	// Status is "unchanged", "changed", or "new" (no baseline file).
	Status string
	// Deltas lists the leaf-level value changes for a "changed" JSON
	// artifact: every numeric leaf of the JSON document, addressed by
	// path ("data.groups[0].bars[2].total"), diffed via
	// stats.Snapshot.Diff.
	Deltas []stats.Delta
	// Lines counts the differing lines of a "changed" EXPERIMENTS.md:
	// the larger of the lines a line diff removes and adds, so one
	// reworded sentence counts 1.
	Lines int
}

// DiffBaseline renders the suite's artifacts and EXPERIMENTS.md and
// compares each against the file already in dir — the committed
// baseline when dir is the repo root. Nothing is written; the result
// says exactly what a subsequent WriteArtifacts(dir) and EXPERIMENTS.md
// rewrite would change. Byte-identical files report "unchanged";
// otherwise two JSON documents are flattened into synthetic snapshots
// (one sample per numeric leaf) and diffed, and two EXPERIMENTS.md
// texts are diffed line by line.
func (s *Suite) DiffBaseline(dir string) ([]BaselineChange, error) {
	arts, err := s.Artifacts()
	if err != nil {
		return nil, err
	}
	arts = append(arts, Artifact{Name: "EXPERIMENTS.md", Data: []byte(s.ExperimentsMD())})
	out := make([]BaselineChange, 0, len(arts))
	for _, a := range arts {
		c := BaselineChange{Artifact: a.Name}
		old, err := os.ReadFile(filepath.Join(dir, a.Name))
		switch {
		case os.IsNotExist(err):
			c.Status = "new"
		case err != nil:
			return nil, fmt.Errorf("results: baseline %s: %w", a.Name, err)
		case string(old) == string(a.Data):
			c.Status = "unchanged"
		case filepath.Ext(a.Name) == ".md":
			c.Status = "changed"
			c.Lines = changedLines(old, a.Data)
		default:
			c.Status = "changed"
			c.Deltas = flattenJSON(a.Data).Diff(flattenJSON(old))
		}
		out = append(out, c)
	}
	return out, nil
}

// changedLines counts the lines that differ between two texts: the
// larger of the lines a line diff of before against after removes and adds,
// with the common lines found as their longest common subsequence.
func changedLines(before, after []byte) int {
	a := strings.Split(string(before), "\n")
	b := strings.Split(string(after), "\n")
	// lcs[j] is the common subsequence length of a[:i] and b[:j], row i
	// overwritten in place by row i+1.
	lcs := make([]int, len(b)+1)
	for i := range a {
		diag := 0
		for j := range b {
			up := lcs[j+1]
			if a[i] == b[j] {
				lcs[j+1] = diag + 1
			} else if lcs[j] > up {
				lcs[j+1] = lcs[j]
			}
			diag = up
		}
	}
	return max(len(a), len(b)) - lcs[len(b)]
}

// flattenJSON decodes a JSON document into a synthetic snapshot with one
// sample per numeric or boolean leaf, named by its path. Unparseable
// documents flatten to a single marker sample, so a corrupt baseline
// shows up as a wholesale change rather than an error.
func flattenJSON(data []byte) stats.Snapshot {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return stats.Snapshot{Samples: []stats.Sample{{Name: "(unparseable)", Kind: "text"}}}
	}
	var samples []stats.Sample
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				p := k
				if path != "" {
					p = path + "." + k
				}
				walk(p, x[k])
			}
		case []any:
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		case float64:
			if x == math.Trunc(x) && math.Abs(x) < 1e15 {
				samples = append(samples, stats.Sample{Name: path, Kind: "value", Value: int64(x)})
			} else {
				samples = append(samples, stats.Sample{Name: path, Kind: stats.KindFormula, Float: x})
			}
		case bool:
			var b int64
			if x {
				b = 1
			}
			samples = append(samples, stats.Sample{Name: path, Kind: "value", Value: b})
		}
	}
	walk("", doc)
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	return stats.Snapshot{Samples: samples}
}
