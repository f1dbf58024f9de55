package results

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfence/internal/exp"
)

func TestFlattenJSONDiff(t *testing.T) {
	oldDoc := []byte(`{"schema":2,"data":[{"bench":"dekker","speedup":[1.5,2.0],"ops":64,"on":true}]}`)
	newDoc := []byte(`{"schema":2,"data":[{"bench":"dekker","speedup":[1.5,2.5],"ops":64,"on":false}]}`)
	ds := flattenJSON(newDoc).Diff(flattenJSON(oldDoc))
	if len(ds) != 2 {
		t.Fatalf("got %d deltas %v, want speedup[1] and on", len(ds), ds)
	}
	if ds[0].Name != "data[0].on" || ds[0].Old.Value != 1 || ds[0].New.Value != 0 {
		t.Errorf("delta 0 = %+v, want data[0].on 1 -> 0", ds[0])
	}
	// 2.0 is integral and flattens to a Value sample; 2.5 flattens to a
	// Float sample — the kind change alone marks the delta.
	if ds[1].Name != "data[0].speedup[1]" || ds[1].Old.Value != 2 || ds[1].New.Float != 2.5 {
		t.Errorf("delta 1 = %+v, want data[0].speedup[1] 2 -> 2.5", ds[1])
	}
}

func TestFlattenJSONIdenticalSemantics(t *testing.T) {
	// Formatting-only differences flatten to identical snapshots: the
	// change report shows zero value deltas even when bytes differ.
	a := []byte(`{"x": 1, "y": [2, 3]}`)
	b := []byte("{\n  \"y\": [2, 3],\n  \"x\": 1\n}")
	if ds := flattenJSON(a).Diff(flattenJSON(b)); len(ds) != 0 {
		t.Errorf("formatting-only difference produced deltas: %v", ds)
	}
}

func TestFlattenJSONUnparseable(t *testing.T) {
	ds := flattenJSON([]byte(`{"x":1}`)).Diff(flattenJSON([]byte(`not json`)))
	if len(ds) == 0 {
		t.Error("corrupt baseline vs valid document produced no deltas")
	}
}

// TestDiffBaselineExperimentsMD checks that EXPERIMENTS.md is compared
// with the artifacts: unchanged when byte-equal, one differing line when
// one sentence of the baseline was reworded, new when it is missing.
func TestDiffBaselineExperimentsMD(t *testing.T) {
	s := &Suite{Scale: exp.Quick}
	dir := t.TempDir()
	if _, err := s.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	md := filepath.Join(dir, "EXPERIMENTS.md")
	text := s.ExperimentsMD()
	status := func(want string, wantLines int) {
		t.Helper()
		changes, err := s.DiffBaseline(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range changes {
			if c.Artifact != "EXPERIMENTS.md" {
				if c.Status != "unchanged" {
					t.Errorf("%s: %s, want unchanged", c.Artifact, c.Status)
				}
				continue
			}
			if c.Status != want || c.Lines != wantLines {
				t.Errorf("EXPERIMENTS.md: %s with %d lines, want %s with %d", c.Status, c.Lines, want, wantLines)
			}
			return
		}
		t.Error("DiffBaseline did not compare EXPERIMENTS.md")
	}

	status("new", 0)
	if err := os.WriteFile(md, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	status("unchanged", 0)
	const sentence = "Regenerate this file and the `BENCH_*.json` artifacts with:"
	if !strings.Contains(text, sentence) {
		t.Fatalf("EXPERIMENTS.md lacks the sentence %q", sentence)
	}
	reworded := strings.Replace(text, sentence, "Regenerate everything with:", 1)
	if err := os.WriteFile(md, []byte(reworded), 0o644); err != nil {
		t.Fatal(err)
	}
	status("changed", 1)
}
