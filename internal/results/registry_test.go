package results

import (
	"errors"
	"slices"
	"testing"
)

// TestLookupExperimentAllocationFree pins that resolving an ID is a map
// lookup in the one registry, not a rebuild of every spec.
func TestLookupExperimentAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := LookupExperiment("stats"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("LookupExperiment makes %v allocations, want 0", allocs)
	}
}

// TestExperimentsReturnsCopy checks that the slices Experiments and
// ExperimentIDs return are the caller's: reordering and overwriting them
// changes neither later lookups nor later listings.
func TestExperimentsReturnsCopy(t *testing.T) {
	ids := ExperimentIDs()
	specs := Experiments()
	slices.Reverse(specs)
	specs[0] = ExperimentSpec{ID: "overwritten"}
	got := ExperimentIDs()
	got[1] = "overwritten"

	if again := ExperimentIDs(); !slices.Equal(again, ids) {
		t.Errorf("ExperimentIDs changed after callers edited returned slices:\n got %v\nwant %v", again, ids)
	}
	for i, s := range Experiments() {
		if s.ID != ids[i] {
			t.Errorf("Experiments()[%d] is %q, want %q", i, s.ID, ids[i])
		}
	}
	for _, id := range ids {
		s, err := LookupExperiment(id)
		if err != nil || s.ID != id {
			t.Errorf("LookupExperiment(%q) = %q, %v", id, s.ID, err)
		}
	}
	if _, err := LookupExperiment("overwritten"); err == nil {
		t.Error("an ID written into a returned slice resolves")
	}
}

// TestLookupExperimentUnknown checks the miss path: an
// *ErrUnknownExperiment naming the ID and listing all 20 registry IDs in
// registry order.
func TestLookupExperimentUnknown(t *testing.T) {
	_, err := LookupExperiment("fig99")
	var unknown *ErrUnknownExperiment
	if !errors.As(err, &unknown) {
		t.Fatalf("error is %T (%v), want *ErrUnknownExperiment", err, err)
	}
	if unknown.ID != "fig99" {
		t.Errorf("error carries ID %q, want fig99", unknown.ID)
	}
	if len(unknown.Valid) != 20 || !slices.Equal(unknown.Valid, ExperimentIDs()) {
		t.Errorf("error lists %d IDs %v, want the registry's 20", len(unknown.Valid), unknown.Valid)
	}
}
