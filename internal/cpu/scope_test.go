package cpu

import "testing"

func newScopeForTest(fsb, fss, mt int) (*scopeHW, *Stats) {
	cfg := DefaultConfig()
	cfg.FSBEntries = fsb
	cfg.FSSEntries = fss
	cfg.MapEntries = mt
	stats := &Stats{}
	return newScopeHW(&cfg, stats), stats
}

func TestScopeNestedMask(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 4)
	if s.currentMask() != 0 {
		t.Fatal("fresh scope has non-empty mask")
	}
	s.fsStart(10, true)
	outer := s.currentMask()
	if outer == 0 {
		t.Fatal("outer scope not reflected in mask")
	}
	s.fsStart(20, true)
	inner := s.currentMask()
	if inner&outer != outer {
		t.Error("inner scope mask must include outer scope bit")
	}
	if inner == outer {
		t.Error("inner scope should add a distinct bit")
	}
	s.fsEnd(true)
	if s.currentMask() != outer {
		t.Error("fs_end did not restore outer mask")
	}
	s.fsEnd(true)
	if s.currentMask() != 0 {
		t.Error("fs_end did not empty mask")
	}
}

func TestScopeSameCIDReusesEntry(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 4)
	s.fsStart(10, true)
	m1 := s.currentMask()
	s.fsEnd(true)
	s.fsStart(10, true)
	if s.currentMask() != m1 {
		t.Error("same cid should map to the same FSB entry")
	}
}

func TestScopeFenceClassEntryTracksTop(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 4)
	if _, full := s.fenceClassEntry(); !full {
		t.Error("class fence outside any scope must behave as full fence")
	}
	s.fsStart(1, true)
	e1, full := s.fenceClassEntry()
	if full {
		t.Fatal("unexpected full-fence demotion")
	}
	s.fsStart(2, true)
	e2, _ := s.fenceClassEntry()
	if e1 == e2 {
		t.Error("nested scope should present a different top entry")
	}
	s.fsEnd(true)
	top, _ := s.fenceClassEntry()
	if top != e1 {
		t.Error("fs_end did not restore the outer top entry")
	}
}

func TestScopeEntrySharingWhenFSBExhausted(t *testing.T) {
	// 3 FSB entries: 2 class + 1 reserved set entry. Opening 3 distinct
	// scopes forces sharing, never the reserved set entry.
	s, stats := newScopeForTest(3, 8, 8)
	s.fsStart(1, true)
	s.fsStart(2, true)
	s.fsStart(3, true)
	if stats.ScopeShared == 0 {
		t.Error("exhausted FSB should record sharing")
	}
	if s.currentMask()&s.setBit() != 0 {
		t.Error("class scope leaked into the reserved set-scope entry")
	}
}

func TestScopeOverflowCounterFullFenceFallback(t *testing.T) {
	s, stats := newScopeForTest(4, 2, 8) // FSS depth 2
	s.fsStart(1, true)
	s.fsStart(2, true)
	s.fsStart(3, true) // FSS full -> overflow counter
	if stats.ScopeOverflow == 0 {
		t.Fatal("FSS overflow not recorded")
	}
	if _, full := s.fenceClassEntry(); !full {
		t.Error("fence during overflow must be full")
	}
	s.fsEnd(true) // drains the counter, not the stack
	if _, full := s.fenceClassEntry(); full {
		t.Error("fence after overflow drained should be scoped again")
	}
	if len(s.fss) != 2 {
		t.Errorf("FSS depth = %d, want 2", len(s.fss))
	}
}

func TestScopeMappingTableFullOverflow(t *testing.T) {
	s, stats := newScopeForTest(8, 8, 2) // tiny mapping table
	s.fsStart(1, true)
	s.fsStart(2, true)
	s.fsStart(3, true) // no free MT slot
	if stats.ScopeOverflow == 0 {
		t.Error("MT overflow not recorded")
	}
	if _, full := s.fenceClassEntry(); !full {
		t.Error("fence during MT overflow must be full")
	}
}

func TestScopeMappingReleasedWhenIdle(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 2)
	s.fsStart(1, true)
	s.fsEnd(true)
	s.fsStart(2, true)
	s.fsEnd(true)
	// Both mappings idle (no outstanding accesses, off the stack):
	// a third scope must not overflow.
	s.fsStart(3, true)
	if _, full := s.fenceClassEntry(); full {
		t.Error("idle mappings were not released")
	}
}

func TestScopeMappingPinnedByOutstandingAccesses(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 1)
	s.fsStart(1, true)
	e, _ := s.fenceClassEntry()
	s.robCnt[e]++ // an in-flight access in scope 1
	s.fsEnd(true)
	// Scope 1's mapping must survive (outstanding access), so with a
	// 1-entry MT the next fs_start overflows.
	s.fsStart(2, true)
	if _, full := s.fenceClassEntry(); !full {
		t.Error("mapping with outstanding accesses was released prematurely")
	}
}

func TestScopeFsEndOnEmptyStackIgnored(t *testing.T) {
	s, stats := newScopeForTest(4, 4, 4)
	s.fsEnd(true)
	if stats.FSEndIgnored != 1 {
		t.Error("unmatched fs_end not recorded")
	}
}

func TestScopeSnapshotRestore(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 4)
	s.fsStart(1, true)
	var snap fssSnapshot
	s.snapshotInto(&snap)
	s.fsStart(2, true)
	s.fsStart(3, true)
	s.restoreSnapshot(&snap)
	if len(s.fss) != 1 {
		t.Errorf("restored FSS depth = %d, want 1", len(s.fss))
	}
	e, full := s.fenceClassEntry()
	if full {
		t.Fatal("unexpected full fence after restore")
	}
	if got := s.currentMask(); got != 1<<e {
		t.Errorf("mask after restore = %b", got)
	}
}

func TestScopeShadowRecoveryExact(t *testing.T) {
	// Shadow kept in sync (no unconfirmed branches): recovery is exact.
	s, _ := newScopeForTest(4, 4, 4)
	s.fsStart(1, true)
	s.fsStart(2, false) // decoded under an unconfirmed branch
	s.restoreShadow()
	if len(s.fss) != 1 {
		t.Errorf("shadow recovery FSS depth = %d, want 1", len(s.fss))
	}
	if !s.forceFull {
		t.Error("lagging shadow must engage the full-fence guard")
	}
	// Guard clears once the stack drains.
	s.fsEnd(true)
	s.drainGuard()
	if s.forceFull {
		t.Error("full-fence guard not cleared after drain")
	}
}

func TestScopeShadowNoLagNoGuard(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 4)
	s.fsStart(1, true)
	s.fsStart(2, true)
	s.restoreShadow()
	if s.forceFull {
		t.Error("in-sync shadow must not engage the guard")
	}
	if len(s.fss) != 2 {
		t.Errorf("FSS depth = %d, want 2", len(s.fss))
	}
}

func TestScopeSetEntryReserved(t *testing.T) {
	s, _ := newScopeForTest(4, 4, 4)
	if s.setEntry() != 3 {
		t.Errorf("set entry = %d, want 3", s.setEntry())
	}
	if s.setBit() != 8 {
		t.Errorf("set bit = %b, want 1000", s.setBit())
	}
	if s.classEntries() != 3 {
		t.Errorf("class entries = %d, want 3", s.classEntries())
	}
}

func TestScopeDeepNestingDistinctEntriesThenShared(t *testing.T) {
	s, _ := newScopeForTest(4, 8, 8)
	seen := map[uint8]bool{}
	for cid := int64(1); cid <= 3; cid++ {
		s.fsStart(cid, true)
		e, full := s.fenceClassEntry()
		if full {
			t.Fatalf("unexpected overflow at cid %d", cid)
		}
		seen[e] = true
	}
	if len(seen) != 3 {
		t.Errorf("3 nested scopes used %d distinct entries, want 3", len(seen))
	}
}
