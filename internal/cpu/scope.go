package cpu

// scopeHW implements the paper's per-core fence-scoping hardware: the
// cid -> FSB-entry mapping table, the fence scope stack (FSS), its shadow
// copy (FSS'), and the overflow counter engaged when the mapping table or
// FSS is full.
//
// FSB entry indices partition as: entries [0, setEntry) hold class scopes;
// entry setEntry (the last one) is reserved for set-scope accesses, exactly
// as suggested in Section V of the paper.
type scopeHW struct {
	cfg *Config

	// mapping table: cid -> FSB entry, with a use flag per slot.
	mapCID   []int64
	mapEntry []uint8
	mapUsed  []bool

	fss    []uint8 // fence scope stack of FSB entry indices
	shadow []uint8 // FSS'

	// overflow counts fs_starts encountered while the MT/FSS was full;
	// while non-zero every fence behaves as a traditional full fence.
	overflow       int
	shadowOverflow int

	// shadowLag is set when a scope operation was not mirrored to FSS'
	// because an unconfirmed branch preceded it. After a recovery from a
	// lagging shadow, fences are forced global until the FSS drains (a
	// conservative guard the paper leaves implicit).
	shadowLag bool
	forceFull bool

	// outstanding access counters, split by residence, per FSB entry:
	// robCnt counts incomplete memory ops in the ROB carrying the bit;
	// robLoadCnt counts only incomplete loads/CAS (for load-load
	// fences); sbCnt counts store-buffer entries carrying the bit.
	robCnt     []int
	robLoadCnt []int
	sbCnt      []int

	stats *Stats
}

func newScopeHW(cfg *Config, stats *Stats) *scopeHW {
	return &scopeHW{
		cfg:        cfg,
		mapCID:     make([]int64, cfg.MapEntries),
		mapEntry:   make([]uint8, cfg.MapEntries),
		mapUsed:    make([]bool, cfg.MapEntries),
		fss:        make([]uint8, 0, cfg.FSSEntries),
		shadow:     make([]uint8, 0, cfg.FSSEntries),
		robCnt:     make([]int, cfg.FSBEntries),
		robLoadCnt: make([]int, cfg.FSBEntries),
		sbCnt:      make([]int, cfg.FSBEntries),
		stats:      stats,
	}
}

// setEntry returns the FSB entry index reserved for set scope.
func (s *scopeHW) setEntry() uint8 { return uint8(s.cfg.FSBEntries - 1) }

// setBit returns the FSB bitmask of the reserved set-scope entry.
func (s *scopeHW) setBit() uint8 { return 1 << s.setEntry() }

// classEntries returns how many FSB entries are available for class scopes.
func (s *scopeHW) classEntries() int { return s.cfg.FSBEntries - 1 }

// lookupMap returns the mapping-table slot for cid, or -1.
func (s *scopeHW) lookupMap(cid int64) int {
	for i := range s.mapCID {
		if s.mapUsed[i] && s.mapCID[i] == cid {
			return i
		}
	}
	return -1
}

// entryInUse reports whether FSB entry e is referenced by any live mapping
// or stack slot.
func (s *scopeHW) entryInUse(e uint8) bool {
	for i := range s.mapUsed {
		if s.mapUsed[i] && s.mapEntry[i] == e {
			return true
		}
	}
	for _, x := range s.fss {
		if x == e {
			return true
		}
	}
	return false
}

// freeEntry returns an unused class-scope FSB entry, or -1 if none.
func (s *scopeHW) freeEntry() int {
	for e := 0; e < s.classEntries(); e++ {
		if !s.entryInUse(uint8(e)) {
			return e
		}
	}
	return -1
}

// releaseIdleMappings invalidates mapping-table slots whose FSB entry has
// no outstanding accesses and is no longer on the FSS — the paper's "when
// bits in the same entry for all FSBs have been cleared, … invalidate the
// mapping information".
func (s *scopeHW) releaseIdleMappings() {
	for i := range s.mapUsed {
		if !s.mapUsed[i] {
			continue
		}
		e := s.mapEntry[i]
		if s.robCnt[e] != 0 || s.sbCnt[e] != 0 {
			continue
		}
		onStack := false
		for _, x := range s.fss {
			if x == e {
				onStack = true
				break
			}
		}
		if !onStack {
			s.mapUsed[i] = false
		}
	}
}

// fsStart handles an fs_start cid at decode. shadowOK reports whether no
// unconfirmed branch precedes the instruction (the FSS' update condition).
func (s *scopeHW) fsStart(cid int64, shadowOK bool) {
	if s.overflow > 0 {
		s.overflow++
		if shadowOK {
			s.shadowOverflow++
		} else {
			s.shadowLag = true
		}
		return
	}
	s.releaseIdleMappings()

	slot := s.lookupMap(cid)
	var entry uint8
	switch {
	case slot >= 0:
		entry = s.mapEntry[slot]
	default:
		if len(s.fss) >= s.cfg.FSSEntries || s.freeMapSlot() < 0 {
			// Mapping table or FSS full: engage the overflow counter;
			// fences behave as full fences until it drains.
			s.overflow++
			s.stats.ScopeOverflow++
			if shadowOK {
				s.shadowOverflow++
			} else {
				s.shadowLag = true
			}
			return
		}
		if e := s.freeEntry(); e >= 0 {
			entry = uint8(e)
		} else {
			// All class entries busy: share the designated entry 0
			// (strictly more conservative, still correct).
			entry = 0
			s.stats.ScopeShared++
		}
		ms := s.freeMapSlot()
		s.mapCID[ms] = cid
		s.mapEntry[ms] = entry
		s.mapUsed[ms] = true
	}

	if len(s.fss) >= s.cfg.FSSEntries {
		s.overflow++
		s.stats.ScopeOverflow++
		if shadowOK {
			s.shadowOverflow++
		} else {
			s.shadowLag = true
		}
		return
	}
	s.fss = append(s.fss, entry)
	if shadowOK {
		s.syncShadow()
	} else {
		s.shadowLag = true
	}
}

func (s *scopeHW) freeMapSlot() int {
	for i := range s.mapUsed {
		if !s.mapUsed[i] {
			return i
		}
	}
	return -1
}

// fsEnd handles an fs_end at decode.
func (s *scopeHW) fsEnd(shadowOK bool) {
	if s.overflow > 0 {
		s.overflow--
		if shadowOK && s.shadowOverflow > 0 {
			s.shadowOverflow--
		}
		return
	}
	if len(s.fss) == 0 {
		// Wrong-path or mismatched fs_end; ignore.
		s.stats.FSEndIgnored++
		return
	}
	s.fss = s.fss[:len(s.fss)-1]
	if shadowOK {
		s.syncShadow()
	} else {
		s.shadowLag = true
	}
}

// syncShadow copies FSS into FSS' (used when a scope op executes with no
// unconfirmed branches: the shadow catches up completely).
func (s *scopeHW) syncShadow() {
	s.shadow = append(s.shadow[:0], s.fss...)
	s.shadowOverflow = s.overflow
	s.shadowLag = false
}

// currentMask returns the FSB bits a newly decoded memory operation must
// set: one bit per scope on the FSS (inner scopes imply outer ones).
func (s *scopeHW) currentMask() uint8 {
	var m uint8
	for _, e := range s.fss {
		m |= 1 << e
	}
	return m
}

// fenceClassEntry returns the FSB entry a class fence must check, and
// whether the fence must instead behave as a full fence (overflow engaged,
// FSS empty, or post-recovery guard).
func (s *scopeHW) fenceClassEntry() (uint8, bool) {
	if s.overflow > 0 || len(s.fss) == 0 || s.forceFull {
		return 0, true
	}
	return s.fss[len(s.fss)-1], false
}

// fenceSetFull reports whether a set fence must behave as a full fence.
func (s *scopeHW) fenceSetFull() bool {
	return s.forceFull
}

// snapshotInto writes a compact copy of the FSS and overflow counter into
// snap, which must be zero: the checkpoint RecoverySnapshot restores on a
// squash. Decode writes it straight into the new ROB slot.
func (s *scopeHW) snapshotInto(snap *fssSnapshot) {
	snap.depth = uint8(len(s.fss))
	copy(snap.entries[:], s.fss)
	snap.overflow = s.overflow
}

// restoreSnapshot restores an exact checkpoint.
func (s *scopeHW) restoreSnapshot(snap *fssSnapshot) {
	s.fss = append(s.fss[:0], snap.entries[:snap.depth]...)
	s.overflow = snap.overflow
	s.forceFull = false
}

// restoreShadow implements the paper's recovery: FSS <- FSS'. If the shadow
// was lagging, fences are forced to full-fence behaviour until the stack
// drains (see shadowLag).
func (s *scopeHW) restoreShadow() {
	s.fss = append(s.fss[:0], s.shadow...)
	s.overflow = s.shadowOverflow
	if s.shadowLag {
		s.forceFull = true
	}
}

// drainGuard clears the post-recovery full-fence guard once the FSS is
// empty again.
func (s *scopeHW) drainGuard() {
	if s.forceFull && len(s.fss) == 0 && s.overflow == 0 {
		s.forceFull = false
		s.shadowLag = false
		s.syncShadow()
	}
}

type fssSnapshot struct {
	entries  [8]uint8
	depth    uint8
	overflow int
}
