package cpu

import (
	"sfence/internal/isa"
	"sfence/internal/memsys"
)

// Parallel-epoch support. The machine's parallel runner executes each
// core independently from a common start cycle T to a horizon E, under
// one rule: every cache access must be a private-L1 hit (reads in any
// valid state, writes only in M or E — see memsys.Hierarchy.LocalHit).
// MESI makes that rule a proof of isolation: a core that only hits its
// own L1 cannot observe or influence any other core, and a store it
// drains targets a line no other core holds a valid copy of, so the
// Image writes of concurrent cores land on disjoint words.
//
// The first access that would leave the L1 latches epochBlocked instead
// of touching the hierarchy, and the whole epoch is discarded: every
// core restores the checkpoint taken by EpochBegin (EpochAbort), the
// Image words written in-epoch are undone from the per-core undo log,
// and the machine re-runs the span sequentially. An epoch therefore
// either commits with exactly the state per-cycle stepping would have
// produced, or leaves no trace at all.
//
// Cross-core notifications are provably dead inside an epoch and are
// suppressed while localOnly is set:
//
//   - OnStoreComplete (snoop + spin broadcast): an in-epoch drain's line
//     has no foreign valid copies, so no foreign in-flight load — and in
//     particular no speculative load — can have read a word of it; a
//     remote core's snoop scan for the address would match nothing. A
//     foreign spin orbit likewise cannot be reading the word (its loads
//     hit its own L1), so only the watch-overflow pessimism is lost —
//     clock policy, not architecture.
//   - OnDisturb never fires: no in-epoch access reaches the directory.
//
// Pre-epoch in-flight writes (issued store-buffer entries and executing
// CAS entries, which paid their hierarchy access before the epoch
// began) complete inside the epoch unconditionally, so the machine's
// hazard scan clamps the horizon to exclude any such completion whose
// line the directory says another core may still share — or whose line
// the directory no longer knows (ForEachPendingGlobalWrite exposes
// them). Pre-epoch speculative loads have no such clamp and instead
// veto the epoch entirely (SpecLoadsInFlight precondition in the
// machine): a replay they might need depends on remote-store timing the
// epoch cannot see.
type EpochState struct {
	regs   [isa.NumRegs]int64
	regTag [isa.NumRegs]int64

	entries    []robEntry
	head       uint64
	tail       uint64
	donePrefix uint64

	sb         []sbEntry
	sbInflight int

	// scope hardware (scopeHW minus its stable cfg/stats pointers)
	mapCID         []int64
	mapEntry       []uint8
	mapUsed        []bool
	fss            []uint8
	shadow         []uint8
	overflow       int
	shadowOverflow int
	shadowLag      bool
	forceFull      bool
	robCnt         []int
	robLoadCnt     []int
	sbCnt          []int

	predCounters []uint8
	predVer      uint64

	fetchPC       int
	redirectUntil int64

	haltInROB          int
	haltDone           bool
	unresolvedBranches int
	fenceSeqs          []uint64

	robIncompleteMem int
	robStoreCount    int
	specLoads        int
	casWaiting       int

	nextComplete int64
	nextSBDrain  int64
	schedDirty   bool
	wakePending  bool

	wakeHead  []int32
	wakeNext  []int32
	readyBits []uint64
	compHeap  []compNode

	progressed   bool
	accrual      stallAccrual
	snoopPending []int64

	stats   Stats
	profile map[int]FenceSite
	cycle   int64

	spinJumps   uint64
	spinSkipped uint64

	fenceStallSeen bool
	robFullSeen    bool
	sbFullSeen     bool

	mem memsys.CoreEpoch
}

// imgUndo records one Image word overwritten inside an epoch.
type imgUndo struct {
	addr int64
	old  int64
}

// epochCopy copies src into dst, reusing dst's backing array when it is
// large enough — EpochState buffers are recycled across epochs so the
// steady-state checkpoint allocates nothing.
func epochCopy[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// access is the gated hierarchy access every scheduler path goes
// through. Outside an epoch it is a plain Hierarchy.Access. Inside one
// (localOnly set) an access that is not a private-L1 hit latches
// epochBlocked and reports ok=false WITHOUT touching the hierarchy: the
// caller abandons the operation, the epoch is aborted at the barrier,
// and the sequential re-run performs the access — charging its stats
// and coherence traffic exactly once, at the same cycle as always.
func (c *Core) access(addr int64, write bool) (lat int, ok bool) {
	if c.localOnly && !c.hier.LocalHit(c.id, addr, write) {
		c.epochBlocked = true
		return 0, false
	}
	return c.hier.Access(c.id, addr, write), true
}

// EpochBegin checkpoints the core's complete architectural and
// microarchitectural state (including its slice of the memory
// hierarchy) into s, arms the local-only access gate, and resets the
// Image undo log. The checkpoint is a deep copy into s's reused
// buffers; the core keeps running in place.
func (c *Core) EpochBegin(s *EpochState) {
	s.regs = c.regs
	s.regTag = c.regTag
	s.entries = epochCopy(s.entries, c.entries)
	s.head, s.tail, s.donePrefix = c.head, c.tail, c.donePrefix
	s.sb = epochCopy(s.sb, c.sb)
	s.sbInflight = c.sbInflight

	sc := c.scope
	s.mapCID = epochCopy(s.mapCID, sc.mapCID)
	s.mapEntry = epochCopy(s.mapEntry, sc.mapEntry)
	s.mapUsed = epochCopy(s.mapUsed, sc.mapUsed)
	s.fss = epochCopy(s.fss, sc.fss)
	s.shadow = epochCopy(s.shadow, sc.shadow)
	s.overflow, s.shadowOverflow = sc.overflow, sc.shadowOverflow
	s.shadowLag, s.forceFull = sc.shadowLag, sc.forceFull
	s.robCnt = epochCopy(s.robCnt, sc.robCnt)
	s.robLoadCnt = epochCopy(s.robLoadCnt, sc.robLoadCnt)
	s.sbCnt = epochCopy(s.sbCnt, sc.sbCnt)

	s.predCounters = epochCopy(s.predCounters, c.pred.counters)
	s.predVer = c.pred.ver

	s.fetchPC = c.fetchPC
	s.redirectUntil = c.redirectUntil
	s.haltInROB = c.haltInROB
	s.haltDone = c.haltDone
	s.unresolvedBranches = c.unresolvedBranches
	s.fenceSeqs = epochCopy(s.fenceSeqs, c.fenceSeqs)
	s.robIncompleteMem = c.robIncompleteMem
	s.robStoreCount = c.robStoreCount
	s.specLoads = c.specLoads
	s.casWaiting = c.casWaiting
	s.nextComplete, s.nextSBDrain = c.nextComplete, c.nextSBDrain
	s.schedDirty, s.wakePending = c.schedDirty, c.wakePending

	s.wakeHead = epochCopy(s.wakeHead, c.wakeHead)
	s.wakeNext = epochCopy(s.wakeNext, c.wakeNext)
	s.readyBits = epochCopy(s.readyBits, c.readyBits)
	s.compHeap = epochCopy(s.compHeap, c.compHeap)

	s.progressed = c.progressed
	s.accrual = c.accrual
	s.snoopPending = epochCopy(s.snoopPending, c.snoopPending)

	s.stats = c.stats
	if s.profile == nil {
		s.profile = make(map[int]FenceSite, len(c.profile.sites))
	} else {
		clear(s.profile)
	}
	for pc, site := range c.profile.sites {
		s.profile[pc] = *site
	}
	s.cycle = c.cycle
	s.spinJumps, s.spinSkipped = c.spin.jumps, c.spin.skipped
	s.fenceStallSeen, s.robFullSeen, s.sbFullSeen = c.fenceStallSeen, c.robFullSeen, c.sbFullSeen

	c.hier.SaveCore(c.id, &s.mem)

	c.localOnly = true
	c.epochBlocked = false
	c.undoLog = c.undoLog[:0]
}

// EpochCommit keeps the state the epoch computed and disarms the gate.
func (c *Core) EpochCommit() {
	c.localOnly = false
	c.epochBlocked = false
	c.undoLog = c.undoLog[:0]
}

// EpochAbort rewinds the core to the EpochBegin checkpoint: Image words
// written in-epoch are restored from the undo log in reverse order,
// every core field is restored in place (the stats registry holds
// pointers into c.stats, so the struct must not move), fence-profile
// sites created in-epoch are deleted and surviving ones restored by
// value (spin-delta and accrual pointers reference the survivors), and
// the spin detector is reset — re-arming from scratch is always sound,
// and only clock policy, never architecture, depends on it.
func (c *Core) EpochAbort(s *EpochState) {
	for i := len(c.undoLog) - 1; i >= 0; i-- {
		c.img.Store(c.undoLog[i].addr, c.undoLog[i].old)
	}
	c.undoLog = c.undoLog[:0]
	c.localOnly = false
	c.epochBlocked = false

	c.regs = s.regs
	c.regTag = s.regTag
	copy(c.entries, s.entries)
	c.head, c.tail, c.donePrefix = s.head, s.tail, s.donePrefix
	c.sb = append(c.sb[:0], s.sb...)
	c.sbInflight = s.sbInflight

	sc := c.scope
	copy(sc.mapCID, s.mapCID)
	copy(sc.mapEntry, s.mapEntry)
	copy(sc.mapUsed, s.mapUsed)
	sc.fss = append(sc.fss[:0], s.fss...)
	sc.shadow = append(sc.shadow[:0], s.shadow...)
	sc.overflow, sc.shadowOverflow = s.overflow, s.shadowOverflow
	sc.shadowLag, sc.forceFull = s.shadowLag, s.forceFull
	copy(sc.robCnt, s.robCnt)
	copy(sc.robLoadCnt, s.robLoadCnt)
	copy(sc.sbCnt, s.sbCnt)

	copy(c.pred.counters, s.predCounters)
	c.pred.ver = s.predVer

	c.fetchPC = s.fetchPC
	c.redirectUntil = s.redirectUntil
	c.haltInROB = s.haltInROB
	c.haltDone = s.haltDone
	c.unresolvedBranches = s.unresolvedBranches
	c.fenceSeqs = append(c.fenceSeqs[:0], s.fenceSeqs...)
	c.robIncompleteMem = s.robIncompleteMem
	c.robStoreCount = s.robStoreCount
	c.specLoads = s.specLoads
	c.casWaiting = s.casWaiting
	c.nextComplete, c.nextSBDrain = s.nextComplete, s.nextSBDrain
	c.schedDirty, c.wakePending = s.schedDirty, s.wakePending

	copy(c.wakeHead, s.wakeHead)
	copy(c.wakeNext, s.wakeNext)
	copy(c.readyBits, s.readyBits)
	c.compHeap = append(c.compHeap[:0], s.compHeap...)

	c.progressed = s.progressed
	c.accrual = s.accrual
	c.snoopPending = append(c.snoopPending[:0], s.snoopPending...)

	c.stats = s.stats
	for pc, site := range c.profile.sites {
		if saved, ok := s.profile[pc]; ok {
			*site = saved
		} else {
			delete(c.profile.sites, pc)
		}
	}
	c.cycle = s.cycle
	c.fault = nil // a fault raised in-epoch is re-discovered sequentially
	c.fenceStallSeen, c.robFullSeen, c.sbFullSeen = s.fenceStallSeen, s.robFullSeen, s.sbFullSeen

	c.hier.RestoreCore(c.id, &s.mem)

	c.spinReset()
	c.spin.jumps, c.spin.skipped = s.spinJumps, s.spinSkipped
}

// EpochBlocked reports whether the core hit the local-only gate since
// EpochBegin. A blocked core's remaining tick ran to completion against
// a dummy (untaken) access, so its state is garbage — the machine must
// abort the epoch for every core.
func (c *Core) EpochBlocked() bool { return c.epochBlocked }

// ForEachPendingGlobalWrite visits every write that already paid its
// hierarchy access and will therefore complete unconditionally — issued
// (in-flight) store-buffer entries and executing CAS entries — with the
// cycle at which its Image mutation lands. The machine's hazard scan
// clamps the epoch horizon below any such completion whose line may
// still be shared.
func (c *Core) ForEachPendingGlobalWrite(f func(addr, completesAt int64)) {
	for i := range c.sb {
		if c.sb[i].inflight {
			f(c.sb[i].addr, c.sb[i].readyAt)
		}
	}
	for seq := c.head; seq < c.tail; seq++ {
		e := c.slot(seq)
		if e.inst.Op == isa.OpCAS && e.stage == stExecuting {
			f(e.addr, e.readyAt)
		}
	}
}
