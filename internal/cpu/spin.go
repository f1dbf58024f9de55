package cpu

import (
	"slices"

	"sfence/internal/isa"
	"sfence/internal/memsys"
)

// Spin-aware fast-forward. The event-driven clock's FastForward covers cores
// that make NO progress; busy-wait loops defeat it because every iteration
// decodes, executes, and retires instructions (progressed == true forever).
// This file closes that gap: a per-core detector that recognizes when the
// core's architectural orbit has become exactly periodic with a frozen
// memory system, captures the per-period statistics delta once, and lets
// the machine jump whole spans of spin iterations in O(1) while crediting
// every counter — core stats, memory-system stats, fence-site profile —
// exactly as the skipped live iterations would have.
//
// Correctness rests on three facts, each enforced elsewhere:
//
//  1. Tick is a deterministic function of normalized core state. If the
//     full architectural state (registers, ROB window, store buffer,
//     scope hardware, fetch state — with times taken relative to the
//     clock and producer seqs relative to the ROB head) recurs after P
//     cycles while the environment was frozen, the orbit repeats with
//     period P forever, from any phase, until the environment changes.
//  2. "Environment frozen" is checkable: memsys.CoreVersion advances on
//     every hierarchy mutation visible to this core (a steady spin
//     performs only idempotent MRU hits — see l1Cache.touch), the
//     predictor version advances when any counter actually changes, and
//     a core-local event counter advances on squashes, snoops, store
//     drains, and CAS commits. Remote stores that change Image words the
//     spin reads are delivered by Machine.broadcastStore through
//     SpinNoteRemoteStore against the watched-address set.
//  3. Per-period statistic deltas are phase-invariant: the delta over ANY
//     P consecutive cycles of a periodic orbit equals the delta captured
//     between the anchor and its first recurrence, so crediting k copies
//     of the captured delta is exact for a jump of k*P cycles.
const (
	// spinWindow bounds how long an anchor waits for its recurrence; real
	// spin loops are a handful of cycles per iteration.
	spinWindow = 64
	// spinWatchMax bounds the watched-address set; an orbit touching more
	// distinct Image words than this treats every remote store as a hit.
	spinWatchMax = 8
)

// Spin-detector phases.
const (
	spinIdle      uint8 = iota // waiting for a quiet loop; no work per tick
	spinArmed                  // anchor captured, awaiting recurrence
	spinConfirmed              // periodic orbit proven; jumps allowed
)

// spinSiteDelta is one fence site's per-period profile growth.
type spinSiteDelta struct {
	site              *FenceSite
	exec, stall, idle uint64
}

// spinState is the per-core detector.
type spinState struct {
	phase    uint8
	armTicks int64 // observed ticks since the anchor was captured

	// quiet is set when a quiet loop iteration retires (see spinLoopBack)
	// and arms an idle detector at the end of the tick. loopStores and
	// loopRegs are CommittedStores and the register file at the last taken
	// backward branch.
	quiet      bool
	loopStores uint64
	loopRegs   [isa.NumRegs]int64

	// events counts core-local perturbations (squash, snoop batch, store
	// drain, CAS commit). The seen* fields are the values at the last
	// spinObserve, so any advance is detected exactly once; while the
	// detector is idle they are the values at the last taken backward
	// branch instead.
	events     uint64
	seenEvents uint64
	seenMem    uint64 // memsys.CoreVersion at last observe
	seenPred   uint64 // predictor version at last observe

	anchorAt  int64
	anchorPC  int    // fetchPC at the anchor — cheap recurrence prefilter
	anchorOcc uint64 // ROB occupancy at the anchor — ditto
	anchorNC  int64  // nextComplete − cycle at the anchor — ditto
	anchorND  int64  // nextSBDrain − cycle at the anchor — ditto
	anchorBuf []uint64
	curBuf    []uint64

	// Captures taken at the anchor, turned into per-period deltas at
	// confirmation.
	statsAt Stats
	memAt   memsys.CoreStats
	profAt  map[int]FenceSite

	// watch is the set of Image addresses the orbit reads from memory; a
	// remote store to one of them perturbs the spin even when it causes
	// no coherence traffic here (the value changes at drain time, not at
	// the store's own cache access).
	watch         []int64
	watchOverflow bool

	// Confirmed-period results.
	period int64
	dStats Stats
	dMem   memsys.CoreStats
	dSites []spinSiteDelta

	jumps    uint64
	skipped  uint64
	observes uint64 // ticks in which spinObserve ran past its gate
}

// spinReset abandons any detection in progress (tracer attach, remote
// perturbation).
func (c *Core) spinReset() {
	c.spin.phase = spinIdle
}

// spinLoopBack is called when a taken backward branch retires. A loop
// iteration that committed no store, saw no perturbation and left every
// register as it found it is a quiet loop, the kind of iteration a spin on
// an unchanging word is made of. A quiet loop arms the detector at the end
// of the tick; until then an idle detector costs nothing per tick.
func (c *Core) spinLoopBack() {
	s := &c.spin
	if s.phase != spinIdle {
		return
	}
	st, mv, pv := c.stats.CommittedStores.Get(), c.hier.CoreVersion(c.id), c.pred.ver
	s.quiet = st == s.loopStores && s.events == s.seenEvents && mv == s.seenMem && pv == s.seenPred &&
		c.regs == s.loopRegs
	s.loopStores, s.seenEvents, s.seenMem, s.seenPred = st, s.events, mv, pv
	s.loopRegs = c.regs
}

// SpinActive reports whether the core is in a confirmed periodic spin with
// its environment still frozen — the machine parks such a core and later
// catches it up with SpinForward in whole periods. The live checks
// (snoops, memory version) catch perturbations delivered by cores that
// ticked after this one in the current cycle.
func (c *Core) SpinActive() bool {
	s := &c.spin
	return s.phase == spinConfirmed && c.fault == nil && !c.Done() &&
		len(c.snoopPending) == 0 && c.hier.CoreVersion(c.id) == s.seenMem
}

// SpinPeriod returns the confirmed orbit period in cycles (0 if none).
func (c *Core) SpinPeriod() int64 {
	if c.spin.phase != spinConfirmed {
		return 0
	}
	return c.spin.period
}

// SpinJumps returns how many times this core was spin-forwarded.
func (c *Core) SpinJumps() uint64 { return c.spin.jumps }

// SpinSkippedCycles returns the total cycles this core skipped inside
// confirmed spins.
func (c *Core) SpinSkippedCycles() uint64 { return c.spin.skipped }

// SpinObserves returns the ticks in which the spin detector did any work.
func (c *Core) SpinObserves() uint64 { return c.spin.observes }

// SpinReads reports whether the spin orbit reads the Image word at addr
// (always true once the watch set has overflowed). A remote store to any
// other word cannot change what the orbit computes: the snoop it may
// trigger squashes only a speculative load of that same word. The answer
// is the same at every phase of a confirmed orbit, so the machine may ask
// it of a core whose own clock lags behind the machine's.
func (c *Core) SpinReads(addr int64) bool {
	s := &c.spin
	return s.watchOverflow || slices.Contains(s.watch, c.img.Norm(addr))
}

// SpinReadsLine reports whether the spin orbit reads a word on the given
// cache line (always true once the watch set has overflowed). Like
// SpinReads it holds at every phase of a confirmed orbit.
func (c *Core) SpinReadsLine(line int64) bool {
	s := &c.spin
	if s.watchOverflow {
		return true
	}
	for _, a := range s.watch {
		if c.hier.LineOf(a) == line {
			return true
		}
	}
	return false
}

// SpinNoteRemoteStore tells the core another core's store to addr became
// globally visible (store-buffer drain or CAS commit). If the address is
// one the spin orbit reads — or the watch set overflowed — the detection
// is dropped immediately: the next load of that word returns a different
// value, so the orbit is no longer periodic. Demotion must be immediate
// (not deferred to the next tick) because the machine decides whether to
// jump at the end of the cycle in which the remote store completed.
func (c *Core) SpinNoteRemoteStore(addr int64) {
	if c.spin.phase != spinIdle && c.SpinReads(addr) {
		c.spinReset()
	}
}

// SpinNoteLineDisturb tells the core a remote coherence action
// (invalidation, downgrade, back-invalidation) touched one of its private
// cache lines. If the line holds any word the spin orbit reads, the
// detection is dropped immediately: the orbit's next access to it would
// miss or upgrade, breaking periodicity. Disturbs on unrelated lines are
// ignored — the orbit never touches them, so its behavior is unchanged
// (the stats the disturb charged to this core are kept exact by the
// purity check in spinConfirm). Immediacy matters for the same reason as
// in SpinNoteRemoteStore: the machine decides whether to jump at the end
// of the cycle in which the disturb happened.
func (c *Core) SpinNoteLineDisturb(line int64) {
	if c.spin.phase != spinIdle && c.SpinReadsLine(line) {
		c.spinReset()
	}
}

// spinWatch records an Image address the in-flight orbit reads.
func (c *Core) spinWatch(addr int64) {
	s := &c.spin
	if s.phase == spinIdle || s.watchOverflow {
		return
	}
	for _, a := range s.watch {
		if a == addr {
			return
		}
	}
	if len(s.watch) >= spinWatchMax {
		s.watchOverflow = true
		return
	}
	s.watch = append(s.watch, addr)
}

// spinObserve runs at the end of every Tick. An idle detector returns at
// once unless a quiet loop retired this tick, which arms it. An armed
// detector tracks environment stability and confirms a periodic orbit when
// the anchor state recurs within the window. Tracers see per-cycle detail,
// so a traced core never spins fast.
func (c *Core) spinObserve() {
	s := &c.spin
	if s.phase == spinIdle && !s.quiet {
		return
	}
	s.quiet = false
	if c.tracer != nil {
		c.spinReset()
		return
	}
	s.observes++
	mv := c.hier.CoreVersion(c.id)
	pv := c.pred.ver
	if s.phase == spinIdle {
		s.seenEvents, s.seenMem, s.seenPred = s.events, mv, pv
		s.spinArm(c)
		return
	}
	if s.events != s.seenEvents || mv != s.seenMem || pv != s.seenPred || len(c.snoopPending) > 0 {
		c.spinReset()
		return
	}
	if s.phase != spinArmed {
		return
	}
	s.armTicks++
	nc, nd := spinRelGates(c)
	if c.tail-c.head == s.anchorOcc && c.fetchPC == s.anchorPC &&
		nc == s.anchorNC && nd == s.anchorND {
		// Recurrence candidate: only here is the full capture paid. The
		// prefilter is exact-negative (fetchPC and occupancy are both part
		// of the capture, so unequal means not recurred) and fires at most
		// once per orbit period.
		s.curBuf = c.spinCapture(s.curBuf[:0])
		if slices.Equal(s.curBuf, s.anchorBuf) {
			s.spinConfirm(c)
			return
		}
	}
	if s.armTicks > spinWindow {
		// The anchor never recurred within the window: wait for the next
		// quiet loop.
		c.spinReset()
	}
}

// spinRelGates returns the completion and drain gates relative to the
// clock (−1 when unscheduled). Together with fetchPC and ROB occupancy
// they form the O(1) recurrence prefilter: all four are part of the full
// capture, so a mismatch on any of them is an exact negative. The gates
// matter because they are the fields that change every tick while the
// rest of a stalled pipeline is frozen — a core parked on an in-flight
// miss keeps fetchPC and occupancy constant for hundreds of cycles, and
// without the gate check every one of those ticks would pay for a full
// state capture that the countdown then fails.
func spinRelGates(c *Core) (nc, nd int64) {
	nc, nd = -1, -1
	if c.nextComplete != NeverWakes {
		nc = c.nextComplete - c.cycle
	}
	if c.nextSBDrain != NeverWakes {
		nd = c.nextSBDrain - c.cycle
	}
	return nc, nd
}

// spinArm captures the anchor state and the counter baselines the
// confirmation will diff against.
func (s *spinState) spinArm(c *Core) {
	s.phase = spinArmed
	s.anchorAt = c.cycle
	s.armTicks = 0
	s.anchorPC = c.fetchPC
	s.anchorOcc = c.tail - c.head
	s.anchorNC, s.anchorND = spinRelGates(c)
	s.anchorBuf = c.spinCapture(s.anchorBuf[:0])
	s.statsAt = c.stats
	s.memAt = c.hier.SnapshotCoreStats(c.id)
	if s.profAt == nil {
		s.profAt = make(map[int]FenceSite, len(c.profile.sites))
	} else {
		clear(s.profAt)
	}
	for pc, site := range c.profile.sites {
		s.profAt[pc] = *site
	}
	s.watch = s.watch[:0]
	s.watchOverflow = false
}

// spinConfirm turns the anchor-to-recurrence window into the per-period
// deltas SpinForward replays.
func (s *spinState) spinConfirm(c *Core) {
	s.period = c.cycle - s.anchorAt
	s.dStats = spinDeltaStats(&c.stats, &s.statsAt)
	s.dMem = c.hier.DeltaCoreStats(c.id, s.memAt)
	if !spinMemDeltaPure(&s.dMem) {
		// A remote coherence action charged stats to this core inside the
		// window (e.g. an invalidation of a line the orbit does not read —
		// behaviorally invisible, so the anchor still recurred, but the
		// one-off charge must not be multiplied). Restart the window from
		// here; the new baselines are clean.
		s.spinArm(c)
		return
	}
	s.dSites = s.dSites[:0]
	for pc, site := range c.profile.sites {
		old := s.profAt[pc]
		d := spinSiteDelta{
			site:  site,
			exec:  site.Executions - old.Executions,
			stall: site.StallCycles - old.StallCycles,
			idle:  site.IdleCycles - old.IdleCycles,
		}
		if d.exec|d.stall|d.idle != 0 {
			s.dSites = append(s.dSites, d)
		}
	}
	s.phase = spinConfirmed
}

// SpinForward advances a confirmed spinning core by delta cycles (delta
// must be a whole number of periods): every absolute timestamp in flight
// shifts by delta, and k = delta/period copies of the captured per-period
// delta land on the statistics, the memory-system counters and the fence
// profile. The result is bit-identical to ticking the core delta more
// times against a frozen environment.
func (c *Core) SpinForward(delta int64) {
	s := &c.spin
	if delta <= 0 {
		return
	}
	if s.phase != spinConfirmed || s.period <= 0 || delta%s.period != 0 {
		panic("cpu: SpinForward without a confirmed spin period")
	}
	k := uint64(delta / s.period)
	for seq := c.head; seq < c.tail; seq++ {
		if e := c.slot(seq); e.stage == stExecuting {
			e.readyAt += delta
		}
	}
	for i := range c.compHeap {
		c.compHeap[i].at += delta
	}
	for i := range c.sb {
		if c.sb[i].inflight {
			c.sb[i].readyAt += delta
		}
	}
	if c.redirectUntil > c.cycle {
		c.redirectUntil += delta
	}
	if c.nextComplete != NeverWakes {
		c.nextComplete += delta
	}
	if c.nextSBDrain != NeverWakes {
		c.nextSBDrain += delta
	}
	spinCreditStats(&c.stats, &s.dStats, k)
	c.hier.CreditCoreStats(c.id, s.dMem, k)
	for _, d := range s.dSites {
		d.site.Executions += d.exec * k
		d.site.StallCycles += d.stall * k
		d.site.IdleCycles += d.idle * k
	}
	s.jumps++
	s.skipped += uint64(delta)
	c.cycle += delta
}

// spinMemDeltaPure reports whether a per-period memory-system delta could
// have been produced by the orbit alone. A stable orbit performs only
// idempotent innermost-level hits (anything else bumps the core version
// and resets detection), so the only fields allowed to grow are Loads,
// Stores, and innermost Hits; growth anywhere else — Invalidations,
// Writebacks, upgrades, outer-level traffic — was charged to this core by
// a remote access and must not be replayed per period.
func spinMemDeltaPure(d *memsys.CoreStats) bool {
	if d.Upgrades != 0 || d.Invalidations != 0 || d.Writebacks != 0 || d.RemoteDirty != 0 {
		return false
	}
	for k := range d.Level {
		if d.Level[k].Misses != 0 || (k > 0 && d.Level[k].Hits != 0) {
			return false
		}
	}
	return true
}

// spinDeltaStats returns the counter growth since anchor. Gauges are
// excluded on purpose: a periodic orbit reached its steady-state maxima
// during the live window, so skipped iterations cannot raise them.
func spinDeltaStats(cur, anchor *Stats) Stats {
	return Stats{
		Committed:        cur.Committed - anchor.Committed,
		CommittedLoads:   cur.CommittedLoads - anchor.CommittedLoads,
		CommittedStores:  cur.CommittedStores - anchor.CommittedStores,
		CommittedCAS:     cur.CommittedCAS - anchor.CommittedCAS,
		CommittedFences:  cur.CommittedFences - anchor.CommittedFences,
		FenceStallCycles: cur.FenceStallCycles - anchor.FenceStallCycles,
		FenceStallIssue:  cur.FenceStallIssue - anchor.FenceStallIssue,
		FenceStallRetire: cur.FenceStallRetire - anchor.FenceStallRetire,
		FenceIdleCycles:  cur.FenceIdleCycles - anchor.FenceIdleCycles,
		ROBFullCycles:    cur.ROBFullCycles - anchor.ROBFullCycles,
		SBFullCycles:     cur.SBFullCycles - anchor.SBFullCycles,
		Branches:         cur.Branches - anchor.Branches,
		Mispredicts:      cur.Mispredicts - anchor.Mispredicts,
		Squashed:         cur.Squashed - anchor.Squashed,
		WrongPathMem:     cur.WrongPathMem - anchor.WrongPathMem,
		SpecLoadFlush:    cur.SpecLoadFlush - anchor.SpecLoadFlush,
		ScopeOverflow:    cur.ScopeOverflow - anchor.ScopeOverflow,
		ScopeShared:      cur.ScopeShared - anchor.ScopeShared,
		FSEndIgnored:     cur.FSEndIgnored - anchor.FSEndIgnored,
		SumROBOccupancy:  cur.SumROBOccupancy - anchor.SumROBOccupancy,
		Cycles:           cur.Cycles - anchor.Cycles,
	}
}

// spinCreditStats adds d×times into s.
func spinCreditStats(s, d *Stats, times uint64) {
	t := times
	s.Committed.Add(uint64(d.Committed) * t)
	s.CommittedLoads.Add(uint64(d.CommittedLoads) * t)
	s.CommittedStores.Add(uint64(d.CommittedStores) * t)
	s.CommittedCAS.Add(uint64(d.CommittedCAS) * t)
	s.CommittedFences.Add(uint64(d.CommittedFences) * t)
	s.FenceStallCycles.Add(uint64(d.FenceStallCycles) * t)
	s.FenceStallIssue.Add(uint64(d.FenceStallIssue) * t)
	s.FenceStallRetire.Add(uint64(d.FenceStallRetire) * t)
	s.FenceIdleCycles.Add(uint64(d.FenceIdleCycles) * t)
	s.ROBFullCycles.Add(uint64(d.ROBFullCycles) * t)
	s.SBFullCycles.Add(uint64(d.SBFullCycles) * t)
	s.Branches.Add(uint64(d.Branches) * t)
	s.Mispredicts.Add(uint64(d.Mispredicts) * t)
	s.Squashed.Add(uint64(d.Squashed) * t)
	s.WrongPathMem.Add(uint64(d.WrongPathMem) * t)
	s.SpecLoadFlush.Add(uint64(d.SpecLoadFlush) * t)
	s.ScopeOverflow.Add(uint64(d.ScopeOverflow) * t)
	s.ScopeShared.Add(uint64(d.ScopeShared) * t)
	s.FSEndIgnored.Add(uint64(d.FSEndIgnored) * t)
	s.SumROBOccupancy.Add(uint64(d.SumROBOccupancy) * t)
	s.Cycles.Add(uint64(d.Cycles) * t)
}

// spinCapture serializes the core's complete loop-carried architectural
// state into buf as a flat normalized word list. Two states whose captures
// are equal behave identically under Tick against a frozen environment:
//
//   - every absolute time is taken relative to the clock (readyAt, the
//     completion/drain gates, the fetch redirect), so the capture is
//     invariant under shifting the whole core in time;
//   - every producer seq is taken relative to the ROB head (register
//     rename tags, entry operand sources, in-flight fence seqs), so the
//     capture is invariant under the seq growth across iterations;
//   - derived structures are excluded because they are functions of what
//     is captured: the completion heap is exactly the executing entries
//     (popped in deterministic (readyAt, seq) order), the operand wake
//     lists are exactly the waiting entries' not-yet-done producers, the
//     blocker lists hold exactly the waiting loads with addrOK, each on
//     the store or CAS olderStoreBlocks stops at, the olderStore links
//     and lastStore name the nearest older store or CAS in the window (or
//     one below head, which reads as none), and per-tick scratch (accrual,
//     stall dedup flags) is rebuilt from scratch each Tick. List order is
//     not captured: a fired list only sets ready bits.
func (c *Core) spinCapture(buf []uint64) []uint64 {
	const none = ^uint64(0)
	relSeq := func(s int64) uint64 {
		if s < 0 || uint64(s) < c.head {
			return none
		}
		return uint64(s) - c.head
	}

	buf = append(buf, uint64(c.fetchPC))
	rd := int64(0)
	if c.redirectUntil > c.cycle {
		rd = c.redirectUntil - c.cycle
	}
	buf = append(buf, uint64(rd))
	nc, nd := none, none
	if c.nextComplete != NeverWakes {
		nc = uint64(c.nextComplete - c.cycle)
	}
	if c.nextSBDrain != NeverWakes {
		nd = uint64(c.nextSBDrain - c.cycle)
	}
	dp := c.donePrefix
	if dp < c.head {
		dp = c.head
	}
	var flags uint64
	for i, b := range [...]bool{
		c.haltDone, c.wakePending, c.progressed,
		c.fenceStallSeen, c.robFullSeen, c.sbFullSeen,
		c.scope.shadowLag, c.scope.forceFull,
	} {
		if b {
			flags |= 1 << i
		}
	}
	buf = append(buf, nc, nd, c.tail-c.head, dp-c.head, flags,
		uint64(c.haltInROB), uint64(c.unresolvedBranches),
		uint64(c.robIncompleteMem), uint64(c.robStoreCount),
		uint64(c.specLoads), uint64(c.sbInflight))

	for i := range c.regs {
		buf = append(buf, uint64(c.regs[i]), relSeq(c.regTag[i]))
	}

	buf = append(buf, uint64(len(c.fenceSeqs)))
	for _, fs := range c.fenceSeqs {
		buf = append(buf, fs-c.head)
	}

	sc := c.scope
	buf = append(buf, uint64(sc.overflow), uint64(sc.shadowOverflow))
	for i := range sc.mapCID {
		u := uint64(0)
		if sc.mapUsed[i] {
			u = 1
		}
		buf = append(buf, uint64(sc.mapCID[i]), uint64(sc.mapEntry[i])|u<<8)
	}
	buf = append(buf, uint64(len(sc.fss)))
	for _, e := range sc.fss {
		buf = append(buf, uint64(e))
	}
	buf = append(buf, uint64(len(sc.shadow)))
	for _, e := range sc.shadow {
		buf = append(buf, uint64(e))
	}
	for i := range sc.robCnt {
		buf = append(buf, uint64(sc.robCnt[i]), uint64(sc.robLoadCnt[i]), uint64(sc.sbCnt[i]))
	}

	buf = append(buf, uint64(len(c.sb)))
	for i := range c.sb {
		e := &c.sb[i]
		meta := uint64(e.fsb)
		ready := uint64(0)
		if e.inflight {
			meta |= 1 << 8
			ready = uint64(e.readyAt - c.cycle)
		}
		buf = append(buf, uint64(e.addr), uint64(e.val), meta, ready)
	}

	for seq := c.head; seq < c.tail; seq++ {
		e := c.slot(seq)
		ready := uint64(0)
		if e.stage == stExecuting {
			ready = uint64(e.readyAt - c.cycle)
		}
		slot := seq & c.robMask
		var ef uint64
		for i, b := range [...]bool{
			e.addrOK, e.resolved, e.faulted, e.predTaken, e.fenceFull,
			e.specPastFence, e.accessedMem,
			c.readyBits[slot>>6]>>(slot&63)&1 != 0,
		} {
			if b {
				ef |= 1 << i
			}
		}
		var snapWord uint64
		for i, se := range e.snap.entries {
			snapWord |= uint64(se) << (8 * i)
		}
		buf = append(buf,
			uint64(e.pc), uint64(e.stage), ready,
			uint64(e.val), uint64(e.addr), uint64(e.sval), uint64(e.casOld),
			ef, uint64(e.fsb)|uint64(e.fenceEntry)<<8,
			relSeq(e.src1), relSeq(e.src2), relSeq(e.src3),
			snapWord, uint64(e.snap.depth), uint64(e.snap.overflow))
	}
	return buf
}
