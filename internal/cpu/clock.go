package cpu

import "math"

// This file is the core half of the event-driven clock: a quiescence
// detector (progressed), a conservative next-event bound (NextWakeup), and
// a bulk idle-cycle crediting routine (FastForward) that reproduces,
// counter for counter, what per-cycle stepping would have accumulated
// while the core waits for memory. The machine keeps one wakeup per core:
// it ticks a core only at its NextWakeup and leaves it lagging in between,
// so FastForward runs lazily, per core, when the core is next ticked or
// caught up.
//
// The contract that makes fast-forwarding bit-identical to naive stepping:
// Tick is a deterministic function of (core state, cycle). If a Tick
// mutated nothing (progressed == false), the next Tick repeats the exact
// same control flow — the only cycle-dependent comparisons are readyAt and
// redirectUntil bounds — until the earliest of those bounds arrives. A
// quiescent cycle therefore accrues exactly: Cycles++, the ROB-occupancy
// integral, and whichever once-per-cycle stall counters the last Tick
// bumped (recorded in stallAccrual). FastForward(delta) credits delta
// copies of that accrual in O(1). A quiescent Tick reads only the core's
// own state, so other cores acting meanwhile cannot change what the
// skipped Ticks would have done, with one exception the machine handles
// itself: a remote-store snoop (NoteRemoteStore), before which it catches
// the core up. (The spin detector also reads the memory version other
// cores bump, but it only decides when the core may be parked, and
// parking is exact.)

// NeverWakes is the NextWakeup value of a core with no scheduled event:
// done, faulted, or deadlocked. The machine clamps it to the cycle budget,
// so a deadlocked program reaches the budget with the same stats the naive
// clock would have spun its way to.
const NeverWakes int64 = math.MaxInt64

// stallAccrual records which once-per-cycle stall counters the current
// Tick incremented. While the core is quiescent every subsequent cycle
// increments exactly the same set, so FastForward can multiply instead of
// iterate. sites holds at most two entries: a retirement-blocked fence and
// an issue-blocked fence can each charge one site per cycle.
type stallAccrual struct {
	fenceStall  bool // stats.FenceStallCycles
	fenceRetire bool // variant: retirement stall (else issue stall)
	fenceIdle   bool // stats.FenceIdleCycles
	robFull     bool // stats.ROBFullCycles
	sbFull      bool // stats.SBFullCycles

	nSites   int
	sites    [2]*FenceSite
	siteIdle [2]bool
}

func (a *stallAccrual) addSite(s *FenceSite, idle bool) {
	if a.nSites < len(a.sites) {
		a.sites[a.nSites] = s
		a.siteIdle[a.nSites] = idle
		a.nSites++
	}
}

// Cycle returns the cycle of the core's most recent tick, counting the
// cycles FastForward and SpinForward covered. Whenever Machine.Run
// returns, every core that has not finished sits at the machine's
// Cycle()-1; inside Run a core that is waiting or parked in a spin lags
// behind it.
func (c *Core) Cycle() int64 { return c.cycle }

// Traced reports whether a pipeline tracer is attached. Tracers observe
// per-cycle events (notably one TraceFenceStall per stalled cycle), so the
// machine must step a traced core cycle by cycle.
func (c *Core) Traced() bool { return c.tracer != nil }

// SpecLoadsInFlight returns the number of in-flight loads that executed
// speculatively past an unretired fence. The machine uses it as an exact
// snoop filter: a core with none cannot replay, so delivering a remote
// store notification to it is a guaranteed no-op.
func (c *Core) SpecLoadsInFlight() int { return c.specLoads }

// Listening reports whether a remote store can change anything here: the
// core holds a speculative load that may replay, or its spin detector is
// not idle and may drop its detection. Only the core's own Tick can make
// it start listening; a delivery or a tracer attach can only stop it.
func (c *Core) Listening() bool { return c.specLoads > 0 || c.spin.phase != spinIdle }

// NextWakeup returns a conservative lower bound on the next cycle at which
// the core's state can change: never later than the true next change,
// possibly earlier. For an active core that is the next cycle; for a
// quiescent core it is the earliest scheduled event — the minimum readyAt
// across executing ROB entries and in-flight store-buffer entries, and the
// fetch-redirect release point. A core with no scheduled event returns
// NeverWakes.
func (c *Core) NextWakeup() int64 {
	if c.fault != nil || c.Done() {
		return NeverWakes
	}
	if c.progressed || len(c.snoopPending) > 0 {
		return c.cycle + 1
	}
	// The completion and drain gates are conservative lower bounds on the
	// next scheduled event (stale-early at worst, e.g. after a squash), so
	// the minimum below can wake the machine early — an extra quiescent
	// tick — but never late.
	w := NeverWakes
	if c.redirectUntil > c.cycle {
		w = c.redirectUntil
	}
	if c.nextComplete < w {
		w = c.nextComplete
	}
	if c.nextSBDrain < w {
		w = c.nextSBDrain
	}
	return w
}

// FastForward credits delta skipped idle cycles to the core's statistics,
// exactly as delta quiescent Ticks would have: the active-cycle count, the
// ROB-occupancy integral, and the once-per-cycle stall counters captured
// by the last Tick. It must only be called when the core is quiescent
// (progressed false, no pending snoops) and every skipped cycle is
// strictly before NextWakeup. The machine calls it lazily, per core: just
// before the core's next Tick, or when a snoop or the end of a Run catches
// the core up. A non-positive delta is a no-op.
func (c *Core) FastForward(delta int64) {
	if delta <= 0 || c.fault != nil || c.Done() {
		return
	}
	d := uint64(delta)
	c.stats.Cycles.Add(d)
	c.stats.SumROBOccupancy.Add((c.tail - c.head) * d)
	a := &c.accrual
	if a.fenceStall {
		c.stats.FenceStallCycles.Add(d)
		if a.fenceRetire {
			c.stats.FenceStallRetire.Add(d)
		} else {
			c.stats.FenceStallIssue.Add(d)
		}
		if a.fenceIdle {
			c.stats.FenceIdleCycles.Add(d)
		}
	}
	if a.robFull {
		c.stats.ROBFullCycles.Add(d)
	}
	if a.sbFull {
		c.stats.SBFullCycles.Add(d)
	}
	for i := 0; i < a.nSites; i++ {
		a.sites[i].StallCycles += d
		if a.siteIdle[i] {
			a.sites[i].IdleCycles += d
		}
	}
	c.cycle += delta
}
