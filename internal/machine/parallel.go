package machine

import (
	"context"
	"os"
	"sync"
	"sync/atomic"

	"sfence/internal/cpu"
)

// Optimistic-epoch parallel runner.
//
// The sequential loop interleaves all cores cycle by cycle because any
// core might interact with any other at any cycle. In practice the
// interesting workloads spend most cycles in private-L1-resident
// compute, where cores are mutually invisible. The parallel runner
// exploits that: it picks a horizon E, checkpoints every core
// (cpu.EpochState + the core's slice of the hierarchy), and lets worker
// threads step disjoint core subsets independently from T to E under
// the local-only access gate (cpu's epoch support). Two outcomes:
//
//   - No core hit the gate: the epoch is exactly what per-cycle
//     stepping would have produced — every access was a private hit,
//     so no core could observe another — and it commits wholesale.
//   - Any core hit the gate (or faulted): the whole epoch aborts.
//     Every core restores its checkpoint, in-epoch Image writes are
//     undone, and the span re-runs either as an immediate shorter epoch
//     over the provably-local prefix, or on the sequential loop, which
//     performs the cross-core interaction at its exact cycle.
//
// Three kinds of pre-epoch state could breach core isolation and are
// handled up front (see epochHorizon / epochSafe):
//
//   - In-flight writes that already paid their hierarchy access (issued
//     store-buffer entries, executing CAS) complete in-epoch
//     unconditionally; if the directory says the target line may still
//     be shared — or no longer knows it — the horizon is clamped below
//     the completion cycle, so the drain lands outside the epoch.
//   - Loads that speculatively executed past a fence may need a replay
//     triggered by a remote store at a precise cycle; any in flight
//     veto the attempt entirely (they are transient).
//   - Tracers receive interleaved per-event callbacks; traced machines
//     run sequentially, as before.
//
// Determinism: an epoch either commits bit-identically to sequential
// stepping or vanishes without trace, so the worker count — and the
// scheduling of worker threads — cannot leak into results. Only the
// machine.clock.* accounting (epochs, fails, committed cycles) tells
// the modes apart.
const (
	// epochMin is the smallest horizon worth a checkpoint; hazard-clamped
	// attempts below it burst sequentially instead.
	epochMin = 256
	// epochStart/epochMax bound the adaptive epoch length: grown gently
	// after every committed epoch, re-learned from observed block points
	// on failures.
	epochStart = 4096
	epochMax   = 1 << 16
	// failSlackMin/failSlackMax bound the doubling sequential backoff
	// after failed or declined attempts.
	failSlackMin = 256
	failSlackMax = 1 << 20
	// epochSlice is the time-slice granularity at which workers advance
	// their cores (see the cadence note in runParallel).
	epochSlice = 512
	// epochMarkInterval is how many loop iterations a core runs between
	// polls of the shared early-abort watermark within a slice.
	epochMarkInterval = 64
)

var epochDebug = os.Getenv("SFENCE_EPOCH_DEBUG") != ""

// epochResult is one core's outcome for one epoch attempt.
type epochResult struct {
	wasDone   bool  // already finished when the epoch began (not checkpointed)
	blocked   bool  // hit the local-only gate or faulted: abort everything
	blockedAt int64 // cycle of the gated tick (exact for the earliest across cores)
	doneAt    int64 // cycle whose tick finished the core; -1 if it reached the horizon
}

// coreCursor is one core's resumable position within an epoch attempt:
// workers step cores slice by slice, so a core's in-epoch loop state
// lives here between slices.
type coreCursor struct {
	cur      int64 // next cycle to execute (the core's own clock trails by one)
	begun    bool  // EpochBegin ran: the core must be committed or aborted
	finished bool  // res is final; no further slices
	res      epochResult
}

// runParallel drives Run when cfg.Parallel.Workers > 1: sequential legs
// glued by optimistic epochs. Entry conditions match runSeq's (no
// fault, not done, ctx live).
func (m *Machine) runParallel(ctx context.Context, limit int64) (int64, error) {
	workers := m.cfg.Parallel.Workers
	if workers > len(m.cores) {
		workers = len(m.cores)
	}
	if workers < 2 || m.traced() {
		_, err := m.runSeq(ctx, limit, limit)
		return m.cycle, err
	}
	states := make([]cpu.EpochState, len(m.cores))
	cursors := make([]coreCursor, len(m.cores))
	epochLen := int64(epochStart)
	failSlack := int64(failSlackMin)
	burstUntil := m.cycle
	// knownBlock is a discovered interaction cycle: when an aborted
	// epoch's purely-local prefix is retried and committed, its horizon
	// is exactly the earliest interaction, so attempting another epoch
	// there would abort immediately — burst sequentially instead.
	knownBlock := int64(-1)
	done := ctx.Done()
	for {
		fin, err := m.runSeq(ctx, limit, burstUntil)
		if fin || err != nil {
			return m.cycle, err
		}
		select {
		case <-done:
			return m.cycle, ctx.Err()
		default:
		}
		T := m.cycle
		if !m.epochSafe() {
			// Speculative loads in flight: transient; burst past them.
			burstUntil = T + failSlack
			failSlack = min(failSlack*2, failSlackMax)
			continue
		}
		E := m.epochHorizon(T, min(T+epochLen, limit))
		if E-T < epochMin {
			// A pending drain on a possibly-shared line lands too soon for
			// an epoch to pay off; step sequentially through it.
			burstUntil = max(E+1, T+failSlack)
			failSlack = min(failSlack*2, failSlackMax)
			continue
		}
		m.clock.Epochs++
		// abortMark is the early-stop watermark: the minimum cycle at
		// which any core has blocked so far. Once a core blocks, the
		// epoch is doomed; other cores stop as soon as they notice they
		// are past the watermark instead of running to the horizon. A
		// core that stops early has provably not blocked before its stop
		// cycle (>= the watermark), so the minimum over reported
		// blockedAt values stays the exact earliest interaction.
		//
		// Workers advance their cores in epochSlice-sized time slices
		// rather than running each core to the horizon: that bounds the
		// work wasted on a doomed epoch to roughly one slice per core —
		// in particular on few-CPU hosts, where a worker goroutine could
		// otherwise finish its whole share before the goroutine holding
		// the earliest blocker ever got scheduled.
		var abortMark atomic.Int64
		abortMark.Store(E)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for lo := T; lo < E; lo += epochSlice {
					if abortMark.Load() <= lo {
						// Every live core this worker owns has advanced to at
						// least lo, at or past the earliest block: stop.
						break
					}
					hi := min(lo+epochSlice, E)
					live := false
					for i := w; i < len(m.cores); i += workers {
						if m.runCoreEpochSlice(i, T, hi, E, &cursors[i], &states[i], &abortMark) {
							live = true
						}
					}
					if !live {
						break
					}
				}
			}(w)
		}
		wg.Wait()

		blockedAt := int64(-1)
		allDone := true
		maxDone := int64(-1)
		for i := range cursors {
			cc := &cursors[i]
			if !cc.begun && !cc.finished {
				// Never started: its worker stopped before the core's first
				// slice, which only happens on a doomed attempt. Nothing to
				// restore, and its (unknown) block point cannot lower the
				// minimum below the watermark that stopped the worker.
				allDone = false
				continue
			}
			r := &cc.res
			if r.wasDone {
				continue
			}
			if r.blocked {
				if blockedAt < 0 || r.blockedAt < blockedAt {
					blockedAt = r.blockedAt
				}
				continue
			}
			if r.doneAt < 0 {
				allDone = false
			} else if r.doneAt > maxDone {
				maxDone = r.doneAt
			}
		}
		if blockedAt >= 0 {
			// Abort: restore every checkpointed core and re-run the span.
			// blockedAt is the exact cycle of the earliest cross-core
			// interaction — before it, every core ran purely locally,
			// i.e. exactly its sequential trajectory.
			for i := range m.cores {
				if cursors[i].begun {
					m.cores[i].EpochAbort(&states[i])
				}
				cursors[i] = coreCursor{}
			}
			m.clock.EpochFails++
			if epochDebug {
				println("epoch abort: T=", T, "E=", E, "blockedAt=", blockedAt)
			}
			if gap := blockedAt - T; gap >= 2*epochMin {
				// Long purely-local prefix. Before the earliest blockedAt
				// every core ran purely locally, and per-core epoch
				// stepping is deterministic, so retrying right now with
				// the horizon set exactly to blockedAt is guaranteed to
				// commit (barring a fresh hazard clamp): the prefix is
				// recovered in parallel instead of re-run sequentially.
				// Workloads that interleave long compute phases with
				// periodic synchronization land here once per phase.
				epochLen = gap
				burstUntil = m.cycle // == T: no sequential leg, retry now
				failSlack = failSlackMin
				knownBlock = blockedAt
			} else {
				// Interaction-dense: stretch the sequential leg with a
				// doubling backoff so clustered interactions are crossed
				// in one go. Keep the learned epoch length — the dense
				// cluster says nothing about the next compute phase.
				burstUntil = blockedAt + failSlack
				failSlack = min(failSlack*2, failSlackMax)
			}
			continue
		}
		for i := range m.cores {
			if cursors[i].begun {
				m.cores[i].EpochCommit()
			}
			cursors[i] = coreCursor{}
		}
		if allDone {
			// Sequential stepping would have returned right after the tick
			// that finished the last core.
			m.cycle = maxDone + 1
			m.clock.EpochCycles += m.cycle - T
			return m.cycle, nil
		}
		m.cycle = E
		m.clock.EpochCycles += E - T
		failSlack = failSlackMin
		// Probe gently upward after a commit: an abort throws away the
		// whole attempt, so overshooting a periodic interaction cadence
		// by 2x (doubling) would forfeit every other epoch.
		epochLen = min(epochLen+epochLen/4, epochMax)
		burstUntil = m.cycle
		if E == knownBlock {
			// This commit recovered an aborted epoch's local prefix; its
			// horizon is the exact cycle of the earliest interaction, so
			// cross it sequentially rather than aborting into it.
			burstUntil = m.cycle + failSlackMin
		}
		knownBlock = -1
	}
}

// epochSafe reports the transient epoch precondition: no load anywhere
// is speculatively past a fence. Such a load's replay depends on
// remote-store deliveries the isolated epoch cores cannot exchange.
func (m *Machine) epochSafe() bool {
	for _, c := range m.cores {
		if c.SpecLoadsInFlight() > 0 {
			return false
		}
	}
	return true
}

// epochHorizon clamps the proposed horizon below the completion cycle
// of every pre-epoch in-flight write whose target line the directory
// says another core may still share (or whose line it no longer
// tracks). Such writes complete in-epoch unconditionally — they paid
// their hierarchy access before the epoch — and a foreign reader of the
// line would race with the Image mutation; excluding the completion
// cycle from the epoch makes the drain happen on the sequential side.
func (m *Machine) epochHorizon(from, proposed int64) int64 {
	e := proposed
	for i, c := range m.cores {
		c.ForEachPendingGlobalWrite(func(addr, at int64) {
			if at < e && m.hier.SharersBesides(i, addr) {
				e = at
			}
		})
	}
	if e < from {
		e = from
	}
	return e
}

// runCoreEpochSlice advances core i within the current epoch attempt
// from its cursor to at most cycle hi (the slice bound; to is the
// epoch horizon), with the local-only gate armed. The first slice
// checkpoints the core. Inside the epoch the core runs its own private
// two-speed loop — slow ticks while active, whole-period spin jumps
// while in a confirmed spin, fast-forwards while quiescent — which by
// the clock-equivalence invariant yields the same state as pure
// ticking. The cursor keeps the sequential loop's phase convention:
// the core's own clock trails the cursor by one. Returns whether the
// core is still live (wants further slices).
func (m *Machine) runCoreEpochSlice(i int, from, hi, to int64, cc *coreCursor, s *cpu.EpochState, abortMark *atomic.Int64) bool {
	if cc.finished {
		return false
	}
	c := m.cores[i]
	if !cc.begun {
		if c.Done() {
			cc.res = epochResult{wasDone: true}
			cc.finished = true
			return false
		}
		c.EpochBegin(s)
		cc.begun = true
		cc.cur = from
	}
	cur := cc.cur
	if cur >= abortMark.Load() {
		// Another core blocked at or before our cursor: the epoch will
		// abort, and this core has provably not blocked up to here, so
		// its remaining span cannot lower the minimum.
		cc.res = epochResult{doneAt: -1}
		cc.finished = true
		return false
	}
	markCheck := epochMarkInterval
	for cur < hi {
		if markCheck--; markCheck <= 0 {
			markCheck = epochMarkInterval
			if cur >= abortMark.Load() {
				cc.res = epochResult{doneAt: -1}
				cc.finished = true
				return false
			}
		}
		// Mirror the sequential loop's structure: tick first, and only
		// consult the fast-path predicates on a core that just reported a
		// quiet tick. (A core that has not been ticked at the current
		// cycle is "inactive" with no scheduled wakeup — jumping on that
		// reading would skip its entire program.)
		c.Tick(cur)
		cur++
		if c.EpochBlocked() || c.Fault() != nil {
			// A fault aborts too: the sequential re-run rediscovers it at
			// its exact cycle, with every other core in its true state.
			// Publish the block cycle so sibling cores stop early.
			for {
				old := abortMark.Load()
				if cur-1 >= old || abortMark.CompareAndSwap(old, cur-1) {
					break
				}
			}
			cc.res = epochResult{blocked: true, blockedAt: cur - 1}
			cc.finished = true
			return false
		}
		if c.Done() {
			cc.res = epochResult{doneAt: cur - 1}
			cc.finished = true
			return false
		}
		if c.SpinActive() {
			// A confirmed spinner is Active (it executes instructions), so
			// this check must come first. Whole spin periods jump in bulk;
			// the sub-period remainder near the slice bound is slow-ticked.
			if p := c.SpinPeriod(); p > 0 {
				if k := (hi - cur) / p; k > 0 {
					c.SpinForward(k * p)
					cur += k * p
				}
			}
			continue
		}
		if c.Active() {
			continue
		}
		if w := c.NextWakeup(); w > cur {
			if w > hi {
				w = hi
			}
			c.FastForward(w - cur)
			cur = w
		}
	}
	cc.cur = cur
	if cur >= to {
		cc.res = epochResult{doneAt: -1}
		cc.finished = true
		return false
	}
	return true
}
