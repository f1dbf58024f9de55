// Package machine assembles cores, the cache hierarchy, and the memory
// image into a deterministic chip-multiprocessor: a single global clock
// ticks every core in a fixed order, so every run of the same program and
// configuration produces bit-identical results.
//
// Construction (New) also wires the observability substrate: every
// component registers its counters into one stats.Registry — core
// pipeline and S-Fence hardware stats under "coreN.*", that core's
// per-cache-level counters under "coreN.mem.l<k>_*", machine-wide
// derived sums and the clock accounting under "machine.*" — and
// StatsSnapshot evaluates all of it into one deterministically ordered
// snapshot.
//
// Run is a two-speed event-driven loop: per-cycle stepping while any
// core makes progress, and a fast-forward jump to the earliest per-core
// wakeup when every core is quiescent, with skipped cycles credited so
// results stay bit-identical to naive stepping. Cores in a confirmed
// busy-wait spin are parked off the loop and caught up when something
// reaches them (see DESIGN.md, "The two-speed event-driven clock").
package machine

import (
	"context"
	"fmt"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/memsys"
	"sfence/internal/stats"
)

// Config aggregates the whole-machine parameters.
type Config struct {
	Cores     int
	Core      cpu.Config
	Mem       memsys.Config
	ImageSize int64 // bytes of simulated physical memory
	// MaxCycles aborts Run when exceeded (0 means the DefaultMaxCycles
	// safety net).
	MaxCycles int64
}

// DefaultMaxCycles is the runaway-simulation safety net.
const DefaultMaxCycles = 200_000_000

// DefaultConfig returns the paper's Table III machine: an 8-core CMP with
// the default core and memory-system parameters.
func DefaultConfig() Config {
	return Config{
		Cores:     8,
		Core:      cpu.DefaultConfig(),
		Mem:       memsys.DefaultConfig(),
		ImageSize: 64 << 20,
	}
}

// Validate checks the aggregate configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > memsys.MaxCores {
		return fmt.Errorf("machine: %d cores out of range [1,%d]", c.Cores, memsys.MaxCores)
	}
	if c.ImageSize < 1024 {
		return fmt.Errorf("machine: image size %d too small", c.ImageSize)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}

// Thread describes one hardware thread: its entry point and initial
// register values.
type Thread struct {
	Entry string // program entry-point name
	Regs  map[isa.Reg]int64
}

// Machine is a running simulation instance.
type Machine struct {
	cfg   Config
	prog  *isa.Program
	img   *memsys.Image
	hier  *memsys.Hierarchy
	cores []*cpu.Core
	cycle int64

	reg   *stats.Registry
	clock ClockStats

	// parked[i] marks core i as parked in a confirmed spin: runSeq no
	// longer ticks it, and its own clock (Core.Cycle) lags the machine's
	// until unpark catches it up. ticking is the index of the core whose
	// Tick is in progress; it places a delivery to a parked core in the
	// cycle's fixed tick order.
	parked  []bool
	ticking int
}

// ClockStats reports how the two-speed clock spent a Run: SlowTicks is the
// number of cycles stepped one by one, SkippedCycles the cycles covered by
// fast-forward jumps, and Jumps the number of jumps. SpinJumps counts the
// jumps taken while at least one core was parked in a confirmed busy-wait
// spin (see cpu's spin detector), and SpinSkippedCycles the cycles those
// jumps covered — both are included in Jumps/SkippedCycles, not
// additional. The cycles each core itself spent spin-forwarded, slow
// ticks included, are the per-core machine.clock.coreN_spin_* counters.
// TracerPinned records that fast-forwarding was disabled because a
// per-cycle pipeline tracer was attached — so zero jumps on a traced run
// reads as "pinned", not "never idle". SlowTicks+SkippedCycles equals
// the final cycle count. All of it lives under machine.clock.* because
// it describes how the clock ran, not what the simulated hardware did.
type ClockStats struct {
	SlowTicks         int64
	SkippedCycles     int64
	Jumps             int64
	SpinJumps         int64
	SpinSkippedCycles int64
	TracerPinned      bool
}

// New builds a machine running prog with one thread per entry of threads.
// Thread i runs on core i; cores beyond len(threads) stay idle.
func New(cfg Config, prog *isa.Program, threads []Thread) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("machine: program rejected: %w", err)
	}
	if len(threads) == 0 || len(threads) > cfg.Cores {
		return nil, fmt.Errorf("machine: %d threads for %d cores", len(threads), cfg.Cores)
	}
	img := memsys.NewImage(cfg.ImageSize)
	hier, err := memsys.NewHierarchy(cfg.Cores, cfg.Mem)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, prog: prog, img: img, hier: hier, reg: stats.NewRegistry()}
	root := m.reg.Root()
	for i, th := range threads {
		pc, err := prog.Entry(th.Entry)
		if err != nil {
			return nil, err
		}
		core, err := cpu.NewCore(i, cfg.Core, prog, pc, th.Regs, img, hier)
		if err != nil {
			return nil, err
		}
		core.OnStoreComplete = m.broadcastStore
		m.cores = append(m.cores, core)
		m.parked = append(m.parked, false)
		// Every component owns its counters and registers them here, at
		// construction, under its place in the hierarchy: core pipeline
		// and S-Fence hardware stats under "coreN.*", its cache-side
		// counters under "coreN.mem.*".
		g := root.Sub(fmt.Sprintf("core%d", i))
		core.RegisterStats(g)
		hier.RegisterStats(g.Sub("mem"), i)
	}
	// Remote coherence actions (invalidations, downgrades) are reported
	// line-by-line to the victim core's spin detector, which drops any
	// detection whose loop reads the disturbed line. The report comes
	// before the action changes the line, so a parked core that reads it
	// is first caught up against the copy it still holds. Cores beyond the
	// thread count have no spin state worth perturbing.
	hier.OnDisturb = func(core int, line int64) {
		if core >= len(m.cores) {
			return
		}
		c := m.cores[core]
		if m.parked[core] {
			if !c.SpinReadsLine(line) {
				return
			}
			m.wake(core)
		}
		c.SpinNoteLineDisturb(line)
	}
	m.registerMachineStats(root.Sub("machine"))
	return m, nil
}

// registerMachineStats publishes the whole-machine derived stats: the
// global cycle, cross-core sums (what TotalStats reports), memory-system
// totals, the two-speed clock accounting, and the paper's headline
// fence-stall fraction. All are closures evaluated only at snapshot time.
func (m *Machine) registerMachineStats(g *stats.Group) {
	sum := func(pick func(*cpu.Stats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, c := range m.cores {
				t += pick(c.Stats())
			}
			return t
		}
	}
	g.Derived("cycles", "current global cycle", func() uint64 { return uint64(m.cycle) })
	g.Derived("core_cycles", "active cycles summed across cores", sum(func(s *cpu.Stats) uint64 { return s.Cycles.Get() }))
	g.Derived("committed", "committed instructions summed across cores", sum(func(s *cpu.Stats) uint64 { return s.Committed.Get() }))
	g.Derived("committed_fences", "committed fences summed across cores", sum(func(s *cpu.Stats) uint64 { return s.CommittedFences.Get() }))
	g.Derived("fence_stall_cycles", "fence stall cycles summed across cores", sum(func(s *cpu.Stats) uint64 { return s.FenceStallCycles.Get() }))
	g.Derived("fence_idle_cycles", "fence idle cycles summed across cores (the stacked-bar metric)", sum(func(s *cpu.Stats) uint64 { return s.FenceIdleCycles.Get() }))
	g.Derived("mispredicts", "branch mispredictions summed across cores", sum(func(s *cpu.Stats) uint64 { return s.Mispredicts.Get() }))
	g.Formula("fence_stall_fraction", "fence idle cycles over total core cycles", func() float64 {
		t := m.TotalStats()
		return t.FenceStallFraction()
	})

	// One cross-core miss sum per cache level, plus hit sums for the
	// shared levels (private-level hits stay a per-core property under
	// coreN.mem.l<k>_hits).
	mem := g.Sub("mem")
	for k := 0; k < m.hier.Depth(); k++ {
		k := k
		n := k + 1
		mem.Derived(fmt.Sprintf("l%d_misses", n), fmt.Sprintf("L%d misses summed across cores", n),
			func() uint64 { return m.hier.LevelMisses(k) })
		if m.hier.LevelConfig(k).Shared {
			mem.Derived(fmt.Sprintf("l%d_hits", n), fmt.Sprintf("L%d hits summed across cores", n),
				func() uint64 { return m.hier.LevelHits(k) })
		}
	}

	clock := g.Sub("clock")
	clock.Derived("slow_ticks", "cycles stepped one by one by the two-speed clock", func() uint64 { return uint64(m.clock.SlowTicks) })
	clock.Derived("skipped_cycles", "cycles covered by fast-forward jumps", func() uint64 { return uint64(m.clock.SkippedCycles) })
	clock.Derived("jumps", "fast-forward jumps taken", func() uint64 { return uint64(m.clock.Jumps) })
	clock.Derived("spin_jumps", "jumps taken while at least one core was parked in a confirmed spin", func() uint64 { return uint64(m.clock.SpinJumps) })
	clock.Derived("spin_skipped_cycles", "cycles covered by jumps taken while a core was parked", func() uint64 { return uint64(m.clock.SpinSkippedCycles) })
	clock.Derived("tracer_pinned", "1 when a per-cycle tracer disabled fast-forwarding", func() uint64 {
		if m.clock.TracerPinned {
			return 1
		}
		return 0
	})
	// Per-core spin accounting lives under machine.clock (not coreN.*) on
	// purpose: spin counters describe how the clock ran, not what the
	// simulated hardware did, and everything outside machine.clock.* must
	// stay bit-identical between the naive and event-driven clocks.
	for i, c := range m.cores {
		c := c
		clock.Derived(fmt.Sprintf("core%d_spin_jumps", i), fmt.Sprintf("spin-forward jumps applied to core %d", i),
			c.SpinJumps)
		clock.Derived(fmt.Sprintf("core%d_spin_skipped_cycles", i), fmt.Sprintf("cycles core %d skipped inside confirmed spins", i),
			c.SpinSkippedCycles)
	}
}

// StatsRegistry exposes the machine's hierarchical statistics registry.
func (m *Machine) StatsRegistry() *stats.Registry { return m.reg }

// StatsSnapshot evaluates every registered stat — per-core pipeline and
// S-Fence hardware counters, per-core cache counters, machine totals, and
// clock accounting — into one deterministically ordered snapshot.
func (m *Machine) StatsSnapshot() stats.Snapshot { return m.reg.Snapshot() }

// broadcastStore delivers a completed store to the cores that might care.
// Only a core holding a load that speculatively executed past a fence can
// react to a remote store (see Core.NoteRemoteStore), so the spec-load
// occupancy count is an exact snoop filter: skipped cores would have
// treated the notification as a no-op. This subsumes a directory-mask
// filter (a core with a speculative load on the line is a sharer), and
// unlike the directory's sharer mask — which an intervening write to the same line
// resets while the speculative load is still in flight — it can never skip
// a core that must replay. See DESIGN.md, "Snoop filtering".
// Spin detection rides the same event: the store's cache access already
// perturbed remote copies when it ISSUED (coherence traffic bumps the
// victims' memory versions), but the Image word only changes at
// completion, right after this call — potentially hundreds of cycles
// later, with no coherence action at all if the spinner re-fetched the
// line in between. A core spinning on this address must therefore be
// dropped out of its confirmed spin here, immediately, before the machine
// decides whether to jump past the cycle in which the new value becomes
// readable. A parked core whose orbit reads the word is first caught up
// against the old value; any other parked core is left alone, because
// nothing it computes depends on the word.
func (m *Machine) broadcastStore(from int, addr int64) {
	for i, c := range m.cores {
		if i == from {
			continue
		}
		if m.parked[i] {
			if !c.SpinReads(addr) {
				continue
			}
			m.wake(i)
		}
		c.SpinNoteRemoteStore(addr)
		if c.SpecLoadsInFlight() > 0 {
			c.NoteRemoteStore(addr)
		}
	}
}

// Image exposes the memory image for initialization and verification.
func (m *Machine) Image() *memsys.Image { return m.img }

// Hierarchy exposes the cache hierarchy (for statistics).
func (m *Machine) Hierarchy() *memsys.Hierarchy { return m.hier }

// Cycle returns the current global cycle.
func (m *Machine) Cycle() int64 { return m.cycle }

// Cores returns the number of active cores (threads).
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns the i-th core.
func (m *Machine) Core(i int) *cpu.Core { return m.cores[i] }

// Step advances the machine one cycle, ticking every core: it is the
// naive per-cycle reference the event-driven Run is checked against.
func (m *Machine) Step() {
	m.stepCycle(false)
}

// stepCycle ticks every core that is not parked and folds the
// whole-machine status scans into the same pass, so Run does not re-walk
// the cores for Done/Fault every cycle: it reports whether all cores are
// done, the first core fault, and whether any core is still active (made
// forward progress this cycle or holds undelivered snoop notifications).
// A core in a confirmed stable spin does not count as active even though
// it progresses every cycle — that is the whole point of spin detection;
// with park set it is parked until an interaction reaches it (see
// runSeq). A parked core is neither done nor faulted. The active flag can
// be stale when a later core's tick wakes a parked or spinning earlier
// core; the jump block in runSeq re-reads every unparked core's
// NextWakeup, which yields a zero-length jump for such a core.
func (m *Machine) stepCycle(park bool) (allDone bool, fault error, active bool) {
	allDone = true
	for i, c := range m.cores {
		if m.parked[i] {
			allDone = false
			continue
		}
		m.ticking = i
		c.Tick(m.cycle)
		if !c.Done() {
			allDone = false
		}
		if c.SpinActive() {
			m.parked[i] = park
		} else if c.Active() {
			active = true
		}
		if fault == nil {
			fault = c.Fault()
		}
	}
	m.cycle++
	m.clock.SlowTicks++
	return allDone, fault, active
}

// wake unparks core i for a delivery from the core now ticking. Cores
// before the ticking one in the tick order have already ticked this
// cycle, so they are caught up through it; cores after it tick this cycle
// in the ordinary loop, so they are caught up through the previous one.
func (m *Machine) wake(i int) {
	to := m.cycle - 1
	if i < m.ticking {
		to = m.cycle
	}
	m.unpark(i, to)
}

// unpark returns parked core i to the tick loop, caught up so that its
// last tick is cycle to: whole spin periods through SpinForward, single
// Ticks for the remainder. Nothing the orbit reads has changed since the
// core was parked — every change it could see is delivered, and so wakes
// it, before it is made — so the result is bit-identical to having ticked
// the core all along.
func (m *Machine) unpark(i int, to int64) {
	m.parked[i] = false
	c := m.cores[i]
	if k := (to - c.Cycle()) / c.SpinPeriod(); k > 0 {
		c.SpinForward(k * c.SpinPeriod())
	}
	for cyc := c.Cycle() + 1; cyc <= to; cyc++ {
		c.Tick(cyc)
	}
}

// unparkAll catches every parked core up to the last completed cycle, so
// that whoever reads the machine next sees all cores at one cycle.
func (m *Machine) unparkAll() {
	for i, p := range m.parked {
		if p {
			m.unpark(i, m.cycle-1)
		}
	}
}

// Clock returns the two-speed clock's accounting so far.
func (m *Machine) Clock() ClockStats { return m.clock }

// Done reports whether every core has halted and drained.
func (m *Machine) Done() bool {
	for _, c := range m.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Fault returns the first core fault, if any.
func (m *Machine) Fault() error {
	for _, c := range m.cores {
		if err := c.Fault(); err != nil {
			return err
		}
	}
	return nil
}

// traced reports whether any core has a pipeline tracer attached. Tracers
// observe per-cycle events — notably one TraceFenceStall per stalled cycle
// — so a traced machine must step every cycle (the slow path).
func (m *Machine) traced() bool {
	for _, c := range m.cores {
		if c.Traced() {
			return true
		}
	}
	return false
}

// ctxCheckInterval bounds how many cycle-loop iterations Run executes
// between context checks. A channel poll per cycle would slow the hot
// loop measurably; a poll every few thousand iterations keeps the
// overhead unmeasurable while still reacting to cancellation within
// microseconds of wall-clock time.
const ctxCheckInterval = 4096

// Run executes until every core is done, a core faults, the context is
// cancelled, or the cycle budget is exhausted. It returns the total cycle
// count. A cancelled or expired context makes Run return promptly with
// ctx.Err() (checked every ctxCheckInterval loop iterations, so a
// simulation can be time-boxed with context.WithTimeout or aborted with
// context.WithCancel mid-cycle-loop); the machine is left at the cycle it
// reached and is safe to inspect, but not to resume.
//
// Run is a two-speed, event-driven loop: while any core is active the
// machine ticks cycle by cycle, but when every core is quiescent —
// waiting on cache misses, store-buffer drains, or redirect bubbles — the
// clock jumps straight to the earliest per-core wakeup, crediting the
// skipped cycles to each core's stall accounting exactly as per-cycle
// stepping would have. A core whose tick leaves it in a confirmed spin is
// parked: it is not ticked again until a store or coherence action that
// its orbit can notice reaches it, or Run returns, and is then caught up
// to that exact point. The per-cycle timing model is untouched: results
// and statistics are bit-identical to naive stepping (asserted by
// TestClockEquivalence), and every core is at the same cycle when Run
// returns. Attaching a tracer pins the slow path and disables parking,
// because tracers observe per-cycle events.
func (m *Machine) Run(ctx context.Context) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	limit := m.cfg.MaxCycles
	if limit <= 0 {
		limit = DefaultMaxCycles
	}
	if err := ctx.Err(); err != nil {
		return m.cycle, err
	}
	if m.Done() {
		return m.cycle, nil
	}
	// A pre-existing fault (from manual stepping) is checked once; from
	// here on stepCycle reports faults as they happen, so the loop never
	// re-scans the cores.
	if err := m.Fault(); err != nil {
		return m.cycle, err
	}
	err := m.runSeq(ctx, limit)
	return m.cycle, err
}

// runSeq is the two-speed loop: it returns nil when every core finished,
// and an error on a fault, an exhausted cycle budget, or cancellation.
// Every return catches the parked cores up first.
func (m *Machine) runSeq(ctx context.Context, limit int64) error {
	defer m.unparkAll()
	park := !m.traced()
	done := ctx.Done()
	untilCheck := ctxCheckInterval
	for {
		if untilCheck--; untilCheck <= 0 {
			untilCheck = ctxCheckInterval
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if m.cycle >= limit {
			return fmt.Errorf("machine: exceeded %d cycles (livelock or runaway program?)", limit)
		}
		allDone, fault, active := m.stepCycle(park)
		if allDone {
			return nil
		}
		if fault != nil {
			return fault
		}
		if active {
			continue
		}
		if !park {
			// Record explicitly that fast-forwarding is disabled, so a
			// traced run's Clock() reads "pinned" instead of silently
			// showing zero jumps.
			m.clock.TracerPinned = true
			continue
		}
		// Every unparked core is idle: fast-forward them to the earliest
		// wakeup among them. Parked cores keep their own lagging clocks and
		// need no wakeup — something unparked must act to reach them. A
		// core with no scheduled event reports cpu.NeverWakes; if all do (a
		// deadlocked or all-spinning program), the clamp below jumps
		// straight to the cycle budget, where the loop reports the same
		// livelock error — with the same statistics, once the parked cores
		// are caught up — the naive clock would have spun its way to.
		wake := cpu.NeverWakes
		nParked := 0
		for i, c := range m.cores {
			if m.parked[i] {
				nParked++
				continue
			}
			if w := c.NextWakeup(); w < wake {
				wake = w
			}
		}
		if wake > limit {
			wake = limit
		}
		d := wake - m.cycle
		if d <= 0 {
			continue
		}
		for i, c := range m.cores {
			if !m.parked[i] {
				c.FastForward(d)
			}
		}
		m.cycle += d
		m.clock.SkippedCycles += d
		m.clock.Jumps++
		if nParked > 0 {
			m.clock.SpinJumps++
			m.clock.SpinSkippedCycles += d
		}
	}
}

// TotalStats aggregates core statistics across the machine.
func (m *Machine) TotalStats() cpu.Stats {
	var t cpu.Stats
	for _, c := range m.cores {
		t.Add(c.Stats())
	}
	return t
}
