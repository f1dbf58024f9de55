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
// Run is an event-driven loop with one wakeup per core: it ticks a core
// only at the cycle its state can next change, credits the idle cycles it
// skipped when it next ticks, and jumps the clock to the earliest wakeup
// when no core is due, so results stay bit-identical to naive stepping.
// Cores in a confirmed busy-wait spin are parked off the loop and caught
// up when something reaches them (see DESIGN.md, "The event-driven
// clock").
package machine

import (
	"context"
	"fmt"
	"math/bits"

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

	// due[i] is the cycle at which Run next ticks core i. A core whose
	// tick changed nothing is due at its NextWakeup: every cycle before
	// that would repeat the same idle tick, so Run skips them and credits
	// them with FastForward when the core is next ticked or caught up. A
	// core parked in a confirmed spin is due at parked, which no cycle
	// reaches; it is caught up with SpinForward when an interaction
	// reaches it. nParked counts the parked cores, and nextDue is the
	// earliest due cycle the current cycle has scheduled. ticking is the
	// index of the core whose Tick is in progress; it places a catch-up
	// in the cycle's fixed tick order.
	due     []int64
	nextDue int64
	nParked int
	ticking int
	limit   int64 // cycle budget: MaxCycles or DefaultMaxCycles

	// listening has bit i set while core i can react to a remote store
	// (see Core.Listening). A core's bit is refreshed after each of its
	// ticks and catch-ups, the only places it can start listening, so a
	// stale bit can only be set: broadcastStore then visits a core for
	// which the delivery is a no-op, and never skips one that would act.
	listening []uint64
}

// ClockStats reports how the event-driven clock spent a Run: SlowTicks is
// the number of cycles stepped one by one (whether they ticked every core
// or only the few that were due), SkippedCycles the cycles covered by
// jumps taken when no core was due, and Jumps the number of jumps.
// SpinJumps counts the jumps taken while at least one core was parked in
// a confirmed busy-wait spin (see cpu's spin detector), and
// SpinSkippedCycles the cycles those jumps covered — both are included in
// Jumps/SkippedCycles, not additional. The cycles each core itself spent
// spin-forwarded, slow ticks included, are the per-core
// machine.clock.coreN_spin_* counters. CoreTicks counts the Core.Tick
// calls the machine made, the single ticks that finish a parked core's
// catch-up included: a core skipped while it waits, or parked, takes none,
// so CoreTicks over the summed core cycles is the share of core-cycles
// actually simulated tick by tick. StoreVisits counts the cores
// broadcastStore visited to deliver completed stores, which only
// listening cores are. TracerPinned records that skipping was
// disabled because a per-cycle pipeline tracer was attached — so zero
// jumps on a traced run reads as "pinned", not "never idle".
// SlowTicks+SkippedCycles equals the final cycle count. All of it lives
// under machine.clock.* because it describes how the clock ran, not what
// the simulated hardware did.
type ClockStats struct {
	SlowTicks         int64
	SkippedCycles     int64
	Jumps             int64
	SpinJumps         int64
	SpinSkippedCycles int64
	CoreTicks         int64
	StoreVisits       int64
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
	m := &Machine{cfg: cfg, prog: prog, img: img, hier: hier, reg: stats.NewRegistry(), limit: cfg.MaxCycles,
		listening: make([]uint64, (len(threads)+63)/64)}
	if m.limit <= 0 {
		m.limit = DefaultMaxCycles
	}
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
		m.due = append(m.due, 0)
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
		if m.due[core] == parked {
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
// totals, the event-driven clock accounting, and the paper's headline
// fence-stall fraction. All are closures evaluated only at snapshot time.
func (m *Machine) registerMachineStats(g *stats.Group) {
	sum := func(pick func(*cpu.Core) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, c := range m.cores {
				t += pick(c)
			}
			return t
		}
	}
	g.Derived("cycles", "current global cycle", func() uint64 { return uint64(m.cycle) })
	g.Derived("core_cycles", "active cycles summed across cores", sum(func(c *cpu.Core) uint64 { return c.Stats().Cycles.Get() }))
	g.Derived("committed", "committed instructions summed across cores", sum(func(c *cpu.Core) uint64 { return c.Stats().Committed.Get() }))
	g.Derived("committed_fences", "committed fences summed across cores", sum(func(c *cpu.Core) uint64 { return c.Stats().CommittedFences.Get() }))
	g.Derived("fence_stall_cycles", "fence stall cycles summed across cores", sum(func(c *cpu.Core) uint64 { return c.Stats().FenceStallCycles.Get() }))
	g.Derived("fence_idle_cycles", "fence idle cycles summed across cores (the stacked-bar metric)", sum(func(c *cpu.Core) uint64 { return c.Stats().FenceIdleCycles.Get() }))
	g.Derived("mispredicts", "branch mispredictions summed across cores", sum(func(c *cpu.Core) uint64 { return c.Stats().Mispredicts.Get() }))
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
	clock.Derived("slow_ticks", "cycles stepped one by one by the event-driven clock", func() uint64 { return uint64(m.clock.SlowTicks) })
	clock.Derived("skipped_cycles", "cycles covered by fast-forward jumps", func() uint64 { return uint64(m.clock.SkippedCycles) })
	clock.Derived("jumps", "fast-forward jumps taken", func() uint64 { return uint64(m.clock.Jumps) })
	clock.Derived("spin_jumps", "jumps taken while at least one core was parked in a confirmed spin", func() uint64 { return uint64(m.clock.SpinJumps) })
	clock.Derived("spin_skipped_cycles", "cycles covered by jumps taken while a core was parked", func() uint64 { return uint64(m.clock.SpinSkippedCycles) })
	clock.Derived("core_ticks", "Core.Tick calls made, catch-up ticks included", func() uint64 { return uint64(m.clock.CoreTicks) })
	clock.Derived("store_visits", "cores visited to deliver a completed store", func() uint64 { return uint64(m.clock.StoreVisits) })
	clock.Derived("spin_observes", "ticks in which a spin detector ran past its gate, summed across cores", sum((*cpu.Core).SpinObserves))
	clock.Derived("sched_tries", "scheduling tries (tryEntry calls), summed across cores", sum((*cpu.Core).SchedTries))
	clock.Derived("sched_starts", "ROB entries started executing, summed across cores", sum((*cpu.Core).SchedStarts))
	clock.Derived("store_checks", "older stores and CASes a load's ordering check visited, summed across cores", sum((*cpu.Core).StoreChecks))
	clock.Derived("tracer_pinned", "1 when a per-cycle tracer disabled fast-forwarding", func() uint64 {
		if m.clock.TracerPinned {
			return 1
		}
		return 0
	})
	// Per-core spin accounting lives under machine.clock (not coreN.*) on
	// purpose: spin counters describe how the clock ran, not what the
	// simulated hardware did, and everything outside machine.clock.* must
	// stay bit-identical between the naive and event-driven clocks (see
	// Diff).
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

// broadcastStore delivers a completed store to the cores that might care:
// the listening ones, in ascending core order. Only a core holding a load
// that speculatively executed past a fence can replay on a remote store
// (see Core.NoteRemoteStore), and only a core whose spin detector is not
// idle can have its detection dropped by one, so a core that is neither
// would treat the delivery as a no-op. The spec-load count subsumes a
// directory-mask filter (a core with a speculative load on the line is a
// sharer), and unlike the directory's sharer mask — which an intervening
// write to the same line resets while the speculative load is still in
// flight — it can never skip a core that must replay. See DESIGN.md,
// "Snoop filtering".
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
// nothing it computes depends on the word. A skipped core that is handed
// the snoop is first caught up too, so that it takes the snoop on the
// cycle per-cycle stepping would.
func (m *Machine) broadcastStore(from int, addr int64) {
	for w, word := range m.listening {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if i == from {
				continue
			}
			m.clock.StoreVisits++
			c := m.cores[i]
			if m.due[i] == parked {
				if !c.SpinReads(addr) {
					continue
				}
				m.wake(i)
			}
			c.SpinNoteRemoteStore(addr)
			if c.SpecLoadsInFlight() > 0 {
				m.wake(i)
				c.NoteRemoteStore(addr)
			}
		}
	}
}

// listen refreshes core i's bit in the listening set.
func (m *Machine) listen(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if m.cores[i].Listening() {
		m.listening[w] |= b
	} else {
		m.listening[w] &^= b
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

// StepUntil is the naive run: it Steps the machine until every core is
// done, a core faults, or the machine reaches cycle limit. It returns the
// fault, or Run's cycle-budget error if cores are still running at limit.
func (m *Machine) StepUntil(limit int64) error {
	for !m.Done() {
		if err := m.Fault(); err != nil {
			return err
		}
		if m.cycle >= limit {
			return exceeded(limit)
		}
		m.Step()
	}
	return nil
}

// exceeded is the error of a run stopped by its cycle budget.
func exceeded(limit int64) error {
	return fmt.Errorf("machine: exceeded %d cycles (livelock or runaway program?)", limit)
}

// parked is the due cycle of a core parked in a confirmed spin: no cycle
// reaches it, while every other core's due cycle is clamped to the cycle
// budget.
const parked = cpu.NeverWakes

// stepCycle runs one cycle and reports whether every core is done and the
// first core fault; a parked core is neither. Without skip it ticks every
// core: that is Step, and Run with a tracer attached. With skip it ticks
// only the cores due this cycle, each first credited with the idle cycles
// it skipped since its last tick, and schedules each core it ticks: a core
// left in a confirmed stable spin is parked until an interaction reaches
// it, any other is due at its NextWakeup, which is the next cycle if the
// tick made progress. A core skipped this cycle would have repeated its
// last, idle, tick: such a tick reads only the core's own state, and the
// one thing another core can change there, a snoop, catches the core up
// and makes it due first (see broadcastStore).
func (m *Machine) stepCycle(skip bool) (allDone bool, fault error) {
	allDone = true
	m.nextDue = cpu.NeverWakes
	for i, c := range m.cores {
		if skip && m.due[i] > m.cycle {
			if !c.Done() {
				allDone = false
			}
			m.nextDue = min(m.nextDue, m.due[i])
			continue
		}
		m.ticking = i
		c.FastForward(m.cycle - 1 - c.Cycle())
		c.Tick(m.cycle)
		m.clock.CoreTicks++
		m.listen(i)
		if !c.Done() {
			allDone = false
		}
		if fault == nil {
			fault = c.Fault()
		}
		if !skip {
			continue
		}
		if c.SpinActive() {
			m.due[i] = parked
			m.nParked++
			continue
		}
		m.due[i] = min(max(c.NextWakeup(), m.cycle+1), m.limit)
		m.nextDue = min(m.nextDue, m.due[i])
	}
	m.cycle++
	m.clock.SlowTicks++
	return allDone, fault
}

// wake catches core i up for a delivery from the core now ticking. Cores
// before the ticking one in the tick order have had their turn this
// cycle, so they are caught up through it and are due at the next one;
// cores after it take their turn this cycle, so they are caught up
// through the previous one.
func (m *Machine) wake(i int) {
	if i < m.ticking {
		m.catchUp(i, m.cycle)
		m.nextDue = min(m.nextDue, m.due[i])
	} else {
		m.catchUp(i, m.cycle-1)
	}
}

// catchUp brings core i's own clock to cycle to, exactly as ticking it
// every cycle would have, and makes it due at the next one. A skipped core
// repeats one idle tick, so FastForward credits the gap; a parked core is
// spin-forwarded by whole periods and ticked for the remainder. Nothing
// the core reads has changed since its last tick — every change it could
// see is delivered, and so catches it up, before it is made — so the
// result is bit-identical to having ticked the core all along.
func (m *Machine) catchUp(i int, to int64) {
	c := m.cores[i]
	if m.due[i] == parked {
		m.nParked--
		if k := (to - c.Cycle()) / c.SpinPeriod(); k > 0 {
			c.SpinForward(k * c.SpinPeriod())
		}
		for cyc := c.Cycle() + 1; cyc <= to; cyc++ {
			c.Tick(cyc)
			m.clock.CoreTicks++
		}
	} else {
		c.FastForward(to - c.Cycle())
	}
	m.due[i] = to + 1
	m.listen(i)
}

// catchUpAll catches every core up to the last completed cycle, so that
// whoever reads the machine next sees all cores at one cycle.
func (m *Machine) catchUpAll() {
	for i := range m.cores {
		m.catchUp(i, m.cycle-1)
	}
}

// Clock returns the event-driven clock's accounting so far.
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
// Run is an event-driven loop with one wakeup per core: it ticks a core
// only at its due cycle, and jumps the clock to the earliest due cycle
// when no core is due — the whole-machine idle case. A core waiting on a
// cache miss, a store-buffer drain or a redirect bubble is due at its
// NextWakeup, and the idle cycles it skips are credited to its stall
// accounting, exactly as per-cycle stepping would have, when it is next
// ticked or caught up. A core whose tick leaves it in a confirmed spin is
// parked: it is not ticked again until a store or coherence action that
// its orbit can notice reaches it, or Run returns, and is then caught up
// to that exact point. The per-cycle timing model is untouched: results
// and statistics are bit-identical to naive stepping (asserted by
// TestClockEquivalence), and every live core is at the machine's
// Cycle()-1 when Run returns. Attaching a tracer disables skipping and
// parking, because tracers observe per-cycle events.
func (m *Machine) Run(ctx context.Context) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
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
	err := m.runSeq(ctx)
	return m.cycle, err
}

// runSeq is the event-driven loop: it returns nil when every core
// finished, and an error on a fault, an exhausted cycle budget, or
// cancellation. Every return catches the skipped and parked cores up
// first.
func (m *Machine) runSeq(ctx context.Context) error {
	defer m.catchUpAll()
	skip := !m.traced()
	if !skip {
		// Record explicitly that skipping is disabled, so a traced run's
		// Clock() reads "pinned" instead of silently showing zero jumps.
		m.clock.TracerPinned = true
	}
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
		if m.cycle >= m.limit {
			return exceeded(m.limit)
		}
		allDone, fault := m.stepCycle(skip)
		if allDone {
			return nil
		}
		if fault != nil {
			return fault
		}
		// No core due before nextDue: jump there. Parked cores keep their
		// own lagging clocks and are never due — something else must act
		// to reach them. Every other core's due cycle is clamped to the
		// budget, so if no core will wake (a deadlocked or all-spinning
		// program) the clock jumps straight to the budget, where the loop
		// reports the same livelock error — with the same statistics, once
		// the cores are caught up — the naive clock would have spun its way
		// to.
		if !skip || m.nextDue <= m.cycle {
			continue
		}
		d := min(m.nextDue, m.limit) - m.cycle
		m.cycle += d
		m.clock.SkippedCycles += d
		m.clock.Jumps++
		if m.nParked > 0 {
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
