package cpu

import (
	"fmt"
	"math/bits"

	"sfence/internal/isa"
	"sfence/internal/memsys"
	"sfence/internal/stats"
)

// Pipeline stages of a ROB entry.
const (
	stWaiting   uint8 = iota // operands or ordering constraints outstanding
	stExecuting              // execution begun; completes at readyAt
	stDone                   // result available / ready to retire
)

// robEntry is one reorder-buffer slot.
type robEntry struct {
	inst isa.Instruction
	pc   int

	stage   uint8
	readyAt int64

	val  int64 // result (ALU/load/CAS success flag)
	addr int64 // normalized effective address (memory ops)
	sval int64 // store data / CAS new value

	casOld int64 // CAS expected value, latched at execution start

	addrOK   bool
	resolved bool // branches: outcome computed
	faulted  bool // architectural fault if this entry commits

	predTaken bool // predicted direction; the outcome once resolved

	// fence scope state
	fsb        uint8 // fence scope bits (the paper's FSB)
	fenceEntry uint8 // captured scope entry for a speculative fence
	fenceFull  bool  // speculative fence demoted to full-fence behaviour

	specPastFence bool // load executed past an unretired fence (spec mode)
	accessedMem   bool // load/CAS reached the cache hierarchy

	// olderStore is the distance back to the youngest store or CAS older
	// than this entry that was in flight when it decoded, 0 if none. The
	// links chain the window's stores and CASes for olderStoreBlocks; a
	// link that reaches below head ends the chain.
	olderStore uint32

	// operand producer seqs (-1: read the committed register file)
	src1, src2, src3 int64

	snap fssSnapshot // FSS checkpoint taken before this entry decoded
}

// sbEntry is one store-buffer slot. Entries are kept in program order;
// completion may happen out of order (non-FIFO drain under RMO).
type sbEntry struct {
	addr     int64
	val      int64
	fsb      uint8
	inflight bool
	readyAt  int64
}

// Core simulates one out-of-order core executing a thread of the program.
// All state transitions are driven by Tick and are fully deterministic.
type Core struct {
	id   int
	cfg  Config
	prog *isa.Program
	img  *memsys.Image
	hier *memsys.Hierarchy

	regs   [isa.NumRegs]int64
	regTag [isa.NumRegs]int64 // seq of newest in-flight writer, -1 if none

	entries []robEntry
	robMask uint64
	head    uint64 // seq of oldest in-flight instruction
	tail    uint64 // seq of next instruction to decode

	sb         []sbEntry
	sbInflight int

	scope *scopeHW
	pred  *predictor

	fetchPC       int
	redirectUntil int64

	haltInROB          int
	haltDone           bool
	unresolvedBranches int
	fenceSeqs          []uint64 // in-flight fences (in-window speculation)

	robIncompleteMem int // loads/CAS in ROB not yet completed
	robStoreCount    int // stores still in ROB
	specLoads        int // in-flight loads with specPastFence set

	// donePrefix is the completion cursor: every entry in [head,
	// donePrefix) is stDone and only awaits retirement, so completeROB and
	// schedule scans start here instead of at head (see scanStart).
	donePrefix uint64

	// lastStore is the seq of the youngest store or CAS decoded, -1 if
	// none: the next decode links to it when it is still in flight, and a
	// squash rewinds it from the squash point's own link.
	lastStore int64

	// nextComplete and nextSBDrain are conservative lower bounds (never
	// later than the truth, possibly stale-early after a squash) on the
	// next ROB completion and store-buffer drain. They gate the completeROB
	// and completeSB scans — skipped entirely on cycles with nothing due —
	// and give NextWakeup its O(1) event bound. Execution starts and store
	// issues lower them; the scans recompute them exactly when they run.
	nextComplete int64
	nextSBDrain  int64

	// Producer->consumer wakeup lists: wakeHead[p] heads an intrusive
	// singly-linked list of registration nodes for the producer in slot p;
	// node id s*3+k is consumer slot s's registration for operand k, with
	// wakeNext[id] the chain pointer. A node is registered at decode for
	// each not-yet-done producer operand (a store's or CAS's data operands
	// instead when its address resolves), and removed exactly once — when
	// the producer completes (fireWakes) or on squash (lists are wiped and
	// surviving waiting entries re-registered) — so no node can sit in two
	// lists.
	wakeHead []int32
	wakeNext []int32
	// Blocker lists, beside the operand lists: blockHead[b] heads the
	// loads that olderStoreBlocks stopped at the store or CAS in slot b,
	// node id = the load's slot, chained through blockNext. A blocked load
	// registers when its try fails and leaves when the blocker resolves
	// its address or completes (fireBlocked), or on squash.
	blockHead []int32
	blockNext []int32
	// readyBits marks the slots schedule must try, one bit per slot, and
	// wakePending says whether any is marked. See sched.go.
	readyBits   []uint64
	wakePending bool
	// tries and starts count tryEntry calls and execution starts, and
	// storeChecks the older stores and CASes olderStoreBlocks visits; the
	// machine sums them as machine.clock.sched_tries, sched_starts and
	// store_checks.
	tries, starts, storeChecks uint64

	// completion min-heap, ordered by (readyAt, seq): every execution
	// start pushes a node, completeROB pops the due ones. Lexicographic
	// order makes pop order identical to the ascending-seq scan it
	// replaces, because an entry completes exactly at its readyAt cycle.
	// Squash rebuilds the heap from the surviving window.
	compHeap  []compNode
	compBatch []compNode // scratch: this cycle's due completions

	// progressed records whether the current/last Tick mutated core state
	// (as opposed to pure stall accounting); accrual captures which
	// once-per-cycle stall counters it bumped. Together they drive the
	// event-driven clock (see clock.go).
	progressed bool
	accrual    stallAccrual

	snoopPending []int64

	// OnStoreComplete, if set, is invoked when a store drains from the
	// store buffer (or a CAS succeeds), just before its value becomes
	// globally visible. The machine uses it to deliver snoop and spin
	// notifications to other cores.
	OnStoreComplete func(core int, addr int64)

	tracer  Tracer
	profile fenceProfile

	stats Stats
	fault error
	cycle int64

	spin spinState

	fenceStallSeen bool // one fence-stall count per cycle
	robFullSeen    bool
	sbFullSeen     bool
}

// NewCore builds a core executing prog from startPC with the given initial
// register values.
func NewCore(id int, cfg Config, prog *isa.Program, startPC int, initRegs map[isa.Reg]int64, img *memsys.Image, hier *memsys.Hierarchy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if startPC < 0 || startPC > len(prog.Code) {
		return nil, fmt.Errorf("cpu: start pc %d out of range", startPC)
	}
	c := &Core{
		id:      id,
		cfg:     cfg,
		prog:    prog,
		img:     img,
		hier:    hier,
		entries: make([]robEntry, cfg.ROBSize),
		robMask: uint64(cfg.ROBSize - 1),
		sb:      make([]sbEntry, 0, cfg.SBSize),
		pred:    newPredictor(cfg.PredictorBits),
		fetchPC: startPC,

		lastStore: -1,

		nextComplete: NeverWakes,
		nextSBDrain:  NeverWakes,

		wakeHead:  make([]int32, cfg.ROBSize),
		wakeNext:  make([]int32, 3*cfg.ROBSize),
		blockHead: make([]int32, cfg.ROBSize),
		blockNext: make([]int32, cfg.ROBSize),
		readyBits: make([]uint64, (cfg.ROBSize+63)/64),
		compHeap:  make([]compNode, 0, cfg.ROBSize),
	}
	c.wipeWakes()
	c.scope = newScopeHW(&c.cfg, &c.stats)
	for i := range c.regTag {
		c.regTag[i] = -1
	}
	for r, v := range initRegs {
		if r == isa.R0 {
			continue
		}
		c.regs[r] = v
	}
	return c, nil
}

// slot returns the ROB entry for seq.
func (c *Core) slot(seq uint64) *robEntry { return &c.entries[seq&c.robMask] }

// Done reports whether the core has committed a halt and fully drained.
func (c *Core) Done() bool {
	return c.haltDone && c.head == c.tail && len(c.sb) == 0
}

// Fault returns the architectural fault that stopped the core, if any.
func (c *Core) Fault() error { return c.fault }

// Stats returns the core's statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// RegisterStats publishes every core statistic into g (typically the
// machine registry's "coreN" group) under stable dotted names like
// "fence.stall_cycles" and "rob.occupancy_avg". Cores built outside a
// machine (unit tests) may simply never register.
func (c *Core) RegisterStats(g *stats.Group) { c.stats.register(g) }

// Reg returns the committed value of a register.
func (c *Core) Reg(r isa.Reg) int64 { return c.regs[r] }

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// NoteRemoteStore records that another core made a store to addr globally
// visible; used to replay loads that speculatively executed past a fence.
func (c *Core) NoteRemoteStore(addr int64) {
	if !c.cfg.InWindowSpec || c.Done() {
		return
	}
	c.snoopPending = append(c.snoopPending, addr)
}

// Tick advances the core by one cycle.
func (c *Core) Tick(cycle int64) {
	if c.Done() || c.fault != nil {
		return
	}
	c.cycle = cycle
	c.stats.Cycles++
	c.fenceStallSeen = false
	c.robFullSeen = false
	c.sbFullSeen = false
	c.progressed = false
	c.accrual = stallAccrual{}

	c.processSnoops()
	c.completeSB()
	c.completeROB()
	c.retire()
	c.issueSB()
	c.schedule()
	c.fetch()

	occ := int64(c.tail - c.head)
	c.stats.SumROBOccupancy.Add(uint64(occ))
	if occ > c.stats.MaxROBOccupancy.Get() {
		c.stats.MaxROBOccupancy.Set(occ)
	}
	c.spinObserve()
}

// --- helpers ---

func (c *Core) decBits(counts []int, bits uint8) {
	for e := 0; bits != 0; e++ {
		if bits&1 != 0 {
			counts[e]--
		}
		bits >>= 1
	}
}

func (c *Core) incBits(counts []int, bits uint8) {
	for e := 0; bits != 0; e++ {
		if bits&1 != 0 {
			counts[e]++
		}
		bits >>= 1
	}
}

// noteExec records that an entry began executing with the given completion
// time: forward progress, a completion-heap node, and a new bound for the
// completion gate.
func (c *Core) noteExec(seq uint64, readyAt int64) {
	c.progressed = true
	c.starts++
	c.heapPush(compNode{at: readyAt, seq: seq})
	if readyAt < c.nextComplete {
		c.nextComplete = readyAt
	}
}

// srcReady reports whether the producer of an operand has its value
// available.
func (c *Core) srcReady(src int64) bool {
	if src < 0 || uint64(src) < c.head {
		return true // committed register file
	}
	return c.slot(uint64(src)).stage == stDone
}

// readSrc returns an operand value (producer's result or committed
// register). Callers must have checked srcReady.
func (c *Core) readSrc(src int64, r isa.Reg) int64 {
	if src >= 0 && uint64(src) >= c.head {
		return c.slot(uint64(src)).val
	}
	return c.regs[r]
}

// resolveSrc captures the operand's producer at decode time.
func (c *Core) resolveSrc(r isa.Reg) int64 {
	if r == isa.R0 {
		return -1
	}
	return c.regTag[r]
}

// --- snoop-triggered replay of speculative loads ---

func (c *Core) processSnoops() {
	if len(c.snoopPending) == 0 {
		return
	}
	c.progressed = true
	c.spin.events++
	addrs := c.snoopPending
	c.snoopPending = c.snoopPending[:0]
	for _, addr := range addrs {
		for seq := c.head; seq < c.tail; seq++ {
			e := c.slot(seq)
			if e.inst.Op == isa.OpLoad && e.specPastFence && e.stage != stWaiting &&
				e.addrOK && e.addr == addr {
				// Replay from this load: it may have observed a value
				// inconsistent with the fence it bypassed.
				c.stats.SpecLoadFlush++
				c.squash(seq)
				c.fetchPC = e.pc
				c.redirectUntil = c.cycle + 1 + int64(c.cfg.BranchPenalty)
				break
			}
		}
	}
}

// --- store buffer ---

func (c *Core) completeSB() {
	if c.nextSBDrain > c.cycle {
		return // nothing in flight is due yet
	}
	next := NeverWakes
	w := 0
	for i := range c.sb {
		e := &c.sb[i]
		if e.inflight && e.readyAt <= c.cycle {
			c.progressed = true
			c.spin.events++ // the Image mutates: never inside a stable spin
			c.wakeHeadCAS()
			if c.OnStoreComplete != nil {
				// Announce before the word changes: a core the machine
				// has parked in a spin is caught up against the old value.
				c.OnStoreComplete(c.id, e.addr)
			}
			c.img.Store(e.addr, e.val)
			c.decBits(c.scope.sbCnt, e.fsb)
			c.sbInflight--
			c.trace(TraceSBComplete, 0, isa.Instruction{Op: isa.OpStore}, e.addr)
			continue // drop entry
		}
		if e.inflight && e.readyAt < next {
			next = e.readyAt
		}
		c.sb[w] = *e
		w++
	}
	c.sb = c.sb[:w]
	c.nextSBDrain = next
}

func (c *Core) issueSB() {
	if c.sbInflight == len(c.sb) {
		return // nothing waiting to issue (covers the empty buffer)
	}
	for i := range c.sb {
		e := &c.sb[i]
		if e.inflight {
			continue
		}
		if c.sbInflight >= c.cfg.MSHRs {
			break
		}
		if c.cfg.FIFOStoreBuffer && i != 0 {
			break
		}
		// Per-location ordering: an older incomplete same-address store
		// must drain first. Entries are kept in program order and drained
		// entries are removed, so every older entry is incomplete.
		if c.sbOlderSameAddr(i) {
			continue
		}
		lat := c.hier.Access(c.id, e.addr, true)
		e.inflight = true
		e.readyAt = c.cycle + int64(lat)
		c.sbInflight++
		c.progressed = true
		if e.readyAt < c.nextSBDrain {
			c.nextSBDrain = e.readyAt
		}
		c.trace(TraceSBIssue, 0, isa.Instruction{Op: isa.OpStore}, e.readyAt)
	}
}

// sbOlderSameAddr reports whether a store-buffer entry older than entry i
// writes the same address. The buffer is small (SBSize), so a direct scan
// beats any index over it.
func (c *Core) sbOlderSameAddr(i int) bool {
	addr := c.sb[i].addr
	for j := 0; j < i; j++ {
		if c.sb[j].addr == addr {
			return true
		}
	}
	return false
}

// --- completion ---

// scanStart advances the done-prefix cursor past completed entries and
// returns it: entries in [head, scanStart) are stDone, so completion and
// scheduling scans skip the retired-in-waiting prefix. Stages only move
// toward stDone while an entry is in flight, and squash rewinds the cursor
// along with tail, so the invariant is cheap to maintain lazily.
func (c *Core) scanStart() uint64 {
	if c.donePrefix < c.head {
		c.donePrefix = c.head
	}
	for c.donePrefix < c.tail && c.slot(c.donePrefix).stage == stDone {
		c.donePrefix++
	}
	return c.donePrefix
}

func (c *Core) completeROB() {
	if c.nextComplete > c.cycle {
		return // nothing executing is due yet
	}
	// Drain the due completion-heap nodes. The heap is rebuilt on squash,
	// so live nodes match their entries; the validation below is a
	// defensive no-op in practice.
	batch := c.compBatch[:0]
	for len(c.compHeap) > 0 && c.compHeap[0].at <= c.cycle {
		n := c.heapPop()
		if n.seq < c.head || n.seq >= c.tail {
			continue
		}
		if e := c.slot(n.seq); e.stage == stExecuting && e.readyAt == n.at {
			batch = append(batch, n)
		}
	}
	// Process same-cycle completions in ascending seq order, as a window
	// scan would. Pops already arrive seq-sorted except when a
	// zero-latency access left a node dated before this cycle.
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j-1].seq > batch[j].seq; j-- {
			batch[j-1], batch[j] = batch[j], batch[j-1]
		}
	}
	for _, n := range batch {
		e := c.slot(n.seq)
		c.progressed = true
		c.trace(TraceComplete, n.seq, e.inst, e.val)
		switch e.inst.Op {
		case isa.OpLoad:
			e.stage = stDone
			c.robIncompleteMem--
			c.decBits(c.scope.robCnt, e.fsb)
			c.decBits(c.scope.robLoadCnt, e.fsb)
		case isa.OpCAS:
			// The read-modify-write happens atomically at completion.
			if c.OnStoreComplete != nil && c.img.Load(e.addr) == e.casOld {
				// A CAS about to succeed is announced before the word
				// changes, like a drain (see completeSB).
				c.OnStoreComplete(c.id, e.addr)
			}
			if c.img.CompareAndSwap(e.addr, e.casOld, e.sval) {
				e.val = 1
				c.spin.events++ // Image mutation perturbs any spin here
			} else {
				e.val = 0
			}
			e.stage = stDone
			c.robIncompleteMem--
			c.decBits(c.scope.robCnt, e.fsb)
			c.decBits(c.scope.robLoadCnt, e.fsb)
			c.fireBlocked(n.seq) // same-address loads now read memory
		case isa.OpStore:
			e.stage = stDone
			c.fireBlocked(n.seq) // same-address loads may now forward
		default:
			e.stage = stDone
		}
		c.fireWakes(n.seq)
	}
	c.compBatch = batch[:0]
	if len(c.compHeap) > 0 {
		c.nextComplete = c.compHeap[0].at
	} else {
		c.nextComplete = NeverWakes
	}
}

// --- retirement ---

func (c *Core) retire() {
	h0 := c.head
	c.retireInsts()
	if c.head != h0 {
		c.wakeHeadCAS()
	}
}

func (c *Core) retireInsts() {
	for n := 0; n < c.cfg.RetireWidth && c.head < c.tail; n++ {
		e := c.slot(c.head)
		op := e.inst.Op

		if op == isa.OpFence && (c.cfg.InWindowSpec || e.inst.Order == isa.OrderSS) {
			if !c.fenceMayRetire(e) {
				idle := c.tail-c.head == 1
				if !c.fenceStallSeen {
					c.stats.FenceStallCycles++
					c.stats.FenceStallRetire++
					c.accrual.fenceStall = true
					c.accrual.fenceRetire = true
					if idle {
						// Only the fence itself is in flight: a pure
						// drain wait.
						c.stats.FenceIdleCycles++
						c.accrual.fenceIdle = true
					}
					c.fenceStallSeen = true
				}
				site := c.profile.site(e.pc, e.inst)
				site.StallCycles++
				if idle {
					site.IdleCycles++
				}
				c.accrual.addSite(site, idle)
				c.trace(TraceFenceStall, c.head, e.inst, 1)
				return
			}
		}
		if e.stage != stDone {
			return
		}
		if e.faulted {
			c.fault = fmt.Errorf("cpu: core %d: invalid memory access at pc %d (%s)", c.id, e.pc, e.inst)
			c.progressed = true
			return
		}

		if op == isa.OpStore {
			if len(c.sb) >= c.cfg.SBSize {
				if !c.sbFullSeen {
					c.stats.SBFullCycles++
					c.accrual.sbFull = true
					c.sbFullSeen = true
				}
				return
			}
			c.sb = append(c.sb, sbEntry{addr: e.addr, val: e.sval, fsb: e.fsb})
			c.robStoreCount--
			c.decBits(c.scope.robCnt, e.fsb)
			c.incBits(c.scope.sbCnt, e.fsb)
		}

		if e.inst.Writes() {
			c.regs[e.inst.Rd] = e.val
			if c.regTag[e.inst.Rd] == int64(c.head) {
				c.regTag[e.inst.Rd] = -1
			}
		}

		c.stats.Committed++
		c.progressed = true
		c.trace(TraceRetire, c.head, e.inst, e.val)
		switch op {
		case isa.OpLoad:
			c.stats.CommittedLoads++
			if e.specPastFence {
				c.specLoads--
			}
		case isa.OpStore:
			c.stats.CommittedStores++
		case isa.OpCAS:
			c.stats.CommittedCAS++
		case isa.OpFence:
			c.stats.CommittedFences++
			c.profile.site(e.pc, e.inst).Executions++
			if c.cfg.InWindowSpec {
				c.removeFenceSeq(c.head)
			}
		case isa.OpHalt:
			c.haltInROB--
			c.haltDone = true
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			c.stats.Branches++
			if e.predTaken && int(e.inst.Imm) <= e.pc {
				c.spinLoopBack()
			}
		case isa.OpJmp:
			if int(e.inst.Imm) <= e.pc {
				c.spinLoopBack()
			}
		}
		c.head++
	}
}

func (c *Core) removeFenceSeq(seq uint64) {
	for i, s := range c.fenceSeqs {
		if s == seq {
			c.fenceSeqs = append(c.fenceSeqs[:i], c.fenceSeqs[i+1:]...)
			return
		}
	}
}

// fenceMayRetire is the in-window-speculation retirement check: the fence
// consults the store-buffer FSBs (all older loads have completed, since
// loads retire only when done). A load-load fence never waits for stores:
// by the time it reaches the ROB head its ordering obligation is already
// met.
func (c *Core) fenceMayRetire(e *robEntry) bool {
	if e.inst.Order == isa.OrderLL {
		return true
	}
	if e.fenceFull {
		return len(c.sb) == 0
	}
	return c.scope.sbCnt[e.fenceEntry] == 0
}

// --- execution scheduling ---

// schedule tries the marked slots in ascending seq order. Every event that
// can unblock a waiting entry marks it (see sched.go), so the unmarked
// waiting entries would start nothing and are not visited.
func (c *Core) schedule() {
	if !c.wakePending {
		return
	}
	from := c.scanStart()
	size := uint64(len(c.entries))
	for seq := from; seq < c.tail; {
		// Re-read the word on every step: a try can mark younger slots.
		s := seq & c.robMask
		word := c.readyBits[s>>6] >> (s & 63)
		if word == 0 {
			seq += min(64-(s&63), size-s) // to the next word or the wrap
			continue
		}
		seq += uint64(bits.TrailingZeros64(word))
		if seq < c.tail {
			c.tryEntry(seq)
		}
		seq++
	}
	clear(c.readyBits)
	c.wakePending = false
}

// tryEntry attempts to start the entry at seq if it is still waiting.
func (c *Core) tryEntry(seq uint64) {
	c.tries++
	e := &c.entries[seq&c.robMask]
	if e.stage != stWaiting {
		return
	}
	wasAddrOK := e.addrOK
	switch e.inst.Op {
	case isa.OpLoad:
		c.tryStartLoad(e, seq)
	case isa.OpStore:
		c.tryStartStore(e, seq)
	case isa.OpCAS:
		c.tryStartCAS(e, seq)
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		c.tryResolveBranch(e, seq)
	default:
		c.tryStartALU(e, seq)
	}
	if c.tracer != nil && seq < c.tail && e.stage == stExecuting {
		c.trace(TraceExecute, seq, e.inst, e.readyAt)
	}
	if !wasAddrOK && e.addrOK && e.inst.Op != isa.OpLoad {
		// A store or CAS address: the younger loads blocked on it may
		// pass it now, and the pass reaches them after this slot.
		c.fireBlocked(seq)
	}
}

func aluLatency(op isa.Op) int64 {
	switch op {
	case isa.OpMul:
		return 3
	case isa.OpDiv, isa.OpRem:
		return 12
	default:
		return 1
	}
}

func (c *Core) tryStartALU(e *robEntry, seq uint64) {
	if !c.srcReady(e.src1) || !c.srcReady(e.src2) {
		return
	}
	a := c.readSrc(e.src1, e.inst.Rs1)
	b := c.readSrc(e.src2, e.inst.Rs2)
	in := &e.inst
	var v int64
	switch in.Op {
	case isa.OpMovI:
		v = in.Imm
	case isa.OpAdd:
		v = a + b
	case isa.OpAddI:
		v = a + in.Imm
	case isa.OpSub:
		v = a - b
	case isa.OpMul:
		v = a * b
	case isa.OpDiv:
		if b != 0 {
			v = a / b
		}
	case isa.OpRem:
		if b != 0 {
			v = a % b
		}
	case isa.OpAnd:
		v = a & b
	case isa.OpAndI:
		v = a & in.Imm
	case isa.OpOr:
		v = a | b
	case isa.OpXor:
		v = a ^ b
	case isa.OpXorI:
		v = a ^ in.Imm
	case isa.OpShl:
		v = a << (uint64(b) & 63)
	case isa.OpShlI:
		v = a << (uint64(in.Imm) & 63)
	case isa.OpShr:
		v = a >> (uint64(b) & 63)
	case isa.OpShrI:
		v = a >> (uint64(in.Imm) & 63)
	case isa.OpSlt:
		if a < b {
			v = 1
		}
	case isa.OpSltI:
		if a < in.Imm {
			v = 1
		}
	case isa.OpSeq:
		if a == b {
			v = 1
		}
	}
	e.val = v
	e.stage = stExecuting
	e.readyAt = c.cycle + aluLatency(in.Op)
	c.noteExec(seq, e.readyAt)
}

func (c *Core) tryResolveBranch(e *robEntry, seq uint64) {
	if !c.srcReady(e.src1) || !c.srcReady(e.src2) {
		return
	}
	a := c.readSrc(e.src1, e.inst.Rs1)
	b := c.readSrc(e.src2, e.inst.Rs2)
	var taken bool
	switch e.inst.Op {
	case isa.OpBeq:
		taken = a == b
	case isa.OpBne:
		taken = a != b
	case isa.OpBlt:
		taken = a < b
	case isa.OpBge:
		taken = a >= b
	}
	e.resolved = true
	e.stage = stExecuting
	e.readyAt = c.cycle + 1
	c.noteExec(seq, e.readyAt)
	c.unresolvedBranches--
	c.pred.update(e.pc, taken)
	if taken == e.predTaken {
		return
	}
	// Misprediction: squash the wrong path and redirect fetch. From here
	// on predTaken holds the outcome, which retirement reads.
	e.predTaken = taken
	c.stats.Mispredicts++
	c.squash(seq + 1)
	if taken {
		c.fetchPC = int(e.inst.Imm)
	} else {
		c.fetchPC = e.pc + 1
	}
	c.redirectUntil = c.cycle + 1 + int64(c.cfg.BranchPenalty)
}

// olderStoreBlocks checks the program-order-older in-flight stores and
// CASes for address conflicts with a load at addr, youngest first. It
// follows the olderStore links, so it visits only stores and CASes, never
// the loads and ALU ops between them. It returns (blocker, forward,
// fval): blocker is the seq of the store or CAS the load must wait on, or
// -1; forward reports that a value can be bypassed.
func (c *Core) olderStoreBlocks(seq uint64, addr int64) (int64, bool, int64) {
	for s := seq; ; {
		d := uint64(c.slot(s).olderStore)
		if d == 0 || s-c.head < d {
			return -1, false, 0 // no older store or CAS left in flight
		}
		s -= d
		c.storeChecks++
		f := c.slot(s)
		switch {
		case !f.addrOK:
			return int64(s), false, 0 // unresolved older address
		case f.addr != addr:
			continue
		case f.stage != stDone:
			return int64(s), false, 0 // matching store or CAS not done
		case f.inst.Op == isa.OpStore:
			return -1, true, f.sval // store-to-load forwarding
		}
		return -1, false, 0 // CAS already applied; read from the image
	}
}

func (c *Core) tryStartLoad(e *robEntry, seq uint64) {
	if !c.srcReady(e.src1) {
		return
	}
	raw := c.readSrc(e.src1, e.inst.Rs1) + e.inst.Imm
	if !e.addrOK {
		e.addr = c.img.Norm(raw)
		e.faulted = !c.img.Valid(raw)
		e.addrOK = true
		c.progressed = true
	}
	blocker, forward, fval := c.olderStoreBlocks(seq, e.addr)
	if blocker >= 0 {
		c.regBlocked(blocker, seq)
		return
	}
	if forward {
		e.val = fval
		e.stage = stExecuting
		e.readyAt = c.cycle + int64(c.cfg.ForwardLatency)
		c.noteExec(seq, e.readyAt)
		return
	}
	// Forward from the youngest same-address store-buffer entry, if any.
	for i := len(c.sb) - 1; i >= 0; i-- {
		if c.sb[i].addr == e.addr {
			e.val = c.sb[i].val
			e.stage = stExecuting
			e.readyAt = c.cycle + int64(c.cfg.ForwardLatency)
			c.noteExec(seq, e.readyAt)
			return
		}
	}
	lat := c.hier.Access(c.id, e.addr, false)
	e.val = c.img.Load(e.addr)
	e.accessedMem = true
	c.spinWatch(e.addr)
	e.stage = stExecuting
	e.readyAt = c.cycle + int64(lat)
	c.noteExec(seq, e.readyAt)
	if c.cfg.InWindowSpec {
		for _, fs := range c.fenceSeqs {
			if fs < seq {
				e.specPastFence = true
				c.specLoads++
				break
			}
		}
	}
}

// resolveStoreAddr resolves a store's or CAS's address once its address
// operand is ready, and then registers the entry on its in-flight data
// producers. It reports whether the entry may start: its address is
// resolved and no data producer is in flight.
func (c *Core) resolveStoreAddr(e *robEntry, seq uint64) bool {
	if e.addrOK {
		return c.srcReady(e.src2) && c.srcReady(e.src3)
	}
	if !c.srcReady(e.src1) {
		return false
	}
	raw := c.readSrc(e.src1, e.inst.Rs1) + e.inst.Imm
	e.addr = c.img.Norm(raw)
	e.faulted = !c.img.Valid(raw)
	e.addrOK = true
	c.progressed = true
	return !c.regData(e, seq)
}

func (c *Core) tryStartStore(e *robEntry, seq uint64) {
	if !c.resolveStoreAddr(e, seq) {
		return
	}
	e.sval = c.readSrc(e.src2, e.inst.Rs2)
	e.stage = stExecuting
	e.readyAt = c.cycle + 1
	c.noteExec(seq, e.readyAt)
}

func (c *Core) tryStartCAS(e *robEntry, seq uint64) {
	if !c.resolveStoreAddr(e, seq) {
		return
	}
	// A CAS executes only from the ROB head (oldest in flight) and after
	// same-address buffered stores have drained, keeping the
	// read-modify-write per-location ordered.
	if seq != c.head {
		return
	}
	for i := range c.sb {
		if c.sb[i].addr == e.addr {
			return
		}
	}
	e.casOld = c.readSrc(e.src2, e.inst.Rs2)
	e.sval = c.readSrc(e.src3, e.inst.Rs3)
	lat := c.hier.Access(c.id, e.addr, true)
	e.accessedMem = true
	c.spinWatch(e.addr)
	e.stage = stExecuting
	e.readyAt = c.cycle + int64(lat)
	c.noteExec(seq, e.readyAt)
}

// --- squash ---

func (c *Core) squash(fromSeq uint64) {
	if fromSeq >= c.tail {
		return
	}
	c.progressed = true
	c.spin.events++
	// The youngest store or CAS to survive is the squash point's link.
	c.lastStore = -1
	if d := c.slot(fromSeq).olderStore; d != 0 {
		c.lastStore = int64(fromSeq) - int64(d)
	}
	// Restore the fence scope stack to its state before fromSeq decoded.
	switch c.cfg.Recovery {
	case RecoverySnapshot:
		c.scope.restoreSnapshot(&c.slot(fromSeq).snap)
	case RecoveryShadow:
		c.scope.restoreShadow()
	}
	for seq := fromSeq; seq < c.tail; seq++ {
		e := c.slot(seq)
		c.trace(TraceSquash, seq, e.inst, 0)
		switch e.inst.Op {
		case isa.OpLoad, isa.OpCAS:
			if e.stage != stDone {
				c.robIncompleteMem--
				c.decBits(c.scope.robCnt, e.fsb)
				c.decBits(c.scope.robLoadCnt, e.fsb)
			}
			if e.specPastFence {
				c.specLoads--
			}
			if e.accessedMem {
				c.stats.WrongPathMem++
			}
		case isa.OpStore:
			c.robStoreCount--
			c.decBits(c.scope.robCnt, e.fsb)
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			if !e.resolved {
				c.unresolvedBranches--
			}
		case isa.OpHalt:
			c.haltInROB--
		}
		c.stats.Squashed++
	}
	c.tail = fromSeq
	if c.donePrefix > c.tail {
		c.donePrefix = c.tail
	}
	// Rebuild the register rename tags, the wakeup lists, and the
	// completion heap from the surviving entries. A waiting load with a
	// resolved address failed its last try, and nothing has moved its
	// blocker since: the marks that could have, in this pass or before
	// it, were all tried.
	for i := range c.regTag {
		c.regTag[i] = -1
	}
	c.wipeWakes()
	for seq := c.head; seq < c.tail; seq++ {
		e := c.slot(seq)
		if e.inst.Writes() {
			c.regTag[e.inst.Rd] = int64(seq)
		}
		if e.stage != stWaiting {
			continue
		}
		c.regWakes(e, seq)
		if e.inst.Op == isa.OpLoad && e.addrOK {
			if b, _, _ := c.olderStoreBlocks(seq, e.addr); b >= 0 {
				c.regBlocked(b, seq)
			}
		}
	}
	c.rebuildCompHeap()
	// Drop squashed fences.
	w := 0
	for _, s := range c.fenceSeqs {
		if s < fromSeq {
			c.fenceSeqs[w] = s
			w++
		}
	}
	c.fenceSeqs = c.fenceSeqs[:w]
}

// --- fetch / decode / issue ---

// canIssueFence is the non-speculative fence issue check (the paper's
// "Issuing Fence" step): the fence may issue only when no prior in-scope
// access of the ordered kind is incomplete. OrderLL only waits for loads
// (prior stores and the store buffer are not ordered by it).
func (c *Core) canIssueFence(scope isa.ScopeKind, order isa.FenceOrder) bool {
	full := scope == isa.ScopeGlobal
	var entry uint8
	switch scope {
	case isa.ScopeClass:
		entry, full = c.scope.fenceClassEntry()
	case isa.ScopeSet:
		if c.scope.fenceSetFull() {
			full = true
		} else {
			entry = c.scope.setEntry()
		}
	}
	if order == isa.OrderLL {
		if full {
			return c.robIncompleteMem == 0
		}
		return c.scope.robLoadCnt[entry] == 0
	}
	if full {
		return c.robIncompleteMem == 0 && c.robStoreCount == 0 && len(c.sb) == 0
	}
	return c.scope.robCnt[entry] == 0 && c.scope.sbCnt[entry] == 0
}

func (c *Core) fetch() {
	if c.redirectUntil > c.cycle {
		return
	}
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.haltInROB > 0 || c.haltDone {
			return
		}
		if c.tail-c.head >= uint64(c.cfg.ROBSize) {
			if !c.robFullSeen {
				c.stats.ROBFullCycles++
				c.accrual.robFull = true
				c.robFullSeen = true
			}
			return
		}
		pc := c.fetchPC
		var in isa.Instruction
		if pc >= 0 && pc < len(c.prog.Code) {
			in = c.prog.Code[pc]
		} else {
			in = isa.Instruction{Op: isa.OpHalt} // running off the end halts
		}

		if in.Op == isa.OpFence && in.Order != isa.OrderSS &&
			!c.cfg.InWindowSpec && !c.canIssueFence(in.Scope, in.Order) {
			idle := c.head == c.tail
			if !c.fenceStallSeen {
				c.stats.FenceStallCycles++
				c.stats.FenceStallIssue++
				c.accrual.fenceStall = true
				if idle {
					// Nothing left in flight: the core is purely
					// waiting for the fence's memory drain.
					c.stats.FenceIdleCycles++
					c.accrual.fenceIdle = true
				}
				c.fenceStallSeen = true
			}
			site := c.profile.site(pc, in)
			site.StallCycles++
			if idle {
				site.IdleCycles++
			}
			c.accrual.addSite(site, idle)
			c.trace(TraceFenceStall, c.tail, in, 0)
			return
		}

		seq := c.tail
		e := c.slot(seq)
		// Decode in place: a robEntry literal would be built in a
		// temporary and copied into the slot.
		*e = robEntry{}
		e.inst = in
		e.pc = pc
		e.src1, e.src2, e.src3 = -1, -1, -1
		if c.lastStore >= int64(c.head) {
			e.olderStore = uint32(seq - uint64(c.lastStore))
		}
		c.scope.snapshotInto(&e.snap)
		c.progressed = true
		c.trace(TraceDecode, seq, in, int64(pc))

		nextPC := pc + 1
		switch in.Op {
		case isa.OpNop:
			e.stage = stDone
		case isa.OpHalt:
			e.stage = stDone
			c.haltInROB++
		case isa.OpMovI:
			e.stage = stWaiting
		case isa.OpJmp:
			e.stage = stDone
			nextPC = int(in.Imm)
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			e.src1 = c.resolveSrc(in.Rs1)
			e.src2 = c.resolveSrc(in.Rs2)
			e.predTaken = c.pred.predict(pc, int(in.Imm))
			if e.predTaken {
				nextPC = int(in.Imm)
			}
			c.unresolvedBranches++
			e.stage = stWaiting
		case isa.OpFence:
			e.stage = stDone
			if c.cfg.InWindowSpec || in.Order == isa.OrderSS {
				// Capture the fence's effective scope at decode. A
				// store-store fence always takes this path: it never
				// blocks issue, only its own retirement — younger
				// stores cannot enter the store buffer before it
				// retires, while younger loads pass freely.
				switch in.Scope {
				case isa.ScopeGlobal:
					e.fenceFull = true
				case isa.ScopeClass:
					e.fenceEntry, e.fenceFull = c.scope.fenceClassEntry()
				case isa.ScopeSet:
					if c.scope.fenceSetFull() {
						e.fenceFull = true
					} else {
						e.fenceEntry = c.scope.setEntry()
					}
				}
				if c.cfg.InWindowSpec && in.Order != isa.OrderSS {
					// Full and load-load fences constrain speculative
					// loads; store-store fences do not.
					c.fenceSeqs = append(c.fenceSeqs, seq)
				}
			}
		case isa.OpFsStart:
			e.stage = stDone
			c.scope.fsStart(in.Imm, c.unresolvedBranches == 0)
		case isa.OpFsEnd:
			e.stage = stDone
			c.scope.fsEnd(c.unresolvedBranches == 0)
			c.scope.drainGuard()
		case isa.OpLoad:
			e.src1 = c.resolveSrc(in.Rs1)
			e.fsb = c.memFSB(in)
			c.incBits(c.scope.robCnt, e.fsb)
			c.incBits(c.scope.robLoadCnt, e.fsb)
			c.robIncompleteMem++
			e.stage = stWaiting
		case isa.OpStore:
			e.src1 = c.resolveSrc(in.Rs1)
			e.src2 = c.resolveSrc(in.Rs2)
			e.fsb = c.memFSB(in)
			c.incBits(c.scope.robCnt, e.fsb)
			c.robStoreCount++
			c.lastStore = int64(seq)
			e.stage = stWaiting
		case isa.OpCAS:
			e.src1 = c.resolveSrc(in.Rs1)
			e.src2 = c.resolveSrc(in.Rs2)
			e.src3 = c.resolveSrc(in.Rs3)
			e.fsb = c.memFSB(in)
			c.incBits(c.scope.robCnt, e.fsb)
			c.incBits(c.scope.robLoadCnt, e.fsb)
			c.robIncompleteMem++
			c.lastStore = int64(seq)
			e.stage = stWaiting
		default: // remaining ALU ops
			e.src1 = c.resolveSrc(in.Rs1)
			e.src2 = c.resolveSrc(in.Rs2)
			e.stage = stWaiting
		}

		// A fresh waiting entry needs a first try unless a producer it
		// registered on gates it; decode changes nothing about older
		// entries.
		if e.stage == stWaiting && !c.regWakes(e, seq) {
			c.mark(seq)
		}
		if in.Writes() {
			c.regTag[in.Rd] = int64(seq)
		}
		c.tail = seq + 1
		c.fetchPC = nextPC
	}
}

// memFSB computes the fence scope bits for a decoded memory operation: one
// bit per active class scope on the FSS, plus the reserved set-scope bit
// for compiler-flagged accesses.
func (c *Core) memFSB(in isa.Instruction) uint8 {
	m := c.scope.currentMask()
	if in.SetFlag {
		m |= c.scope.setBit()
	}
	return m
}
