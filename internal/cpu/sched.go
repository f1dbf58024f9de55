package cpu

import "sfence/internal/isa"

// This file holds the event-driven scheduling structures: a completion
// min-heap for completeROB and the wakeups that mark slots for schedule.
//
// A waiting ROB entry waits on exactly one kind of thing at a time, and
// each event marks only the entries it can unblock (event: marks; why
// nothing else can start):
//
//   - a producer completes: its registered consumers; operands wait on
//     older producers only.
//   - a store or CAS completes: every memWait load; a done store forwards
//     and a done CAS is in memory, and only loads read an older store's
//     stage.
//   - a store or CAS address resolves: every memWait load; only loads
//     wait on older addresses.
//   - a store-buffer entry drains: the head, if it is a waiting CAS; a CAS
//     waits for same-address drains, and loads never wait on the buffer.
//   - retirement moves the head: the head, if it is a waiting CAS; a CAS
//     starts only from the head, and a retiring store or CAS was done.
//   - decode: the new entry, for its first try.
//   - a squash: nothing; survivors, and all they wait on, are older than
//     the squash point.
//
// Start conditions never read the clock, so an entry no event marked would
// start nothing. An address resolves inside the schedule pass, and the
// loads it wakes are younger, so the same ascending pass reaches them —
// one pass starts what repeated full scans would.
//
// Naive Step and the event-driven Run share Core.Tick, so the clock
// equivalence tests cannot see a scheduler bug. The gates that pin it are
// the golden determinism test (testdata/golden_quick.json, T, S, T+ and
// S+), the bench digests (bench/testdata/expected.json), the SC reference
// interpreter through the differential fuzzers, and sched_test.go, which
// checks the fixed point after every tick.

// compNode schedules one executing entry's completion.
type compNode struct {
	at  int64  // readyAt cycle
	seq uint64 // ROB sequence number
}

// less orders the completion heap by (readyAt, seq). Entries complete
// exactly at their readyAt cycle (the gate opens no later than the
// earliest readyAt), so popping due nodes in this order visits them in
// ascending seq — identical to the ascending scan it replaces.
func (a compNode) less(b compNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *Core) heapPush(n compNode) {
	h := append(c.compHeap, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.compHeap = h
}

func (c *Core) heapPop() compNode {
	h := c.compHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l].less(h[s]) {
			s = l
		}
		if r < n && h[r].less(h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	c.compHeap = h
	return top
}

// rebuildCompHeap repopulates the completion heap from the surviving
// window after a squash, dropping nodes for squashed entries.
func (c *Core) rebuildCompHeap() {
	c.compHeap = c.compHeap[:0]
	next := NeverWakes
	for seq := c.head; seq < c.tail; seq++ {
		if e := c.slot(seq); e.stage == stExecuting {
			c.heapPush(compNode{at: e.readyAt, seq: seq})
			if e.readyAt < next {
				next = e.readyAt
			}
		}
	}
	c.nextComplete = next
}

// regWake registers the entry in slot `consumer` to be woken when the
// in-flight producer of operand k completes. Producers already done (or
// committed) need no registration: decode marks the consumer for its first
// try.
func (c *Core) regWake(src int64, consumer uint64, k int) {
	if src < 0 || uint64(src) < c.head {
		return
	}
	p := src & int64(c.robMask)
	if c.entries[p].stage == stDone {
		return
	}
	id := int32(consumer&c.robMask)*3 + int32(k)
	c.wakeNext[id] = c.wakeHead[p]
	c.wakeHead[p] = id
}

// regWakes registers all in-flight operand producers of a freshly decoded
// (or squash-surviving) waiting entry.
func (c *Core) regWakes(e *robEntry, seq uint64) {
	c.regWake(e.src1, seq, 0)
	c.regWake(e.src2, seq, 1)
	c.regWake(e.src3, seq, 2)
}

// fireWakes marks every consumer registered on the completing entry as
// ready for a scheduling retry and empties the list.
func (c *Core) fireWakes(seq uint64) {
	s := seq & c.robMask
	id := c.wakeHead[s]
	if id < 0 {
		return
	}
	c.wakeHead[s] = -1
	for id >= 0 {
		cs := uint64(id) / 3
		c.readyBits[cs>>6] |= 1 << (cs & 63)
		id = c.wakeNext[id]
	}
	c.wakePending = true
}

// mark queues the entry at seq for a try in the next schedule pass.
func (c *Core) mark(seq uint64) {
	s := seq & c.robMask
	c.readyBits[s>>6] |= 1 << (s & 63)
	c.wakePending = true
}

// wakeMemWaiters marks every load that olderStoreBlocks held back.
func (c *Core) wakeMemWaiters() {
	for i, w := range c.memWait {
		if w != 0 {
			c.readyBits[i] |= w
			c.wakePending = true
		}
	}
}

// wakeHeadCAS marks the ROB head if it is a waiting CAS.
func (c *Core) wakeHeadCAS() {
	if c.head < c.tail {
		if e := c.slot(c.head); e.stage == stWaiting && e.inst.Op == isa.OpCAS {
			c.mark(c.head)
		}
	}
}

// wipeWakes clears every wakeup list (used by squash before surviving
// waiting entries re-register, so no registration node can ever sit in
// two lists).
func (c *Core) wipeWakes() {
	for i := range c.wakeHead {
		c.wakeHead[i] = -1
	}
}
