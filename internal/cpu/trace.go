package cpu

import "sfence/internal/isa"

// TraceEvent identifies a pipeline event reported to a Tracer.
type TraceEvent uint8

// Pipeline trace events.
const (
	TraceDecode     TraceEvent = iota // instruction entered the ROB
	TraceExecute                      // execution began (detail: readyAt)
	TraceComplete                     // result available (detail: value)
	TraceRetire                       // architecturally committed
	TraceSquash                       // discarded by misprediction/replay
	TraceFenceStall                   // issue or retire blocked by a fence
	TraceSBIssue                      // store left the SB for memory (detail: readyAt)
	TraceSBComplete                   // store became globally visible (detail: address)
)

func (e TraceEvent) String() string {
	switch e {
	case TraceDecode:
		return "decode"
	case TraceExecute:
		return "execute"
	case TraceComplete:
		return "complete"
	case TraceRetire:
		return "retire"
	case TraceSquash:
		return "squash"
	case TraceFenceStall:
		return "fence-stall"
	case TraceSBIssue:
		return "sb-issue"
	case TraceSBComplete:
		return "sb-complete"
	}
	return "event?"
}

// Tracer receives pipeline events. Implementations must be cheap: the core
// calls them inline. A nil tracer costs one branch per event site.
type Tracer interface {
	Trace(cycle int64, core int, ev TraceEvent, seq uint64, in isa.Instruction, detail int64)
}

// SetTracer attaches (or detaches, with nil) a pipeline tracer. Attaching
// one drops any spin detection in progress: traced cores step cycle by
// cycle.
func (c *Core) SetTracer(t Tracer) {
	c.tracer = t
	c.spinReset()
}

// trace reports a pipeline event to the attached tracer. It is small
// enough to inline, so an untraced core pays one nil check per event site
// and never copies the instruction.
func (c *Core) trace(ev TraceEvent, seq uint64, in isa.Instruction, detail int64) {
	if c.tracer != nil {
		c.tracer.Trace(c.cycle, c.id, ev, seq, in, detail)
	}
}
