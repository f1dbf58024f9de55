// Package trace provides pipeline tracers for the simulator: a
// human-readable text tracer (one line per pipeline event, in the style
// of academic simulator debug logs) and a counting tracer. Tracers receive
// full per-cycle event detail and therefore pin the machine's per-cycle
// slow path; aggregate measurements come from the stats registry, which
// costs nothing while the machine runs.
package trace

import (
	"fmt"
	"io"
	"sync"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/machine"
)

// TextTracer writes one line per pipeline event to an io.Writer.
//
//	cycle    core event        seq   instruction            detail
//	    42   c1   execute      #17   load r4, [r3+0]        readyAt=354
type TextTracer struct {
	mu    sync.Mutex
	w     io.Writer
	limit int64 // stop after this cycle (0 = no limit)
	lines uint64
}

// NewTextTracer builds a tracer writing to w; if limitCycles > 0, events
// after that cycle are dropped (keeps traces of long runs bounded).
func NewTextTracer(w io.Writer, limitCycles int64) *TextTracer {
	return &TextTracer{w: w, limit: limitCycles}
}

// Lines returns the number of events written.
func (t *TextTracer) Lines() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lines
}

// Trace implements cpu.Tracer.
func (t *TextTracer) Trace(cycle int64, core int, ev cpu.TraceEvent, seq uint64, in isa.Instruction, detail int64) {
	if t.limit > 0 && cycle > t.limit {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines++
	var extra string
	switch ev {
	case cpu.TraceDecode:
		extra = fmt.Sprintf("pc=%d", detail)
	case cpu.TraceExecute, cpu.TraceSBIssue:
		extra = fmt.Sprintf("readyAt=%d", detail)
	case cpu.TraceComplete, cpu.TraceRetire:
		extra = fmt.Sprintf("val=%d", detail)
	case cpu.TraceSBComplete:
		extra = fmt.Sprintf("addr=%d", detail)
	}
	fmt.Fprintf(t.w, "%8d  c%-2d %-12s #%-6d %-28s %s\n", cycle, core, ev, seq, in.String(), extra)
}

// CountingTracer tallies events by kind; useful in tests and for quick
// profiling without I/O cost.
type CountingTracer struct {
	mu     sync.Mutex
	counts map[cpu.TraceEvent]uint64
}

// NewCountingTracer builds an empty counting tracer.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{counts: make(map[cpu.TraceEvent]uint64)}
}

// Trace implements cpu.Tracer.
func (t *CountingTracer) Trace(_ int64, _ int, ev cpu.TraceEvent, _ uint64, _ isa.Instruction, _ int64) {
	t.mu.Lock()
	t.counts[ev]++
	t.mu.Unlock()
}

// Count returns the tally for one event kind.
func (t *CountingTracer) Count(ev cpu.TraceEvent) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[ev]
}

// Attach installs the tracer on every core of a machine.
func Attach(m *machine.Machine, t cpu.Tracer) {
	for i := 0; i < m.Cores(); i++ {
		m.Core(i).SetTracer(t)
	}
}
