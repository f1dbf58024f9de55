package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the run
// ends and are then written out in one file.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was made.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent is the index of the enclosing span, -1 for none.
	Parent int `json:"parent"`
	// Op identifies the operation the span belongs to; the spans of one
	// simulation or one served job share it.
	Op int `json:"op"`
}

// tracer records spans from any goroutine.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	opPass []int // pass of each op id
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an op id belonging to pass.
func (t *tracer) newOp(pass int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.opPass = append(t.opPass, pass)
	return len(t.opPass) - 1
}

// interval records a finished span and returns its index.
func (t *tracer) interval(name string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// open starts a span that close ends; children may name it as parent in
// between.
func (t *tracer) open(name string, parent, op int) int {
	now := time.Now()
	return t.interval(name, parent, op, now, now)
}

func (t *tracer) close(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// layerTimes is what one pass spent in each named span.
type layerTimes struct {
	// selfMs sums each span's self time: its duration minus the part
	// its direct children cover.
	selfMs map[string]float64
	// durMs lists every span's full duration, in record order.
	durMs map[string][]float64
}

func (l layerTimes) count(name string) float64 { return float64(len(l.durMs[name])) }

// byPass splits the recorded spans by the pass of their op.
func (t *tracer) byPass() map[int]layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]layerTimes{}
	for i, s := range t.spans {
		pass := t.opPass[s.Op]
		lt, ok := out[pass]
		if !ok {
			lt = layerTimes{selfMs: map[string]float64{}, durMs: map[string][]float64{}}
			out[pass] = lt
		}
		dur := s.End - s.Start
		lt.selfMs[s.Name] += float64(dur-child[i]) / 1e6
		lt.durMs[s.Name] = append(lt.durMs[s.Name], float64(dur)/1e6)
	}
	return out
}

// write saves every span with the run that produced it.
func (t *tracer) write(path string, cfg config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"opPass":   t.opPass,
		"spans":    t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
