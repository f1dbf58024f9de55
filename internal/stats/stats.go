// Package stats is the simulator's typed, hierarchical statistics
// registry — the single observability substrate every component (cores,
// the fence-scoping hardware, the store buffer, the cache hierarchy, the
// machine clock) registers its counters into at construction time.
//
// Design (in the tradition of gem5-style stat registries):
//
//   - A stat is storage owned by the component (a Counter or Gauge struct
//     field on its hot path — incrementing stays a plain memory op), plus
//     a registration: a stable dotted name ("core0.fence.stall_cycles"),
//     a one-line description, and a kind.
//   - Registration happens once, at construction, through a Group — a
//     registry view with a name prefix — so a component names its stats
//     relative to itself and the parent decides where it sits in the
//     hierarchy ("core3" + "sb.full_cycles").
//   - Derived stats (sums across cores) and Formulas (ratios, averages)
//     are registered as closures and evaluated only when a Snapshot is
//     taken, so they cost nothing during simulation.
//   - Snapshot() returns every stat, deterministically ordered by name
//     and schema-versioned — the unit the results pipeline caches, diffs,
//     and renders.
//
// The registry is the only aggregate observability path: readers take a
// snapshot (or read a finished run's projection of one), so observing a
// simulation adds no per-event callback to its cycle loop.
package stats

import (
	"fmt"
	"sort"
)

// Stat kinds, as rendered in snapshots.
const (
	KindCounter = "counter" // monotonically increasing uint64
	KindGauge   = "gauge"   // signed level/peak value (may move both ways)
	KindDerived = "derived" // uint64 computed at snapshot time (e.g. cross-core sums)
	KindFormula = "formula" // float64 computed at snapshot time (ratios, averages)
)

// Counter is a monotonically increasing statistic. It is a bare uint64
// underneath so hot paths may use ++ and += directly; the methods exist
// for call sites that prefer names.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds d.
func (c *Counter) Add(d uint64) { *c += Counter(d) }

// Get returns the current value.
func (c *Counter) Get() uint64 { return uint64(*c) }

// Gauge is a signed level or peak statistic (e.g. a maximum occupancy):
// unlike a Counter it may move in both directions.
type Gauge int64

// Set stores v.
func (g *Gauge) Set(v int64) { *g = Gauge(v) }

// Get returns the current value.
func (g *Gauge) Get() int64 { return int64(*g) }

// entry is one registered stat.
type entry struct {
	name string
	desc string
	kind string

	counter *Counter
	gauge   *Gauge
	derived func() uint64
	formula func() float64
}

// Registry holds the registered stats of one machine instance. It is not
// safe for concurrent mutation; a machine registers everything at
// construction and snapshots are taken between runs, matching the
// simulator's single-threaded-per-machine execution model.
type Registry struct {
	entries []entry
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// Root returns the unprefixed registration group.
func (r *Registry) Root() *Group { return &Group{r: r} }

// Len returns the number of registered stats.
func (r *Registry) Len() int { return len(r.entries) }

// add validates and records a registration. Registration mistakes are
// programming errors caught at machine construction, so they panic.
func (r *Registry) add(e entry) {
	if !validName(e.name) {
		panic(fmt.Sprintf("stats: invalid stat name %q (want dotted lowercase segments, e.g. core0.sb.full_cycles)", e.name))
	}
	if _, dup := r.names[e.name]; dup {
		panic(fmt.Sprintf("stats: duplicate stat name %q", e.name))
	}
	r.names[e.name] = struct{}{}
	r.entries = append(r.entries, e)
}

// validName accepts dotted names of non-empty [a-z0-9_] segments.
func validName(name string) bool {
	if name == "" {
		return false
	}
	segStart := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if segStart {
				return false // empty segment
			}
			segStart = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			segStart = false
		default:
			return false
		}
	}
	return !segStart
}

// Group is a registry view with a name prefix. Components receive a Group
// and register their stats relative to it; Sub nests further.
type Group struct {
	r      *Registry
	prefix string // empty, or "core0." — always dot-terminated when non-empty
}

// Sub returns a child group named name under this group.
func (g *Group) Sub(name string) *Group {
	return &Group{r: g.r, prefix: g.prefix + name + "."}
}

// Counter registers c under the group as name.
func (g *Group) Counter(c *Counter, name, desc string) {
	g.r.add(entry{name: g.prefix + name, desc: desc, kind: KindCounter, counter: c})
}

// Gauge registers v under the group as name.
func (g *Group) Gauge(v *Gauge, name, desc string) {
	g.r.add(entry{name: g.prefix + name, desc: desc, kind: KindGauge, gauge: v})
}

// Derived registers a uint64 computed at snapshot time (cross-component
// sums, clock readings).
func (g *Group) Derived(name, desc string, f func() uint64) {
	g.r.add(entry{name: g.prefix + name, desc: desc, kind: KindDerived, derived: f})
}

// Formula registers a float64 computed at snapshot time (ratios,
// averages).
func (g *Group) Formula(name, desc string, f func() float64) {
	g.r.add(entry{name: g.prefix + name, desc: desc, kind: KindFormula, formula: f})
}

// SnapshotSchema versions the snapshot JSON layout; readers of persisted
// snapshots must reject other versions.
const SnapshotSchema = 1

// Sample is one stat's value at snapshot time. Counter, gauge, and
// derived stats carry Value (gauges additionally sign it via kind);
// formulas carry Float.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value int64   `json:"value"`
	Float float64 `json:"float,omitempty"`
	Desc  string  `json:"desc,omitempty"`
}

// Snapshot is every registered stat's value, deterministically ordered by
// name. Snapshots are plain data: they serialize into run records and
// artifacts, and two runs of a deterministic simulation produce equal
// snapshots (asserted by the differential clock tests).
type Snapshot struct {
	Schema  int      `json:"schema"`
	Samples []Sample `json:"samples"`
}

// Snapshot evaluates every registered stat and returns the samples sorted
// by name.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema, Samples: make([]Sample, 0, len(r.entries))}
	for _, e := range r.entries {
		smp := Sample{Name: e.name, Kind: e.kind, Desc: e.desc}
		switch e.kind {
		case KindCounter:
			smp.Value = int64(*e.counter)
		case KindGauge:
			smp.Value = int64(*e.gauge)
		case KindDerived:
			smp.Value = int64(e.derived())
		case KindFormula:
			smp.Float = e.formula()
		}
		s.Samples = append(s.Samples, smp)
	}
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].Name < s.Samples[j].Name })
	return s
}

// Lookup returns the sample with the given name.
func (s Snapshot) Lookup(name string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Value returns the integer value of the named stat (0 when absent).
func (s Snapshot) Value(name string) int64 {
	smp, _ := s.Lookup(name)
	return smp.Value
}

// UValue returns the named stat as a uint64 (counters and derived sums;
// 0 when absent).
func (s Snapshot) UValue(name string) uint64 { return uint64(s.Value(name)) }

// Float returns the float value of the named formula stat (0 when
// absent).
func (s Snapshot) Float(name string) float64 {
	smp, _ := s.Lookup(name)
	return smp.Float
}

// Delta is one stat's change between a baseline snapshot and a fresh
// one. Exactly one of the three cases holds: the stat is new (no Old),
// removed (no New), or changed (both present, values differ).
type Delta struct {
	Name string
	// Change is "added", "removed", or "changed".
	Change   string
	Old, New Sample
}

func (d Delta) String() string {
	val := func(s Sample) string {
		if s.Kind == KindFormula {
			return fmt.Sprintf("%g", s.Float)
		}
		return fmt.Sprintf("%d", s.Value)
	}
	switch d.Change {
	case "added":
		return fmt.Sprintf("%s added (%s)", d.Name, val(d.New))
	case "removed":
		return fmt.Sprintf("%s removed (was %s)", d.Name, val(d.Old))
	default:
		return fmt.Sprintf("%s %s -> %s", d.Name, val(d.Old), val(d.New))
	}
}

// Diff compares s against the baseline and returns every stat that was
// added, removed, or changed, in name order. An empty result is
// equivalent to base.Equal(s) up to schema: Diff looks only at the
// samples. It is the engine behind "what changed vs. the committed
// baseline" reporting — both for registry snapshots and for artifact
// envelopes flattened into synthetic snapshots.
func (s Snapshot) Diff(base Snapshot) []Delta {
	var out []Delta
	i, j := 0, 0
	for i < len(base.Samples) || j < len(s.Samples) {
		switch {
		case j >= len(s.Samples) || (i < len(base.Samples) && base.Samples[i].Name < s.Samples[j].Name):
			out = append(out, Delta{Name: base.Samples[i].Name, Change: "removed", Old: base.Samples[i]})
			i++
		case i >= len(base.Samples) || s.Samples[j].Name < base.Samples[i].Name:
			out = append(out, Delta{Name: s.Samples[j].Name, Change: "added", New: s.Samples[j]})
			j++
		default:
			if base.Samples[i] != s.Samples[j] {
				out = append(out, Delta{Name: s.Samples[j].Name, Change: "changed", Old: base.Samples[i], New: s.Samples[j]})
			}
			i++
			j++
		}
	}
	return out
}

// Equal reports whether two snapshots carry identical samples. Used by
// the differential clock tests: fast-forward must be bit-exact for every
// registered stat, not just the headline counters.
func (s Snapshot) Equal(o Snapshot) bool {
	if s.Schema != o.Schema || len(s.Samples) != len(o.Samples) {
		return false
	}
	for i := range s.Samples {
		if s.Samples[i] != o.Samples[i] {
			return false
		}
	}
	return true
}
