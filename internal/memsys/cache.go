package memsys

import (
	"fmt"

	"sfence/internal/stats"
)

// CacheConfig describes one cache level. A level is either private (one
// bank per core, like the paper's L1s) or shared (a single bank all cores
// reach, like the paper's L2). The outermost shared level additionally
// holds the coherence directory.
type CacheConfig struct {
	SizeBytes int  // total capacity (per bank)
	Ways      int  // associativity
	LineBytes int  // line size
	Latency   int  // access latency in cycles
	Shared    bool // one bank shared by all cores (false = one bank per core)
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

func (c CacheConfig) validate(name string) error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 || c.Latency < 0 {
		return fmt.Errorf("memsys: %s config has non-positive field: %+v", name, c)
	}
	if c.LineBytes%WordBytes != 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("memsys: %s line size %d must be a power-of-two multiple of %d", name, c.LineBytes, WordBytes)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("memsys: %s size %d not divisible by ways*line (%d*%d)", name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("memsys: %s set count %d must be a power of two", name, sets)
	}
	return nil
}

// MaxLevels bounds the configurable hierarchy depth.
const MaxLevels = 8

// Config describes the whole hierarchy as an ordered list of cache
// levels, innermost first: Levels[0] is the L1, Levels[len-1] the last
// level before memory. Private levels must form a prefix and shared
// levels a suffix (a private cache behind a shared one has no physical
// meaning), the innermost level must be private, and the outermost must
// be shared — it carries the coherence directory. The defaults in
// DefaultConfig mirror Table III of the paper.
type Config struct {
	Levels []CacheConfig
	// MemLatency is the DRAM round-trip latency in cycles.
	MemLatency int
	// RemoteDirtyPenalty is the extra latency when the line must be
	// fetched from another core's modified private copy.
	RemoteDirtyPenalty int
}

// DefaultConfig returns the paper's Table III memory-system parameters:
// private 32 KB 4-way L1 with 2-cycle latency, shared 1 MB 8-way L2 with
// 10-cycle latency, and 300-cycle memory.
func DefaultConfig() Config {
	return Config{
		Levels: []CacheConfig{
			{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 2},
			{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, Latency: 10, Shared: true},
		},
		MemLatency:         300,
		RemoteDirtyPenalty: 10,
	}
}

// DepthConfig returns the canonical hierarchy of the given depth used by
// the fig-depth sweep. Depth 2 is DefaultConfig (Table III) exactly;
// depth 3 inserts a private 256 KB L2 and widens the shared last level to
// 4 MB; depth 4 additionally splits the shared side into a 2 MB L3 and an
// 8 MB last level. Per-level latencies grow with capacity so a deeper
// hierarchy trades a slower last level for extra filtering, the same
// trade Figure 15 makes with memory latency. Depths outside [2,4] panic:
// callers pass literals, so an out-of-range depth is a programming error.
func DepthConfig(depth int) Config {
	cfg := Config{MemLatency: 300, RemoteDirtyPenalty: 10}
	l1 := CacheConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 2}
	switch depth {
	case 2:
		return DefaultConfig()
	case 3:
		cfg.Levels = []CacheConfig{
			l1,
			{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, Latency: 6},
			{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64, Latency: 24, Shared: true},
		}
	case 4:
		cfg.Levels = []CacheConfig{
			l1,
			{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, Latency: 6},
			{SizeBytes: 2 << 20, Ways: 8, LineBytes: 64, Latency: 14, Shared: true},
			{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, Latency: 36, Shared: true},
		}
	default:
		panic(fmt.Sprintf("memsys: DepthConfig(%d) out of range [2,4]", depth))
	}
	return cfg
}

// Depth returns the number of cache levels.
func (c Config) Depth() int { return len(c.Levels) }

// Validate checks structural constraints.
func (c Config) Validate() error {
	if n := len(c.Levels); n < 2 || n > MaxLevels {
		return fmt.Errorf("memsys: %d cache levels out of range [2,%d]", n, MaxLevels)
	}
	seenShared := false
	for k, lv := range c.Levels {
		name := fmt.Sprintf("L%d", k+1)
		if err := lv.validate(name); err != nil {
			return err
		}
		if lv.LineBytes != c.Levels[0].LineBytes {
			return fmt.Errorf("memsys: L1 line %d != %s line %d", c.Levels[0].LineBytes, name, lv.LineBytes)
		}
		if seenShared && !lv.Shared {
			return fmt.Errorf("memsys: %s is private outside a shared level; private levels must be innermost", name)
		}
		seenShared = seenShared || lv.Shared
	}
	if c.Levels[0].Shared {
		return fmt.Errorf("memsys: L1 must be private (per core)")
	}
	if !c.Levels[len(c.Levels)-1].Shared {
		return fmt.Errorf("memsys: the outermost level must be shared (it holds the directory)")
	}
	if c.MemLatency < 0 || c.RemoteDirtyPenalty < 0 {
		return fmt.Errorf("memsys: negative latency")
	}
	return nil
}

// Innermost-level (L1) line states.
const (
	l1Invalid uint8 = iota
	l1Shared
	l1Exclusive // clean, sole owner (E of MESI)
	l1Modified
)

type l1Line struct {
	tag   int64
	state uint8
	lru   uint64
}

// l1Cache is one core's innermost cache — the only level carrying MESI
// ownership state; outer levels are tag stores (tagStore).
type l1Cache struct {
	cfg   CacheConfig
	sets  int
	lines []l1Line // sets*ways
	tick  uint64
}

// tagLine is one line of an outer level: 32 bytes and no pointers, so a
// multi-megabyte tag array is one flat allocation the garbage collector
// never scans. The directory fields (low, owner, dirty) are maintained
// only at the outermost shared level; middle levels use just
// tag/valid/dirty/lru. The line's sharer set is tagStore.sharers(l): the
// inline low word plus, on machines of more than 64 cores, the line's run
// of the directory's extension words, found through idx.
type tagLine struct {
	tag   int64
	lru   uint64
	low   uint64 // sharers among cores 0..63
	idx   int32  // the line's index in its store's lines
	owner int16  // core index holding E/M, or -1
	valid bool
	dirty bool
}

// tagStore is one bank of an outer cache level: the single array of a
// shared level, or one core's slice of a private level.
type tagStore struct {
	cfg   CacheConfig
	sets  int
	lines []tagLine
	tick  uint64

	// ext holds the directory's sharer words for cores 64 and up,
	// extWords per line, line i's at ext[i*extWords:(i+1)*extWords]. It
	// is allocated with the hierarchy and is empty on machines of at most
	// 64 cores and at every level but the directory's.
	ext      []uint64
	extWords int
}

// sharers returns the sharer set of line l, one of c's lines.
func (c *tagStore) sharers(l *tagLine) sharerSet {
	i := int(l.idx) * c.extWords
	return sharerSet{low: &l.low, ext: c.ext[i : i+c.extWords : i+c.extWords]}
}

// reset re-points line l at tag with empty directory state. The caller
// touches the line afterwards, so the stale lru stamp never survives.
func (c *tagStore) reset(l *tagLine, tag int64) {
	l.tag = tag
	l.valid = true
	l.dirty = false
	c.sharers(l).clear()
	l.owner = -1
}

// outerLevel is one cache level beyond the innermost: a banked tag store.
type outerLevel struct {
	cfg   CacheConfig
	banks []tagStore // one per core when private, a single bank when shared
}

// bank returns the tag store the given core reaches at this level.
func (lv *outerLevel) bank(core int) *tagStore {
	if lv.cfg.Shared {
		return &lv.banks[0]
	}
	return &lv.banks[core]
}

// LevelStats is one cache level's hit/miss pair for one core.
type LevelStats struct {
	Hits   stats.Counter
	Misses stats.Counter
}

// CoreStats counts memory-system events for one core. Fields are
// registry-typed (stats.Counter) and published into the machine's stats
// registry by RegisterStats; CI's stale-counter gate keeps raw counter
// fields from creeping back in.
type CoreStats struct {
	Loads  stats.Counter
	Stores stats.Counter
	// Level holds this core's per-level hit/miss counters, innermost
	// first: Level[k] describes the L(k+1) cache, registered as
	// coreN.mem.l<k+1>_hits / l<k+1>_misses.
	Level         []LevelStats
	Upgrades      stats.Counter // S->M ownership upgrades
	Invalidations stats.Counter // private-level lines invalidated by others
	Writebacks    stats.Counter // dirty private-level evictions
	RemoteDirty   stats.Counter // misses serviced from another core's M line
}

// register publishes the counters into g under stable dotted names: the
// per-level pairs as l<k>_hits / l<k>_misses (1-based, innermost first),
// everything else under its historical name.
func (s *CoreStats) register(g *stats.Group) {
	g.Counter(&s.Loads, "loads", "demand loads reaching the hierarchy")
	g.Counter(&s.Stores, "stores", "stores and CAS read-for-ownership accesses")
	for k := range s.Level {
		n := k + 1
		g.Counter(&s.Level[k].Hits, fmt.Sprintf("l%d_hits", n), fmt.Sprintf("L%d hits", n))
		missDesc := fmt.Sprintf("L%d misses", n)
		if k == len(s.Level)-1 {
			missDesc += " (memory fetches)"
		}
		g.Counter(&s.Level[k].Misses, fmt.Sprintf("l%d_misses", n), missDesc)
	}
	g.Counter(&s.Upgrades, "upgrades", "S->M ownership upgrades")
	g.Counter(&s.Invalidations, "invalidations", "private-level lines invalidated by other cores")
	g.Counter(&s.Writebacks, "writebacks", "dirty private-level evictions")
	g.Counter(&s.RemoteDirty, "remote_dirty", "misses serviced from another core's modified line")
}

// Hierarchy is the shared N-level cache model. It is purely a timing and
// coherence-state model: Access returns the latency of an access and
// updates tag/directory state; values live in the Image. The hierarchy is
// inclusive — a line present at level k is present at every level outside
// k — which is what lets the single directory at the outermost level
// stand in for per-level coherence state.
type Hierarchy struct {
	cfg   Config
	cores int
	inner []l1Cache    // innermost private level, one per core (MESI)
	outer []outerLevel // levels 2..N, outermost last (holds the directory)
	stats []CoreStats

	// ver[c] counts SELF-induced mutations of core c's view of the
	// hierarchy: any access by c that is not an idempotent private hit
	// (misses, ownership upgrades, LRU movement). The cpu spin detector
	// compares it across loop iterations — a stable spin must perform
	// only idempotent hits. Remote actions are deliberately excluded:
	// they are reported address-by-address through OnDisturb, so a
	// spinning core is only perturbed by remote traffic on lines its
	// loop actually reads. Monitoring state only: not registered in the
	// stats registry.
	ver []uint64

	// all is the set of every core, the sharer mask assumed for a line
	// the directory has lost (see evictOuter).
	all sharerSet

	// OnDisturb, when set, is called whenever a remote action
	// (coherence invalidation, ownership downgrade, inclusive
	// back-invalidation) touches one of core's private copies, with the
	// line tag (see LineOf). The machine wires it to the cpu spin
	// detectors: a disturb on a line a spin loop reads — or any disturb
	// while a per-period statistics window is being captured, since the
	// disturb charges Invalidations/Writebacks to this core — must drop
	// the detection. Called synchronously from inside Access, before the
	// action changes the core's copy or charges its counters.
	OnDisturb func(core int, line int64)

	lineShift uint
}

// LineOf returns the cache line tag of a byte address — the unit at which
// OnDisturb reports remote coherence actions.
func (h *Hierarchy) LineOf(addr int64) int64 { return addr >> h.lineShift }

// disturb reports a remote action on one of core's private copies.
func (h *Hierarchy) disturb(core int, line int64) {
	if h.OnDisturb != nil {
		h.OnDisturb(core, line)
	}
}

// NewHierarchy builds a hierarchy for the given core count.
func NewHierarchy(cores int, cfg Config) (*Hierarchy, error) {
	if cores <= 0 || cores > MaxCores {
		return nil, fmt.Errorf("memsys: core count %d out of range [1,%d]", cores, MaxCores)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, cores: cores, stats: make([]CoreStats, cores), ver: make([]uint64, cores), all: newSharerSet(cores)}
	h.all.fill(cores)
	for i := range h.stats {
		h.stats[i].Level = make([]LevelStats, len(cfg.Levels))
	}
	for lb := cfg.Levels[0].LineBytes; lb > 1; lb >>= 1 {
		h.lineShift++
	}
	h.inner = make([]l1Cache, cores)
	for i := range h.inner {
		h.inner[i] = l1Cache{
			cfg:   cfg.Levels[0],
			sets:  cfg.Levels[0].Sets(),
			lines: make([]l1Line, cfg.Levels[0].Sets()*cfg.Levels[0].Ways),
		}
	}
	h.outer = make([]outerLevel, len(cfg.Levels)-1)
	for j := range h.outer {
		lcfg := cfg.Levels[j+1]
		nbanks := 1
		if !lcfg.Shared {
			nbanks = cores
		}
		lv := outerLevel{cfg: lcfg, banks: make([]tagStore, nbanks)}
		for b := range lv.banks {
			ts := tagStore{
				cfg:   lcfg,
				sets:  lcfg.Sets(),
				lines: make([]tagLine, lcfg.Sets()*lcfg.Ways),
			}
			if j == len(h.outer)-1 {
				ts.extWords = extWords(cores)
				ts.ext = make([]uint64, len(ts.lines)*ts.extWords)
			}
			for i := range ts.lines {
				ts.lines[i].idx = int32(i)
				ts.lines[i].owner = -1
			}
			lv.banks[b] = ts
		}
		h.outer[j] = lv
	}
	return h, nil
}

// MustHierarchy is NewHierarchy that panics on error.
func MustHierarchy(cores int, cfg Config) *Hierarchy {
	h, err := NewHierarchy(cores, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Depth returns the number of cache levels.
func (h *Hierarchy) Depth() int { return len(h.cfg.Levels) }

// LevelConfig returns the configuration of level k (0-based, innermost
// first).
func (h *Hierarchy) LevelConfig(k int) CacheConfig { return h.cfg.Levels[k] }

// directory returns the outermost level's single shared bank — the home
// of the coherence directory.
func (h *Hierarchy) directory() *tagStore { return &h.outer[len(h.outer)-1].banks[0] }

// Stats returns the per-core statistics accumulated so far. The Level
// slice aliases the live counters; treat the result as read-only.
func (h *Hierarchy) Stats(core int) CoreStats { return h.stats[core] }

// RegisterStats publishes one core's memory-system counters into g
// (typically the machine registry's "coreN.mem" group).
func (h *Hierarchy) RegisterStats(g *stats.Group, core int) { h.stats[core].register(g) }

// LevelHits sums hits at level k (0-based) across cores.
func (h *Hierarchy) LevelHits(k int) uint64 {
	var t uint64
	for i := range h.stats {
		t += h.stats[i].Level[k].Hits.Get()
	}
	return t
}

// LevelMisses sums misses at level k (0-based) across cores.
func (h *Hierarchy) LevelMisses(k int) uint64 {
	var t uint64
	for i := range h.stats {
		t += h.stats[i].Level[k].Misses.Get()
	}
	return t
}

// TotalStats sums statistics across cores.
func (h *Hierarchy) TotalStats() CoreStats {
	t := CoreStats{Level: make([]LevelStats, len(h.cfg.Levels))}
	for i := range h.stats {
		s := &h.stats[i]
		t.Loads += s.Loads
		t.Stores += s.Stores
		for k := range s.Level {
			t.Level[k].Hits += s.Level[k].Hits
			t.Level[k].Misses += s.Level[k].Misses
		}
		t.Upgrades += s.Upgrades
		t.Invalidations += s.Invalidations
		t.Writebacks += s.Writebacks
		t.RemoteDirty += s.RemoteDirty
	}
	return t
}

func (h *Hierarchy) lineOf(addr int64) int64 { return addr >> h.lineShift }

// Sharers returns the directory's sharer set for the line containing
// addr as a sorted core-index slice — the cores whose private levels may
// hold a copy — and whether the line is present in the directory at all
// (an absent line means the set is unknown and callers must assume every
// core). The cost is O(sharers), independent of the machine's core
// count.
//
// Note the set is a snapshot, not a history: a write Access to the line
// resets it to the writer alone, and a last-level eviction discards it,
// while loads that used the line may still be in flight in some core's
// ROB. Machine.broadcastStore therefore does NOT use it as a snoop filter
// — doing so could skip a core holding a speculative load that must
// replay — and relies on the exact per-core spec-load occupancy count
// instead (see DESIGN.md, "Snoop filtering").
func (h *Hierarchy) Sharers(addr int64) ([]int, bool) {
	dir := h.directory()
	if l := dir.find(h.lineOf(addr)); l != nil {
		return dir.sharers(l).members(), true
	}
	return nil, false
}

// --- innermost-level helpers ---

func (c *l1Cache) find(line int64) *l1Line {
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Ways
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.state != l1Invalid && l.tag == line {
			return l
		}
	}
	return nil
}

// victim returns the line to fill (an invalid way if any, else LRU).
func (c *l1Cache) victim(line int64) *l1Line {
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Ways
	var v *l1Line
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.state == l1Invalid {
			return l
		}
		if v == nil || l.lru < v.lru {
			v = l
		}
	}
	return v
}

// stamp unconditionally marks l most recently used. Fills must use it:
// the victim way's lru field is stale (the previous occupant's, or zero),
// so the MRU shortcut in touch would mis-order a line filled into a
// near-empty set.
func (c *l1Cache) stamp(l *l1Line) {
	c.tick++
	l.lru = c.tick
}

// touch marks an already-resident line most recently used and reports
// whether any cache state actually changed. When l is already the MRU
// line of its set the update is skipped entirely: the recency ORDER — the
// only thing victim selection reads — is unchanged either way (valid
// lines carry distinct stamps, so the maximum is unique), and skipping
// makes a steady-state hit a true no-op. That idempotence is what the
// spin detector's stability check relies on: a core looping on L1 hits
// leaves the hierarchy bit-identical whether the iterations run or are
// skipped.
func (c *l1Cache) touch(l *l1Line) bool {
	set := int(l.tag) & (c.sets - 1)
	base := set * c.cfg.Ways
	for i := 0; i < c.cfg.Ways; i++ {
		o := &c.lines[base+i]
		if o != l && o.state != l1Invalid && o.lru > l.lru {
			c.stamp(l)
			return true
		}
	}
	return false
}

// --- outer-level helpers ---

func (c *tagStore) find(line int64) *tagLine {
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Ways
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == line {
			return l
		}
	}
	return nil
}

func (c *tagStore) victim(line int64) *tagLine {
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Ways
	var v *tagLine
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if !l.valid {
			return l
		}
		if v == nil || l.lru < v.lru {
			v = l
		}
	}
	return v
}

func (c *tagStore) touch(l *tagLine) {
	c.tick++
	l.lru = c.tick
}

// dropPrivateMiddleCopies silently removes the line from core's private
// levels beyond the innermost one (no stats: the caller accounts for the
// coherence event itself, or the drop is the core's own eviction).
func (h *Hierarchy) dropPrivateMiddleCopies(core int, line int64) {
	for j := range h.outer {
		if h.outer[j].cfg.Shared {
			break // private levels are a prefix
		}
		if l := h.outer[j].banks[core].find(line); l != nil {
			l.valid = false
		}
	}
}

// invalidatePrivateCopies removes the line from every private level of
// every core named in the sharer set (back-invalidation or coherence
// invalidation), charging the Invalidations stat once per core losing a
// copy and Writebacks for a modified innermost copy. The walk visits
// sharers in ascending core order — the same order the historical
// all-cores loop produced — but costs O(sharers), not O(cores).
func (h *Hierarchy) invalidatePrivateCopies(line int64, sharers sharerSet, except int) {
	sharers.forEach(func(c int) {
		if c == except || c >= h.cores {
			return
		}
		inner := h.inner[c].find(line)
		found := inner != nil
		for j := 0; !found && j < len(h.outer) && !h.outer[j].cfg.Shared; j++ {
			found = h.outer[j].banks[c].find(line) != nil
		}
		if !found {
			return
		}
		// Report before mutating: the machine may first catch a parked
		// spinner up against the copy it still holds.
		h.disturb(c, line)
		if inner != nil {
			if inner.state == l1Modified {
				h.stats[c].Writebacks++
			}
			inner.state = l1Invalid
		}
		for j := range h.outer {
			if h.outer[j].cfg.Shared {
				break // private levels are a prefix
			}
			if l := h.outer[j].banks[c].find(line); l != nil {
				l.valid = false
			}
		}
		h.stats[c].Invalidations++
	})
}

// markOuterDirty records a writeback of tag into the nearest level at or
// beyond outer index fromOuter that holds the line along core's path.
func (h *Hierarchy) markOuterDirty(fromOuter, core int, tag int64) {
	for j := fromOuter; j < len(h.outer); j++ {
		if l := h.outer[j].bank(core).find(tag); l != nil {
			l.dirty = true
			return
		}
	}
}

// evictOuter removes victim v from outer level j ahead of a refill,
// preserving inclusion: evicting from a shared level drops the line from
// every inner level (private copies via the directory mask), evicting
// from one core's private bank drops only that core's inner copies —
// silently, mirroring the innermost victim path (the directory bit goes
// stale; a later invalidation of the stale sharer is a harmless no-op).
func (h *Hierarchy) evictOuter(j, core int, v *tagLine) {
	if h.outer[j].cfg.Shared {
		// A middle shared level's set lives at the directory; an absent
		// directory entry means assume every core.
		dir := h.directory()
		mask := h.all
		if j == len(h.outer)-1 {
			mask = dir.sharers(v)
		} else if dl := dir.find(v.tag); dl != nil {
			mask = dir.sharers(dl)
		}
		h.invalidatePrivateCopies(v.tag, mask, -1)
		for i := 0; i < j; i++ {
			if !h.outer[i].cfg.Shared {
				continue
			}
			if l := h.outer[i].banks[0].find(v.tag); l != nil {
				l.valid = false
			}
		}
		return
	}
	if l := h.inner[core].find(v.tag); l != nil {
		if l.state == l1Modified {
			h.stats[core].Writebacks++
		}
		l.state = l1Invalid
	}
	for i := 0; i < j; i++ {
		if l := h.outer[i].banks[core].find(v.tag); l != nil {
			l.valid = false
		}
	}
	if v.dirty {
		// The victim's data drains outward, not to memory: dirty the next
		// outer copy (present by inclusion).
		h.markOuterDirty(j+1, core, v.tag)
	}
}

// pathLatency sums the access latencies from the innermost level through
// the directory — the cost of an ownership request that must reach the
// coherence point.
func (h *Hierarchy) pathLatency() int {
	lat := h.cfg.Levels[0].Latency
	for j := range h.outer {
		lat += h.outer[j].cfg.Latency
	}
	return lat
}

// Access simulates one memory access by `core` to byte address addr and
// returns its latency in cycles. write=true covers stores and the
// read-for-ownership of CAS.
//
// The walk is generic over hierarchy depth: an access missing the
// innermost level probes each outer level along the core's path (its own
// private banks, then the shared levels) until the line is found or
// memory supplies it, accumulating each probed level's latency; writes
// additionally travel on to the directory for ownership. The fill
// installs the line at every level between the supply point and the
// core. With the default two-level configuration every path below
// reduces exactly to the paper's private-L1 / shared-L2+directory model.
func (h *Hierarchy) Access(core int, addr int64, write bool) int {
	line := h.lineOf(addr)
	st := &h.stats[core]
	if write {
		st.Stores++
	} else {
		st.Loads++
	}
	l1 := &h.inner[core]
	if l := l1.find(line); l != nil {
		if l1.touch(l) {
			h.ver[core]++
		}
		switch {
		case !write: // read hit in any valid state
			st.Level[0].Hits++
			return h.cfg.Levels[0].Latency
		case l.state == l1Modified:
			st.Level[0].Hits++
			return h.cfg.Levels[0].Latency
		case l.state == l1Exclusive: // silent E->M upgrade
			l.state = l1Modified
			h.ver[core]++
			st.Level[0].Hits++
			return h.cfg.Levels[0].Latency
		default: // Shared write: upgrade through the directory
			h.ver[core]++
			st.Level[0].Hits++
			st.Upgrades++
			lat := h.pathLatency()
			dir := h.directory()
			if dl := dir.find(line); dl != nil {
				ds := dir.sharers(dl)
				h.invalidatePrivateCopies(line, ds, core)
				ds.only(core)
				dl.owner = int16(core)
				dl.dirty = true
				dir.touch(dl)
			}
			l.state = l1Modified
			return lat
		}
	}

	// Innermost miss: walk the outer levels until the line is found.
	h.ver[core]++
	st.Level[0].Misses++
	lat := h.cfg.Levels[0].Latency
	hitJ := -1
	for j := 0; j < len(h.outer); j++ {
		lat += h.outer[j].cfg.Latency
		if l := h.outer[j].bank(core).find(line); l != nil {
			st.Level[j+1].Hits++
			hitJ = j
			break
		}
		st.Level[j+1].Misses++
	}
	if write && hitJ >= 0 {
		// A write supplied by an inner level still travels to the
		// directory for ownership.
		for j := hitJ + 1; j < len(h.outer); j++ {
			lat += h.outer[j].cfg.Latency
		}
	}

	dir := h.directory()
	var dl *tagLine
	if hitJ < 0 {
		// Missed everywhere: fetch from memory and install at the
		// directory level (evicting with back-invalidation to preserve
		// inclusion).
		lat += h.cfg.MemLatency
		v := dir.victim(line)
		if v.valid {
			h.evictOuter(len(h.outer)-1, core, v)
		}
		dir.reset(v, line)
		dl = v
	} else {
		// The line is present at the directory by inclusion (the
		// defensive install covers a stale directory after reconfiguring
		// state by hand in tests).
		dl = dir.find(line)
		if dl == nil {
			v := dir.victim(line)
			if v.valid {
				h.evictOuter(len(h.outer)-1, core, v)
			}
			dir.reset(v, line)
			dl = v
		}
		// If another core holds the line modified, it must supply the
		// data (and lose or downgrade its copy).
		if dl.owner >= 0 && int(dl.owner) != core {
			if ol := h.inner[dl.owner].find(line); ol != nil && (ol.state == l1Modified || ol.state == l1Exclusive) {
				h.disturb(int(dl.owner), line)
				if ol.state == l1Modified {
					lat += h.cfg.RemoteDirtyPenalty
					st.RemoteDirty++
					h.stats[dl.owner].Writebacks++
					dl.dirty = true
				}
				if write {
					// One coherence event: invalidate the owner's whole
					// private path here, charged once, so the directory
					// sweep below finds nothing left to count.
					ol.state = l1Invalid
					h.dropPrivateMiddleCopies(int(dl.owner), line)
					h.stats[dl.owner].Invalidations++
				} else {
					ol.state = l1Shared
				}
			}
			if !write {
				dl.owner = -1
			}
		}
	}
	dir.touch(dl)

	// Coherence action at the directory.
	ds := dir.sharers(dl)
	if write {
		h.invalidatePrivateCopies(line, ds, core)
		ds.only(core)
		dl.owner = int16(core)
		dl.dirty = true
	} else {
		ds.add(core)
		if !ds.lone(core) {
			dl.owner = -1
		}
	}

	// Install the line at every middle level between the supply point and
	// the core, evicting as needed. (A memory fetch was installed at the
	// directory above; a directory-level hit leaves no middle levels.)
	startJ := hitJ - 1
	if hitJ < 0 {
		startJ = len(h.outer) - 2
	}
	for j := startJ; j >= 0; j-- {
		b := h.outer[j].bank(core)
		if l := b.find(line); l != nil {
			b.touch(l)
			continue
		}
		v := b.victim(line)
		if v.valid {
			h.evictOuter(j, core, v)
		}
		b.reset(v, line)
		b.touch(v)
	}

	// Install in the innermost level, evicting as needed.
	v := l1.victim(line)
	if v.state != l1Invalid {
		if v.state == l1Modified {
			st.Writebacks++
			h.markOuterDirty(0, core, v.tag)
		}
		// Leave the old line's directory bit stale; a later invalidation
		// of the stale sharer is a harmless no-op.
		v.state = l1Invalid
	}
	v.tag = line
	switch {
	case write:
		v.state = l1Modified
	case ds.lone(core):
		v.state = l1Exclusive
		dl.owner = int16(core)
	default:
		v.state = l1Shared
	}
	l1.stamp(v)
	return lat
}
