package results

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/stats"
)

// CacheStats counts cache traffic. Hits = MemHits + DiskHits; Misses is
// the number of simulations actually executed. WriteErrors counts run
// records that could not be persisted (the results were still returned
// and kept in the memory tier). Evictions counts disk records removed by
// the LRU byte budget; DiskBytes and DiskEntries are the current disk
// tier occupancy (levels, not counters).
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	MemHits     uint64 `json:"memHits"`
	DiskHits    uint64 `json:"diskHits"`
	Misses      uint64 `json:"misses"`
	WriteErrors uint64 `json:"writeErrors"`
	Evictions   uint64 `json:"evictions"`
	DiskBytes   int64  `json:"diskBytes"`
	DiskEntries int    `json:"diskEntries"`
}

// RunCache memoizes kernel simulations, content-addressed by a hash of
// (machine configuration, kernel name, kernel options). The simulator is
// deterministic, so a cached kernels.Result is bit-identical to a fresh
// run of the same triple; experiments that share baseline configurations
// (Figures 13-16 all re-run the Table III Traditional/Scoped baselines)
// therefore simulate each distinct configuration exactly once.
//
// The cache has two tiers: an in-process map (always on) and an optional
// directory of JSON run records that persists results across invocations.
// Concurrent requests for the same key are coalesced: one simulates, the
// rest wait and count as memory hits.
//
// The disk tier can be bounded (NewRunCacheLimited): every record's byte
// size is accounted, and storing past the budget evicts records in
// least-recently-used order. Eviction never removes a record whose key
// has an in-flight coalesced load — the filler may be mid-read — and an
// evicted record simply re-misses: the simulator is deterministic, so the
// re-simulated record is byte-identical to the evicted one.
type RunCache struct {
	dir          string // "" = memory only
	maxDiskBytes int64  // 0 = unbounded

	mu       sync.Mutex
	mem      map[string]kernels.Result
	inflight map[string]*inflightRun

	// Disk-tier accounting (dir != "" only): per-record byte sizes and
	// recency order. lru front = most recently used.
	diskSize  map[string]int64
	lru       *list.List
	lruElem   map[string]*list.Element
	diskBytes int64

	memHits   atomic.Uint64
	diskHits  atomic.Uint64
	misses    atomic.Uint64
	writeErrs atomic.Uint64
	evictions atomic.Uint64
}

type inflightRun struct {
	done chan struct{}
	res  kernels.Result
	err  error
}

// NewRunCache returns a cache persisting run records under dir (created
// if missing) with no byte budget. An empty dir yields a memory-only
// cache.
func NewRunCache(dir string) (*RunCache, error) {
	return NewRunCacheLimited(dir, 0)
}

// NewRunCacheLimited returns a cache persisting run records under dir
// (created if missing) whose disk tier is bounded to maxDiskBytes
// (0 = unbounded). Records already in dir are adopted into the size
// accounting in modification-time order (oldest = first eviction
// candidate) and trimmed to the budget immediately; leftover temp files
// from a crashed writer are removed.
func NewRunCacheLimited(dir string, maxDiskBytes int64) (*RunCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("results: cache dir: %w", err)
		}
	}
	c := &RunCache{
		dir:          dir,
		maxDiskBytes: maxDiskBytes,
		mem:          make(map[string]kernels.Result),
		inflight:     make(map[string]*inflightRun),
		diskSize:     make(map[string]int64),
		lru:          list.New(),
		lruElem:      make(map[string]*list.Element),
	}
	if dir != "" {
		if err := c.scanDisk(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.evictLocked()
		c.mu.Unlock()
	}
	return c, nil
}

// NewMemCache returns an in-process-only cache.
func NewMemCache() *RunCache {
	c, _ := NewRunCache("")
	return c
}

// scanDisk seeds the size accounting and LRU order from records already
// on disk, and removes temp-file debris a crashed writer left behind.
// Corrupt or truncated records are counted too — they occupy bytes, and
// loadDisk treats them as misses, so the next fill overwrites them.
func (c *RunCache) scanDisk() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("results: cache scan: %w", err)
	}
	type rec struct {
		key   string
		size  int64
		mtime int64
	}
	var recs []rec
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if filepath.Ext(name) == ".tmp" {
			// A writer crashed between CreateTemp and Rename; the partial
			// file can never be addressed, so reclaim it.
			os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if !strings.HasPrefix(name, "run_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		key := strings.TrimSuffix(strings.TrimPrefix(name, "run_"), ".json")
		if key == "" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime < recs[j].mtime })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		c.diskSize[r.key] = r.size
		c.diskBytes += r.size
		c.lruElem[r.key] = c.lru.PushFront(r.key)
	}
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *RunCache) Stats() CacheStats {
	mem, disk := c.memHits.Load(), c.diskHits.Load()
	c.mu.Lock()
	bytes, entries := c.diskBytes, len(c.diskSize)
	c.mu.Unlock()
	return CacheStats{
		Hits:        mem + disk,
		MemHits:     mem,
		DiskHits:    disk,
		Misses:      c.misses.Load(),
		WriteErrors: c.writeErrs.Load(),
		Evictions:   c.evictions.Load(),
		DiskBytes:   bytes,
		DiskEntries: entries,
	}
}

// MaxDiskBytes returns the disk tier's byte budget (0 = unbounded).
func (c *RunCache) MaxDiskBytes() int64 { return c.maxDiskBytes }

// cacheKeyPayload is what gets hashed into a cache key. The schema
// version is included so format changes invalidate old disk records.
type cacheKeyPayload struct {
	Schema int             `json:"schema"`
	Bench  string          `json:"bench"`
	Opts   kernels.Options `json:"opts"`
	Cfg    machine.Config  `json:"cfg"`
}

// Key returns the content address of one simulation: a hex SHA-256 of
// the canonical JSON encoding of (schema, benchmark, options, config).
func Key(bench string, opts kernels.Options, cfg machine.Config) string {
	h := sha256.New()
	// Struct field order is fixed, so this encoding is canonical.
	if err := json.NewEncoder(h).Encode(cacheKeyPayload{SchemaVersion, bench, opts, cfg}); err != nil {
		panic("results: cache key encoding cannot fail: " + err.Error())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runRecord is the on-disk form of one memoized simulation. The inputs
// are stored alongside the result so a record can be validated against
// the key that addressed it.
type runRecord struct {
	Schema int             `json:"schema"`
	Bench  string          `json:"bench"`
	Opts   kernels.Options `json:"opts"`
	Cfg    machine.Config  `json:"cfg"`
	Result kernels.Result  `json:"result"`
}

func (c *RunCache) path(key string) string {
	return filepath.Join(c.dir, "run_"+key+".json")
}

// Run returns the memoized result for the triple, simulating on a miss.
// It is an exp.Runner: a Lab session with a cache installs this method as
// its runner. Run is safe for concurrent use and coalesces duplicate
// in-flight keys: one caller simulates, the rest wait and count as memory
// hits. Cancellation stays per-caller — a waiter whose own context is
// cancelled stops waiting with its ctx.Err(), and if the simulating
// caller was cancelled the surviving waiters retry the simulation under
// their own contexts instead of inheriting the foreign cancellation
// (essential when two independent Labs share one cache).
func (c *RunCache) Run(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
	return c.run(ctx, nil, bench, opts, cfg)
}

// Runner returns an exp.Runner that memoizes sim through this cache: on a
// miss the triple is simulated by sim instead of exp.DirectRun, with the
// same coalescing, persistence, and eviction behavior as Run. This is how
// a caller attaches instrumentation (e.g. summing each finished result) to
// the simulations a shared cache actually executes — coalesced waiters and
// cache hits never invoke sim. A nil sim is exactly Run.
func (c *RunCache) Runner(sim exp.Runner) exp.Runner {
	return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		return c.run(ctx, sim, bench, opts, cfg)
	}
}

func (c *RunCache) run(ctx context.Context, sim exp.Runner, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
	key := Key(bench, opts, cfg)

	for {
		c.mu.Lock()
		if res, ok := c.mem[key]; ok {
			c.mu.Unlock()
			c.memHits.Add(1)
			return res, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return kernels.Result{}, ctx.Err()
			}
			if f.err == nil {
				c.memHits.Add(1)
				return f.res, nil
			}
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				// The filler's context died, not ours: retry the lookup.
				continue
			}
			return f.res, f.err
		}
		f := &inflightRun{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		f.res, f.err = c.fill(ctx, sim, key, bench, opts, cfg)

		c.mu.Lock()
		if f.err == nil {
			c.mem[key] = f.res
		}
		delete(c.inflight, key)
		// The store above may have pushed the disk tier past its budget
		// while this key was eviction-exempt (in flight); settle now.
		c.evictLocked()
		c.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// fill resolves a memory miss: disk first, then a real simulation (whose
// result is written back to disk).
func (c *RunCache) fill(ctx context.Context, sim exp.Runner, key, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
	if c.dir != "" {
		if res, ok := c.loadDisk(key, bench); ok {
			c.diskHits.Add(1)
			return res, nil
		}
	}
	c.misses.Add(1)
	if sim == nil {
		sim = exp.DirectRun
	}
	res, err := sim(ctx, bench, opts, cfg)
	if err != nil {
		return kernels.Result{}, err
	}
	if c.dir != "" {
		// Persistence is an optimization: a full disk or read-only cache
		// dir must not discard a completed simulation. The result still
		// lands in the memory tier; WriteErrors records the failure.
		if err := c.storeDisk(key, bench, opts, cfg, res); err != nil {
			c.writeErrs.Add(1)
		}
	}
	return res, nil
}

// loadDisk reads and validates a run record; any mismatch, unreadable
// file, or corruption (including a crash-truncated write) is treated as
// a miss — the cache can always fall back to simulating. A valid load
// freshens the record's LRU position.
func (c *RunCache) loadDisk(key, bench string) (kernels.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return kernels.Result{}, false
	}
	var rec runRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return kernels.Result{}, false
	}
	// The stored inputs must hash back to the key that addressed the
	// record; a renamed or hand-edited file is a miss, not a wrong hit.
	// A record predating the stats registry (no snapshot) is also a miss:
	// re-simulating is deterministic and cheap, while serving it would
	// silently hand the "stats" experiment an empty snapshot.
	if rec.Schema != SchemaVersion || rec.Bench != bench ||
		rec.Result.Snapshot.Schema != stats.SnapshotSchema ||
		Key(rec.Bench, rec.Opts, rec.Cfg) != key {
		return kernels.Result{}, false
	}
	c.mu.Lock()
	c.touchLocked(key, int64(len(data)))
	c.mu.Unlock()
	return rec.Result, true
}

// storeDisk writes a run record atomically (temp file + fsync + rename)
// so neither a concurrent reader nor a crash mid-write can ever surface
// a partial record under the key's path: an interrupted write leaves only
// a .tmp file, which addresses nothing and is reclaimed on the next
// cache construction. A successful store updates the size accounting and
// evicts least-recently-used records past the byte budget.
func (c *RunCache) storeDisk(key, bench string, opts kernels.Options, cfg machine.Config, res kernels.Result) error {
	data, err := Marshal(runRecord{SchemaVersion, bench, opts, cfg, res})
	if err != nil {
		return fmt.Errorf("results: encode run record: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "run_*.tmp")
	if err != nil {
		return fmt.Errorf("results: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: cache write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: cache write: %w", err)
	}
	c.mu.Lock()
	c.touchLocked(key, int64(len(data)))
	c.evictLocked()
	c.mu.Unlock()
	return nil
}

// touchLocked records key's current byte size and moves it to the
// most-recently-used end. Callers hold c.mu.
func (c *RunCache) touchLocked(key string, size int64) {
	if old, ok := c.diskSize[key]; ok {
		c.diskBytes += size - old
		c.diskSize[key] = size
		c.lru.MoveToFront(c.lruElem[key])
		return
	}
	c.diskSize[key] = size
	c.diskBytes += size
	c.lruElem[key] = c.lru.PushFront(key)
}

// evictLocked removes least-recently-used disk records until the tier
// fits its byte budget. Records whose key has an in-flight coalesced
// load are exempt — the filler may be mid-read of that very file — and
// are retried on the next eviction pass (run() settles accounts when an
// in-flight entry completes). Callers hold c.mu.
func (c *RunCache) evictLocked() {
	if c.maxDiskBytes <= 0 {
		return
	}
	for e := c.lru.Back(); e != nil && c.diskBytes > c.maxDiskBytes; {
		key := e.Value.(string)
		prev := e.Prev()
		if _, busy := c.inflight[key]; busy {
			e = prev
			continue
		}
		os.Remove(c.path(key))
		c.diskBytes -= c.diskSize[key]
		delete(c.diskSize, key)
		c.lru.Remove(e)
		delete(c.lruElem, key)
		c.evictions.Add(1)
		e = prev
	}
}
