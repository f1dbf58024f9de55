// Package memsys models the simulated memory system: a word-addressable
// memory image holding architectural values, and a configurable N-level
// cache hierarchy with MESI-style invalidation that supplies access
// latencies.
//
// # Lazily paged image
//
// The Image has a fixed power-of-two address space (64 MiB in the
// default machine) over which Norm wraps wrong-path addresses, but it
// stores only the pages that have been written: a page is allocated by
// the first store to it and every other word reads as zero.
// Each simulation builds a fresh machine, and zeroing a flat 64 MiB
// image cost 9.2 ms and 64 MiB per machine while the paper's kernels
// write a few hundred KiB to 2 MiB. Paged, a pass of the benchmark's
// sim-skip workload (eight machines) spends 8.2 ms instead of 84.5 ms in
// machine.New and allocates 19 MiB instead of 523 MiB. Loads never
// allocate, and a missing page is installed with a compare-and-swap so
// that goroutines may store to distinct words concurrently.
//
// # Timing-directed split
//
// The simulator is timing-directed: values always live in the Image, and
// a store's value becomes visible to other cores only when the owning
// core's store buffer completes it (see internal/cpu). The cache
// hierarchy decides *when* that happens and what each access costs,
// reproducing the latency structure of the paper's SESC configuration
// (Table III). Because no data flows through the caches, the Hierarchy is
// purely tag, LRU, and directory state.
//
// # Hierarchy shape
//
// Config is an ordered list of cache levels, innermost first. Each level
// is private (one bank per core) or shared (a single bank); private
// levels must form a prefix and shared levels a suffix, and the outermost
// level — always shared — holds the coherence directory (sharer mask and
// owner per line). The hierarchy is inclusive: a fill installs the line
// at every level between the supply point and the requesting core, and an
// eviction back-invalidates all inner copies, so the single directory at
// the last level can stand in for per-level coherence state. The default
// two-level configuration (private 32 KB L1, shared 1 MB L2+directory)
// reproduces the paper's Table III machine exactly; DepthConfig scales
// the same shape to three and four levels for the fig-depth sweep.
//
// # Level addressing and statistics
//
// Levels are named L1..LN, innermost first. Every level keeps a per-core
// hit/miss pair (CoreStats.Level, registered with the machine's stats
// registry as coreN.mem.l<k>_hits / l<k>_misses), and the machine adds
// cross-core sums under machine.mem.l<k>_*; see RegisterStats and
// internal/machine.
package memsys
