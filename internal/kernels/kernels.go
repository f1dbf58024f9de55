// Package kernels contains the paper's eight benchmarks (Table IV),
// written in the simulator's mini-ISA: four lock-free algorithms (dekker,
// wsq, msn, harris) and four full applications (pst, ptc, barnes,
// radiosity). Each kernel can be built with traditional fences or with
// scoped fences (class or set scope), and ships a verifier that checks the
// run's architectural result — so every performance experiment doubles as
// a correctness test of the memory model and the S-Fence hardware.
package kernels

import (
	"context"
	"fmt"
	"sort"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/machine"
	"sfence/internal/memsys"
	"sfence/internal/scopecheck"
	"sfence/internal/stats"
)

// FenceMode selects how the kernel's fences are emitted.
type FenceMode uint8

const (
	// Traditional emits every fence as a global (full) fence: the
	// baseline "T" configuration of the paper.
	Traditional FenceMode = iota
	// Scoped emits each fence with its natural scope (class or set,
	// depending on the benchmark): the paper's "S" configuration.
	Scoped
	// Inferred builds the Traditional (unannotated) variant and rewrites
	// it with scopecheck.Infer: every fence becomes set-scoped and
	// exactly the accesses the static analysis proves thread-escaping and
	// order-relevant carry a set flag — the compiler-derived "S"
	// configuration, with no hand annotations.
	Inferred
)

func (m FenceMode) String() string {
	switch m {
	case Traditional:
		return "traditional"
	case Inferred:
		return "inferred"
	}
	return "scoped"
}

// ScopeOverride optionally forces the scoped variant to use class or set
// scope, for the paper's Figure 14 comparison.
type ScopeOverride uint8

const (
	ScopeDefault ScopeOverride = iota
	ForceClass
	ForceSet
)

// Options parameterize a kernel build. The JSON tags are part of the
// results schema: options are hashed into run-cache keys and stored in
// run records and BENCH_*.json artifacts (see internal/results).
type Options struct {
	Mode  FenceMode     `json:"mode"`
	Scope ScopeOverride `json:"scope"`

	// Threads is the number of hardware threads to use (0 = kernel
	// default, bounded by the machine's core count at run time).
	Threads int `json:"threads"`
	// Ops scales the kernel's main operation count (0 = default).
	Ops int `json:"ops"`
	// Workload is the between-operations computation knob of the
	// paper's Figure 12 harness (arbitrary units, 0 = kernel default).
	Workload int `json:"workload"`
	// Seed drives all randomized inputs deterministically.
	Seed int64 `json:"seed"`

	// FinerFences uses store-store fences where the algorithm only needs
	// store-store ordering (the paper's Fig. 2 put() "storestore"
	// comment), combining fence scoping with finer fence kinds as
	// Section VII suggests. Applies to wsq-based kernels.
	FinerFences bool `json:"finerFences"`
}

func (o Options) withDefaults(threads, ops, workload int) Options {
	if o.Threads == 0 {
		o.Threads = threads
	}
	if o.Ops == 0 {
		o.Ops = ops
	}
	if o.Workload == 0 {
		o.Workload = workload
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Kernel is a built benchmark ready to run.
type Kernel struct {
	Name    string
	Program *isa.Program
	Threads []machine.Thread
	// MemInit seeds individual words of the memory image before the run.
	MemInit map[int64]int64
	// InitImage, if non-nil, performs bulk image initialization (large
	// arrays, graphs) before the run; it runs after MemInit. A read-only
	// table whose values depend only on its size is best built once per
	// process and shared copy-on-write with memsys.Image.Share, as barnes
	// and radiosity do; the pages it covers must then hold no MemInit
	// word.
	InitImage func(img *memsys.Image)
	// Verify checks the final memory image; nil means no check.
	Verify func(img *memsys.Image) error
	// Regions declares the kernel's data placement for the static scope
	// analyzer (see Scenario); empty means no regions are declared and
	// only concretely resolved addresses are attributed.
	Regions []scopecheck.Region
}

// LoadImage writes the kernel's initial data into img, a fresh image:
// the MemInit words first, then InitImage's bulk initialization. The
// order matters to a kernel whose InitImage shares a base image, since
// Share needs the base's pages still empty; a caller that performs the
// two steps itself must keep it.
func (k *Kernel) LoadImage(img *memsys.Image) {
	for addr, val := range k.MemInit {
		img.Store(addr, val)
	}
	if k.InitImage != nil {
		k.InitImage(img)
	}
}

// Builder constructs a kernel from options.
type Builder func(opts Options) (*Kernel, error)

// Info describes a benchmark for Table IV.
type Info struct {
	Name        string
	ScopeType   string // "class" or "set"
	Description string
	Group       string // "lock-free", "full-app", or "micro"
	Build       Builder
	// Hidden excludes the benchmark from All() (and hence Table IV):
	// microbenchmarks that exist for ablations, not the paper's tables.
	// Lookup and Build still resolve hidden benchmarks by name.
	Hidden bool
}

var registry []Info

func register(info Info) {
	registry = append(registry, info)
}

// All returns benchmark metadata in a stable order (Table IV order),
// excluding hidden microbenchmarks.
func All() []Info {
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		if !info.Hidden {
			out = append(out, info)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return tableOrder(out[i].Name) < tableOrder(out[j].Name) })
	return out
}

func tableOrder(name string) int {
	order := []string{"dekker", "wsq", "msn", "harris", "barnes", "radiosity", "pst", "ptc"}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// Lookup returns the registered benchmark by name.
func Lookup(name string) (Info, error) {
	for _, info := range registry {
		if info.Name == name {
			return info, nil
		}
	}
	return Info{}, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// Build constructs the named benchmark. Inferred mode builds the
// unannotated Traditional variant and rewrites its program with
// statically inferred scopes.
func Build(name string, opts Options) (*Kernel, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if opts.Mode != Inferred {
		return info.Build(opts)
	}
	base := opts
	base.Mode = Traditional
	k, err := info.Build(base)
	if err != nil {
		return nil, err
	}
	sc := k.Scenario()
	prog, _, err := scopecheck.Infer(&sc)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: scope inference: %w", name, err)
	}
	k.Program = prog
	return k, nil
}

// Result summarizes one kernel run. Results are memoized on disk by the
// run cache and embedded in JSON artifacts, so the JSON tags are part of
// the results schema. The headline fields are projections of Snapshot —
// the machine's full hierarchical stats registry at end of run — kept as
// explicit fields so the figure/table pipeline reads them without string
// lookups and so the serialized layout (and hence every committed
// artifact) is unchanged from the pre-registry schema.
type Result struct {
	Cycles     int64        `json:"cycles"`
	FenceStall uint64       `json:"fenceStall"` // summed across cores
	CoreCycles uint64       `json:"coreCycles"` // summed active cycles across cores
	Stats      machineStats `json:"stats"`

	// Profile is the per-static-fence stall profile, merged across
	// cores and sorted by stall cycles.
	Profile []cpu.FenceSite `json:"profile"`

	// Snapshot is the full, deterministically ordered stats snapshot of
	// the run: every per-core pipeline, S-Fence hardware, and cache
	// counter plus machine totals and clock accounting. It rides through
	// the run cache, so the "stats" experiment and `sfence-sim -stats`
	// expose it without re-plumbing individual fields through the stack.
	Snapshot stats.Snapshot `json:"snapshot"`
}

type machineStats struct {
	Committed       uint64 `json:"committed"`
	CommittedFences uint64 `json:"committedFences"`
	Mispredicts     uint64 `json:"mispredicts"`
	L1Misses        uint64 `json:"l1Misses"`
	L2Misses        uint64 `json:"l2Misses"`
}

// FenceStallFraction is the fence-stall share of total core time — the
// "Fence Stalls" portion of the paper's stacked bars.
func (r Result) FenceStallFraction() float64 {
	if r.CoreCycles == 0 {
		return 0
	}
	return float64(r.FenceStall) / float64(r.CoreCycles)
}

// Run executes the kernel on the given machine configuration, verifies the
// result, and returns the measurements. The context cancels or time-boxes
// the simulation mid-cycle-loop (see machine.Machine.Run); a cancelled run
// returns ctx.Err() and no Result. A run that completes but fails Verify
// returns its full Result next to the error, so the failure can be
// explained from the cycle count and the stats snapshot.
func Run(ctx context.Context, k *Kernel, cfg machine.Config) (Result, error) {
	return RunTraced(ctx, k, cfg, nil)
}

// RunTraced is Run with an optional pipeline tracer attached to every
// core (nil disables tracing). A tracer pins the machine's per-cycle slow
// path; results are identical either way. It verifies the result and
// summarizes the machine's stats-registry snapshot into a Result.
func RunTraced(ctx context.Context, k *Kernel, cfg machine.Config, tracer cpu.Tracer) (Result, error) {
	if len(k.Threads) > cfg.Cores {
		return Result{}, fmt.Errorf("kernels: %s needs %d cores, machine has %d", k.Name, len(k.Threads), cfg.Cores)
	}
	m, err := machine.New(cfg, k.Program, k.Threads)
	if err != nil {
		return Result{}, err
	}
	if tracer != nil {
		for i := 0; i < m.Cores(); i++ {
			m.Core(i).SetTracer(tracer)
		}
	}
	k.LoadImage(m.Image())
	cycles, err := m.Run(ctx)
	if err != nil {
		return Result{}, fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	// A failed Verify still returns the Result, which explains the run.
	var verr error
	if k.Verify != nil {
		if err := k.Verify(m.Image()); err != nil {
			verr = fmt.Errorf("kernels: %s verification failed: %w", k.Name, err)
		}
	}
	// The Result is a projection of the registry snapshot: the machine's
	// derived "machine.*" stats are the cross-core sums TotalStats used
	// to provide, evaluated once here.
	snap := m.StatsSnapshot()
	profiles := make([][]cpu.FenceSite, m.Cores())
	for i := 0; i < m.Cores(); i++ {
		profiles[i] = m.Core(i).FenceProfile()
	}
	return Result{
		Cycles:     cycles,
		FenceStall: snap.UValue("machine.fence_idle_cycles"),
		CoreCycles: snap.UValue("machine.core_cycles"),
		Profile:    cpu.MergeFenceProfiles(profiles...),
		Stats: machineStats{
			Committed:       snap.UValue("machine.committed"),
			CommittedFences: snap.UValue("machine.committed_fences"),
			Mispredicts:     snap.UValue("machine.mispredicts"),
			L1Misses:        snap.UValue("machine.mem.l1_misses"),
			L2Misses:        snap.UValue("machine.mem.l2_misses"),
		},
		Snapshot: snap,
	}, verr
}

// --- shared code-generation helpers ---

// scopeCtx carries the effective fence scoping of a kernel build.
type scopeCtx struct {
	mode  FenceMode
	kind  isa.ScopeKind // effective scope kind when mode == Scoped
	finer bool          // store-store fences where sufficient
}

// newScopeCtx resolves options against the kernel's natural scope kind.
func newScopeCtx(opts Options, natural isa.ScopeKind) scopeCtx {
	kind := natural
	switch opts.Scope {
	case ForceClass:
		kind = isa.ScopeClass
	case ForceSet:
		kind = isa.ScopeSet
	}
	return scopeCtx{mode: opts.Mode, kind: kind, finer: opts.FinerFences}
}

// fence emits the kernel's fence: global under Traditional, the effective
// scope under Scoped.
func (s scopeCtx) fence(b *isa.Builder) {
	if s.mode == Traditional {
		b.Fence(isa.ScopeGlobal)
		return
	}
	b.Fence(s.kind)
}

// fenceSS emits a fence that only needs store-store ordering: a finer
// store-store fence when FinerFences is enabled, else a full fence.
func (s scopeCtx) fenceSS(b *isa.Builder) { s.fenceOrdered(b, isa.OrderSS) }

// fenceLL emits a fence that only needs load-load ordering.
func (s scopeCtx) fenceLL(b *isa.Builder) { s.fenceOrdered(b, isa.OrderLL) }

func (s scopeCtx) fenceOrdered(b *isa.Builder, order isa.FenceOrder) {
	kind := s.kind
	if s.mode == Traditional {
		kind = isa.ScopeGlobal
	}
	if s.finer {
		b.FenceOrdered(kind, order)
		return
	}
	b.Fence(kind)
}

// shared marks the next memory instruction as a set-scope access when the
// effective scope is set scope (the compiler flagging of Table II).
func (s scopeCtx) shared(b *isa.Builder) {
	if s.mode == Scoped && s.kind == isa.ScopeSet {
		b.SetFlagged()
	}
}

// enter/exit bracket a "class method": fs_start/fs_end are emitted when
// the effective scope is class scope.
func (s scopeCtx) enter(b *isa.Builder, cid int64) {
	if s.mode == Scoped && s.kind == isa.ScopeClass {
		b.FsStart(cid)
	}
}

func (s scopeCtx) exit(b *isa.Builder, cid int64) {
	if s.mode == Scoped && s.kind == isa.ScopeClass {
		b.FsEnd(cid)
	}
}

// Workload register conventions: the workload emitter owns R56-R59 and
// must not collide with kernel registers.
const (
	regWorkPtr  = isa.Reg(56) // current private pointer
	regWorkBase = isa.Reg(57) // private region base
	regWorkTmp  = isa.Reg(58)
	regWorkAcc  = isa.Reg(59)
)

// workRegionWords is the per-thread private workload region (256 KiB:
// larger than L1, so strided walks miss).
const workRegionWords = 32768

// emitWorkload generates `units` units of private computation: per unit, a
// strided private store to a cold cache line (a long-latency access that
// drains from the store buffer), a warm private load, and a little
// arithmetic. These accesses are deliberately out of every fence scope —
// they are the "arithmetic computations on private variables, whose
// accesses do not need to be ordered by fences" of the paper's harness
// (Section VI-A).
//
// The store's value is computed from registers only (never from the cold
// loads), so it retires into the store buffer quickly and drains slowly —
// exactly the situation where a traditional fence stalls on out-of-scope
// work and an S-Fence does not (the paper's Fig. 10).
func emitWorkload(b *isa.Builder, units int) {
	if units <= 0 {
		return
	}
	b.Inline(func(b *isa.Builder) {
		b.MovI(regWorkTmp, int64(units))
		b.Label("wl")
		// Strided walk: 16-byte steps, so roughly roughly every
		// opens a fresh (cold or L1-evicted) line.
		b.AddI(regWorkPtr, regWorkPtr, 8)
		b.AndI(regWorkPtr, regWorkPtr, int64(workRegionWords*8-1))
		b.Add(isa.R55, regWorkBase, regWorkPtr)
		b.AddI(regWorkAcc, regWorkAcc, 7)
		b.Store(isa.R55, 0, regWorkAcc) // long-latency, register-sourced
		// A warm load (region base line stays resident) plus arithmetic.
		b.Load(isa.R55, regWorkBase, 8)
		b.Add(regWorkAcc, regWorkAcc, isa.R55)
		b.Mul(isa.R55, regWorkAcc, regWorkAcc)
		b.ShrI(isa.R55, isa.R55, 9)
		b.Xor(regWorkAcc, regWorkAcc, isa.R55)
		b.AddI(regWorkTmp, regWorkTmp, -1)
		b.Bne(regWorkTmp, isa.R0, "wl")
		// Compute tail proportional to the workload: a dependent
		// multiply chain that lets in-flight private stores drain under
		// computation (this is what bends the paper's Fig. 12 curves
		// back down at high workload).
		for i := 0; i < 8*units; i++ {
			b.Mul(regWorkAcc, regWorkAcc, regWorkAcc)
			b.XorI(regWorkAcc, regWorkAcc, int64(i)|1)
		}
	})
}

// emitAtomicAdd generates a CAS retry loop adding `delta` to the word at
// [addrReg]. Clobbers R50-R53.
func emitAtomicAdd(b *isa.Builder, addrReg isa.Reg, delta int64) {
	b.Inline(func(b *isa.Builder) {
		b.Label("retry")
		b.Load(isa.R50, addrReg, 0)
		b.AddI(isa.R51, isa.R50, delta)
		b.CAS(isa.R52, addrReg, 0, isa.R50, isa.R51)
		b.Beq(isa.R52, isa.R0, "retry")
	})
}

// lcgMul and lcgAdd are the constants of the deterministic pseudo-random
// walk used by kernels (a 64-bit LCG, mirrored exactly by Go verifiers).
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

// emitLCG advances xReg through one LCG step and leaves (x >> 33) & mask
// in outReg.
func emitLCG(b *isa.Builder, xReg, outReg isa.Reg, mask int64) {
	b.MovI(isa.R54, lcgMul)
	b.Mul(xReg, xReg, isa.R54)
	b.MovI(isa.R54, lcgAdd)
	b.Add(xReg, xReg, isa.R54)
	b.ShrI(outReg, xReg, 33)
	b.AndI(outReg, outReg, mask)
}

// lcgNext mirrors emitLCG for Go-side verification.
func lcgNext(x int64, mask int64) (int64, int64) {
	x = x*lcgMul + lcgAdd
	return x, (x >> 33) & mask
}
