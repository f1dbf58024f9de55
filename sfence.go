// Package sfence is a Go reproduction of "Fence Scoping" (Lin, Nagarajan,
// Gupta — SC '14): scoped fences (S-Fence) that only order memory accesses
// within a programmer-declared scope, evaluated on a deterministic
// cycle-level out-of-order multicore simulator with an RMO-like relaxed
// memory model.
//
// This root package is the public facade. It re-exports the pieces a user
// needs to:
//
//   - build programs in the mini-ISA (Builder, Program, scoped fences,
//     fs_start/fs_end class brackets, set-scope flagged accesses),
//   - run them on a simulated chip multiprocessor (NewMachine), and
//   - run the paper's benchmarks and experiments (RunBenchmark, and a
//     Lab session driving the experiment registry: NewLab,
//     Experiments, Lab.Run, Lab.RunSuite).
//
// Every simulation is cancellable: Machine.Run, RunBenchmark,
// Lab.Run, and Lab.RunSuite all take a context.Context that can cancel or
// time-box the cycle loop.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package sfence

import (
	"context"
	"io"

	"sfence/internal/cpu"
	"sfence/internal/exp"
	"sfence/internal/isa"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/memsys"
	"sfence/internal/ref"
	"sfence/internal/results"
	"sfence/internal/stats"
	"sfence/internal/trace"
)

// Re-exported core types.
type (
	// Config aggregates the whole-machine parameters (Table III).
	Config = machine.Config
	// CoreConfig holds the out-of-order core and S-Fence hardware
	// parameters (ROB, store buffer, FSB/FSS sizes, speculation).
	CoreConfig = cpu.Config
	// MemConfig holds the cache-hierarchy parameters: an ordered list of
	// cache levels (innermost first, private prefix then shared suffix;
	// the outermost shared level holds the directory) plus memory
	// latencies.
	MemConfig = memsys.Config
	// MemLevelConfig describes one cache level of the hierarchy
	// (size, ways, line, latency, private vs. shared).
	MemLevelConfig = memsys.CacheConfig
	// Thread names a program entry point plus initial registers.
	Thread = machine.Thread
	// Machine is a running simulation instance.
	Machine = machine.Machine
	// Program is an assembled mini-ISA program.
	Program = isa.Program
	// Builder assembles programs (labels, macros, scoped fences).
	Builder = isa.Builder
	// Instruction is one decoded mini-ISA instruction.
	Instruction = isa.Instruction
	// Reg names an architectural register; R0 is hardwired to zero.
	Reg = isa.Reg
	// ScopeKind selects a fence's scope: global, class, or set.
	ScopeKind = isa.ScopeKind
	// FenceOrder selects the fence's ordering kind (full or store-store).
	FenceOrder = isa.FenceOrder
	// FSSRecovery selects the FSS branch-misprediction repair mechanism.
	FSSRecovery = cpu.FSSRecovery
	// CoreStats are the per-core execution statistics.
	CoreStats = cpu.Stats
	// FenceSite is one static fence's stall profile entry.
	FenceSite = cpu.FenceSite

	// StatsRegistry is the hierarchical statistics registry every machine
	// component registers its counters into (see Machine.StatsRegistry).
	StatsRegistry = stats.Registry
	// StatsSnapshot is a deterministically ordered, schema-versioned
	// snapshot of every registered stat (Machine.StatsSnapshot,
	// BenchmarkResult.Snapshot).
	StatsSnapshot = stats.Snapshot
	// StatsSample is one stat's value inside a snapshot.
	StatsSample = stats.Sample

	// BenchmarkInfo describes one of the paper's benchmarks (Table IV).
	BenchmarkInfo = kernels.Info
	// BenchmarkOptions parameterize a benchmark build.
	BenchmarkOptions = kernels.Options
	// BenchmarkResult summarizes one benchmark run.
	BenchmarkResult = kernels.Result
	// FenceMode selects traditional (global) or scoped fences.
	FenceMode = kernels.FenceMode
	// ScopeOverride forces class or set scope for Figure 14 comparisons.
	ScopeOverride = kernels.ScopeOverride

	// Scale selects experiment sizing (Quick or Full).
	Scale = exp.Scale
	// SpeedupSeries is one Figure 12 curve.
	SpeedupSeries = exp.SpeedupSeries
	// BenchGroup is one benchmark's bars in a grouped figure.
	BenchGroup = exp.BenchGroup
	// Bar is one stacked normalized-execution-time bar.
	Bar = exp.Bar
	// AblationRow is one point of an ablation sweep.
	AblationRow = exp.AblationRow
	// HardwareCostReport is the Section VI-E storage-cost model.
	HardwareCostReport = exp.HardwareCostReport
)

// Fence scopes (the paper's three customized fence statements, Fig. 4).
const (
	ScopeGlobal = isa.ScopeGlobal
	ScopeClass  = isa.ScopeClass
	ScopeSet    = isa.ScopeSet
)

// Fence ordering kinds (Section VII: scoping composes with finer fences).
const (
	OrderFull = isa.OrderFull
	OrderSS   = isa.OrderSS
	OrderLL   = isa.OrderLL
)

// Fence modes for benchmark builds. Inferred builds the unannotated
// (traditional) program and rewrites it with statically inferred scopes
// (see InferScopes).
const (
	Traditional = kernels.Traditional
	Scoped      = kernels.Scoped
	Inferred    = kernels.Inferred
)

// Scope overrides for Figure 14.
const (
	ScopeDefault = kernels.ScopeDefault
	ForceClass   = kernels.ForceClass
	ForceSet     = kernels.ForceSet
)

// Experiment scales.
const (
	Quick = exp.Quick
	Full  = exp.Full
)

// FSS recovery mechanisms.
const (
	RecoverySnapshot = cpu.RecoverySnapshot
	RecoveryShadow   = cpu.RecoveryShadow
)

// General-purpose register names. R0 always reads as zero.
const (
	R0  = isa.R0
	R1  = isa.R1
	R2  = isa.R2
	R3  = isa.R3
	R4  = isa.R4
	R5  = isa.R5
	R6  = isa.R6
	R7  = isa.R7
	R8  = isa.R8
	R9  = isa.R9
	R10 = isa.R10
	R11 = isa.R11
	R12 = isa.R12
	R13 = isa.R13
	R14 = isa.R14
	R15 = isa.R15
	R16 = isa.R16
	R17 = isa.R17
	R18 = isa.R18
	R19 = isa.R19
	R20 = isa.R20
	R21 = isa.R21
	R22 = isa.R22
	R23 = isa.R23
	R24 = isa.R24
	R25 = isa.R25
	R26 = isa.R26
	R27 = isa.R27
	R28 = isa.R28
	R29 = isa.R29
	R30 = isa.R30
	R31 = isa.R31
)

// DefaultConfig returns the paper's Table III machine configuration: an
// 8-core out-of-order CMP with a 128-entry ROB, 32 KB L1 / 1 MB L2 /
// 300-cycle memory, and 4-entry FSB and FSS.
func DefaultConfig() Config { return machine.DefaultConfig() }

// DepthMemConfig returns the canonical N-level memory hierarchy of the
// fig-depth sweep (2 = the Table III two-level default, 3 and 4 add
// progressively deeper private/shared levels). Assign it to Config.Mem to
// run any benchmark on a deeper hierarchy (sfence-sim -depth).
func DepthMemConfig(depth int) MemConfig { return memsys.DepthConfig(depth) }

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return isa.NewBuilder() }

// NewMachine builds a simulated machine running prog with the given
// threads (thread i runs on core i).
func NewMachine(cfg Config, prog *Program, threads []Thread) (*Machine, error) {
	return machine.New(cfg, prog, threads)
}

// Benchmarks returns the paper's benchmark registry (Table IV).
func Benchmarks() []BenchmarkInfo { return kernels.All() }

// BuildBenchmark constructs a named benchmark.
func BuildBenchmark(name string, opts BenchmarkOptions) (*kernels.Kernel, error) {
	return kernels.Build(name, opts)
}

// RunBenchmark builds, runs, and verifies a named benchmark. ctx cancels
// or time-boxes the simulation mid-cycle-loop (see Machine.Run); tracer,
// when not nil, is attached to every core.
func RunBenchmark(ctx context.Context, name string, opts BenchmarkOptions, cfg Config, tracer Tracer) (BenchmarkResult, error) {
	k, err := kernels.Build(name, opts)
	if err != nil {
		return BenchmarkResult{}, err
	}
	return kernels.RunTraced(ctx, k, cfg, tracer)
}

// Tracer receives per-cycle pipeline events (see NewTextTracer).
type Tracer = cpu.Tracer

// TraceEvent identifies a pipeline event kind.
type TraceEvent = cpu.TraceEvent

// Pipeline event kinds, delivered to Tracers with per-cycle detail.
const (
	TraceDecode     = cpu.TraceDecode
	TraceExecute    = cpu.TraceExecute
	TraceComplete   = cpu.TraceComplete
	TraceRetire     = cpu.TraceRetire
	TraceSquash     = cpu.TraceSquash
	TraceFenceStall = cpu.TraceFenceStall
	TraceSBIssue    = cpu.TraceSBIssue
	TraceSBComplete = cpu.TraceSBComplete
)

// NewTextTracer returns a tracer writing one line per pipeline event to w;
// events after limitCycles are dropped (0 = unlimited).
func NewTextTracer(w io.Writer, limitCycles int64) Tracer {
	return trace.NewTextTracer(w, limitCycles)
}

// AttachTracer installs a tracer on every core of a machine. Tracers
// observe per-cycle events, so a traced machine steps every cycle
// (Machine.Clock reports TracerPinned); for aggregate counts read
// Machine.StatsSnapshot instead, which never slows the clock.
func AttachTracer(m *Machine, t Tracer) { trace.Attach(m, t) }

// Configuration-derived tables and cost model (no simulation involved).
// The simulated experiments live behind Lab.Run and the experiment
// registry (see lab.go).
var (
	HardwareCost = exp.HardwareCost
	TableIII     = exp.TableIII
	TableIV      = exp.TableIV

	RenderFigure12     = exp.RenderFigure12
	RenderGroups       = exp.RenderGroups
	RenderAblation     = exp.RenderAblation
	RenderTableIII     = exp.RenderTableIII
	RenderTableIV      = exp.RenderTableIV
	RenderHardwareCost = exp.RenderHardwareCost
)

// Structured results pipeline (see internal/results): schema-versioned
// JSON artifacts, a content-addressed run cache, and the EXPERIMENTS.md
// generator used by cmd/sfence-report.
type (
	// RunCache memoizes simulations content-addressed by
	// (machine config, kernel name, kernel options).
	RunCache = results.RunCache
	// CacheStats counts run-cache hits and misses.
	CacheStats = results.CacheStats
	// Suite holds the result of every suite experiment in registry
	// order (see Lab.RunSuite).
	Suite = results.Suite
	// AblationSet is one ablation sweep's identity plus rows.
	AblationSet = results.AblationSet
	// ResultArtifact is one named BENCH_*.json file.
	ResultArtifact = results.Artifact
	// BaselineChange is one artifact's or EXPERIMENTS.md's drift against
	// the committed baseline (see Suite.DiffBaseline): leaf-level value
	// deltas computed by the stats snapshot differ for an artifact, a
	// count of differing lines for EXPERIMENTS.md.
	BaselineChange = results.BaselineChange
	// ResultClaim is one machine-checkable paper claim.
	ResultClaim = results.Claim
	// ExperimentRunner executes one benchmark configuration for a Lab
	// session (see WithRunner; RunCache.Run is the memoizing runner).
	ExperimentRunner = exp.Runner
	// ExperimentProgress receives per-experiment completion updates.
	ExperimentProgress = exp.ProgressFunc
)

// ResultsSchemaVersion is the JSON schema version of every envelope and
// cached run record.
const ResultsSchemaVersion = results.SchemaVersion

// NewRunCache returns a run cache persisting records under dir (created
// if missing); an empty dir yields a memory-only cache.
func NewRunCache(dir string) (*RunCache, error) { return results.NewRunCache(dir) }

// NewRunCacheLimited is NewRunCache with a byte budget on the disk tier:
// storing past maxDiskBytes evicts records least-recently-used first
// (0 = unbounded). Evicted records re-miss and re-simulate; the simulator
// is deterministic, so the replacement record is byte-identical.
func NewRunCacheLimited(dir string, maxDiskBytes int64) (*RunCache, error) {
	return results.NewRunCacheLimited(dir, maxDiskBytes)
}

// NewMemCache returns an in-process-only run cache.
func NewMemCache() *RunCache { return results.NewMemCache() }

// PaperClaims returns the machine-checkable claim checklist that
// EXPERIMENTS.md scores the measured results against.
func PaperClaims() []ResultClaim { return results.Claims() }

// Generated-scenario differential checking (see DESIGN.md, "Differential
// fuzzing"). CheckGenerated is the library entry behind the
// FuzzConcDifferential fuzz target and `sfence-sim -gen <seed>`: it
// generates the N-thread scenario for seed in its three fence lowerings
// (traditional, class-scoped, set-scoped), executes each on the full
// machine at every requested hierarchy depth under both the naive and
// event-driven clocks, and differentially checks all of it against the
// sequentially-consistent reference oracle. A nil depths slice checks the
// default depths 2 and 3.
func CheckGenerated(seed int64, depths []int) (*GeneratedReport, error) {
	if len(depths) == 0 {
		depths = []int{2, 3}
	}
	return ref.CheckConcurrent(seed, depths)
}

// GeneratedReport summarizes one CheckGenerated pass: scenario shape plus
// one GeneratedRun per (variant, depth) machine execution.
type GeneratedReport = ref.ConcReport

// GeneratedRun is one (variant, depth) machine execution of a generated
// scenario.
type GeneratedRun = ref.ConcRun

// FenceVariant identifies one fence lowering of a generated scenario.
type FenceVariant = ref.Variant

// GeneratedScenario returns the disassembly of one fence variant
// ("traditional", "class", or "set") of the generated scenario for seed,
// plus its thread count.
func GeneratedScenario(seed int64, variant string) (string, int, error) {
	v, err := ref.ParseVariant(variant)
	if err != nil {
		return "", 0, err
	}
	cp := ref.GenConcurrent(seed)
	return cp.Variants[v].Disassemble(), cp.NumThreads, nil
}
