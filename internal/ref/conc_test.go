package ref

import (
	"strings"
	"testing"

	"sfence/internal/isa"
)

// TestGenConcurrentDeterministic pins the generator's reproducibility:
// the same seed must produce bit-identical variants, registers, and
// memory across calls — the property seed-replay and the -gen CLI mode
// rest on.
func TestGenConcurrentDeterministic(t *testing.T) {
	a, b := GenConcurrent(42), GenConcurrent(42)
	if a.NumThreads != b.NumThreads {
		t.Fatalf("thread counts diverged: %d vs %d", a.NumThreads, b.NumThreads)
	}
	for v := Variant(0); v < NumVariants; v++ {
		ca, cb := a.Variants[v].Code, b.Variants[v].Code
		if len(ca) != len(cb) {
			t.Fatalf("variant %v: lengths diverged: %d vs %d", v, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("variant %v: instruction %d diverged: %+v vs %+v", v, i, ca[i], cb[i])
			}
		}
	}
	for tid := range a.Regs {
		for r, v := range a.Regs[tid] {
			if b.Regs[tid][r] != v {
				t.Fatalf("thread %d R%d diverged", tid, r)
			}
		}
	}
	for addr, v := range a.Mem {
		if b.Mem[addr] != v {
			t.Fatalf("mem[%d] diverged", addr)
		}
	}
}

// stripLowering removes everything a variant lowering may legally differ
// in — fences, fs brackets, and set flags — leaving the scenario's
// computational skeleton.
func stripLowering(code []isa.Instruction) []isa.Instruction {
	var out []isa.Instruction
	for _, in := range code {
		switch in.Op {
		case isa.OpFence, isa.OpFsStart, isa.OpFsEnd:
			continue
		}
		in.SetFlag = false
		// Branch targets shift when fences are removed; alignment is
		// checked on opcode+registers+non-branch immediates only.
		switch in.Op {
		case isa.OpJmp, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			in.Imm = 0
		}
		out = append(out, in)
	}
	return out
}

// TestGenConcurrentVariantsAligned pins the generator's core invariant:
// the three lowerings of a scenario are the SAME program modulo fence
// scopes, fs brackets, and set flags. Cross-variant differential checking
// is only meaningful because of this.
func TestGenConcurrentVariantsAligned(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cp := GenConcurrent(seed)
		base := stripLowering(cp.Variants[VariantTraditional].Code)
		for v := VariantClass; v < NumVariants; v++ {
			got := stripLowering(cp.Variants[v].Code)
			if len(got) != len(base) {
				t.Fatalf("seed %d: variant %v skeleton length %d, traditional %d", seed, v, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed %d: variant %v skeleton diverges at %d: %+v vs %+v", seed, v, i, got[i], base[i])
				}
			}
		}
		// The class variant must bracket, the set variant must flag, and
		// the traditional variant must do neither.
		counts := func(v Variant) (fs, flags int) {
			for _, in := range cp.Variants[v].Code {
				if in.Op == isa.OpFsStart {
					fs++
				}
				if in.SetFlag {
					flags++
				}
			}
			return
		}
		tFs, tFl := counts(VariantTraditional)
		cFs, _ := counts(VariantClass)
		_, sFl := counts(VariantSet)
		if cFs <= tFs {
			t.Errorf("seed %d: class variant has %d fs_starts, traditional %d; want more", seed, cFs, tFs)
		}
		if sFl <= tFl {
			t.Errorf("seed %d: set variant has %d flagged accesses, traditional %d; want more", seed, sFl, tFl)
		}
	}
}

// TestRunConcMessagePassing checks the round-robin oracle on a hand-built
// two-thread message-passing program: the consumer must observe the
// payload, never the initial zero.
func TestRunConcMessagePassing(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("t0")
	b.MovI(isa.R1, 41)
	b.MovI(isa.R2, 4096)
	b.Store(isa.R2, 8, isa.R1) // payload
	b.MovI(isa.R1, 1)
	b.Store(isa.R2, 0, isa.R1) // flag
	b.Halt()
	b.Entry("t1")
	b.MovI(isa.R2, 4096)
	b.Label("spin")
	b.Load(isa.R3, isa.R2, 0)
	b.Beq(isa.R3, isa.R0, "spin")
	b.Load(isa.R1, isa.R2, 8)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := RunConc(prog, []string{"t0", "t1"}, nil, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Threads[1].Regs[isa.R1]; got != 41 {
		t.Fatalf("consumer read %d, want 41", got)
	}
	if got := cs.Mem[4096]; got != 1 {
		t.Fatalf("flag = %d, want 1", got)
	}
}

// TestRunConcStepLimit checks that a non-terminating multi-threaded
// program hits the aggregate step limit with a descriptive error instead
// of spinning forever.
func TestRunConcStepLimit(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("t0")
	b.Label("forever")
	b.Jmp("forever")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunConc(prog, []string{"t0"}, nil, nil, 100)
	if err == nil || !strings.Contains(err.Error(), "exceeded 100") {
		t.Fatalf("want step-limit error, got %v", err)
	}
}

// TestRunConcUnknownEntry checks the entry-resolution error path.
func TestRunConcUnknownEntry(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("t0")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConc(prog, []string{"nope"}, nil, nil, 100); err == nil {
		t.Fatal("want unknown-entry error, got nil")
	}
}

// TestParseVariant round-trips every variant name and rejects junk.
func TestParseVariant(t *testing.T) {
	for v := Variant(0); v < NumVariants; v++ {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Fatal("ParseVariant accepted junk")
	}
}

// TestCheckConcurrentSeeds is the committed, always-on slice of the
// concurrent differential: a fixed seed sweep through the full check —
// SC oracle vs full machine, three fence variants plus the statically
// inferred lowering, naive vs event-driven clocks, hierarchy depths 2
// and 3 — that plain `go test` runs on every change.
// FuzzConcDifferential explores beyond these seeds.
func TestCheckConcurrentSeeds(t *testing.T) {
	depths := []int{2, 3}
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for seed := int64(0); seed < n; seed++ {
		rep, err := CheckConcurrent(seed, depths)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Threads < 2 || rep.Threads > concMaxThreads {
			t.Fatalf("seed %d: %d threads out of range", seed, rep.Threads)
		}
		if want := len(depths) * (NumVariants + 1); len(rep.Runs) != want {
			t.Fatalf("seed %d: %d runs, want %d", seed, len(rep.Runs), want)
		}
		if rep.OracleSteps <= 0 {
			t.Fatalf("seed %d: oracle executed %d steps", seed, rep.OracleSteps)
		}
		if rep.InferredFences <= 0 || rep.InferredFlagged <= 0 {
			t.Fatalf("seed %d: inference rewrote %d fences, flagged %d accesses; every scenario synchronizes",
				seed, rep.InferredFences, rep.InferredFlagged)
		}
	}
}

// TestCheckConcurrentWide runs the full differential on one wide
// (>=16-thread) scenario: many-sharer directory state on a machine wider
// than any narrow fuzz draw and the SC oracle have to agree. The committed fuzz corpus carries
// two wide seeds; this test keeps one of them in the always-on suite
// even when the corpus is not replayed.
func TestCheckConcurrentWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide concurrent differential is slow")
	}
	seed := concWideSeedBit | 3
	if n := GenConcurrent(seed).NumThreads; n < concWideMinThreads || n > concWideMaxThreads {
		t.Fatalf("wide seed generated %d threads, want [%d,%d]", n, concWideMinThreads, concWideMaxThreads)
	}
	rep, err := CheckConcurrent(seed, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Threads < concWideMinThreads {
		t.Fatalf("report says %d threads, want >= %d", rep.Threads, concWideMinThreads)
	}
}
