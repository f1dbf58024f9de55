package machine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sfence/internal/isa"
)

// diffWord is a word no parkProgram entry reads or writes.
const diffWord = 16384

// stepped builds a machine running threads, stores word at diffWord and
// steps the machine to cycle limit or to completion.
func stepped(t *testing.T, limit, word int64, threads ...Thread) *Machine {
	t.Helper()
	m := newParkMachine(t, 0, false, threads...)
	m.Image().Store(diffWord, word)
	m.StepUntil(limit)
	return m
}

// wantDiff fails unless Diff(a, b) reports want ("<nil>" for no
// divergence), while each machine compared with itself reports nothing.
func wantDiff(t *testing.T, a, b *Machine, want string) {
	t.Helper()
	if got := fmt.Sprint(Diff(a, b)); got != want {
		t.Errorf("Diff = %s, want %s", got, want)
	}
	for _, m := range []*Machine{a, b} {
		if err := Diff(m, m); err != nil {
			t.Errorf("a machine differs from itself: %v", err)
		}
	}
}

func TestDiffNaiveRunsAgree(t *testing.T) {
	threads := []Thread{spinThread(5), busyThread(300), writeThread("share-write", 40)}
	a := stepped(t, DefaultMaxCycles, 0, threads...)
	b := stepped(t, DefaultMaxCycles, 0, threads...)
	if !a.Done() {
		t.Fatalf("program did not finish: %v", a.Fault())
	}
	r := newParkMachine(t, 0, false, threads...)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantDiff(t, a, b, "<nil>")
	wantDiff(t, a, r, "<nil>")
}

func TestDiffNamesCycle(t *testing.T) {
	a := stepped(t, DefaultMaxCycles, 0, busyThread(10))
	b := stepped(t, DefaultMaxCycles, 0, busyThread(20))
	wantDiff(t, a, b, fmt.Sprintf("cycle diverged: %d vs %d", a.Cycle(), b.Cycle()))
}

// TestDiffNamesRegister runs one program from two register files that
// differ only in a register it never touches.
func TestDiffNamesRegister(t *testing.T) {
	withR9 := func(v int64) Thread {
		th := busyThread(50)
		th.Regs[isa.R9] = v
		return th
	}
	a := stepped(t, DefaultMaxCycles, 0, withR9(1111))
	b := stepped(t, DefaultMaxCycles, 0, withR9(2222))
	wantDiff(t, a, b, "core 0 R9 diverged: 1111 vs 2222")
}

// TestDiffNamesStat steps a computing core and a spinning one to the same
// cycle: they agree on the cycle and differ in what they did.
func TestDiffNamesStat(t *testing.T) {
	a := stepped(t, 300, 0, busyThread(0))
	b := stepped(t, 300, 0, spinThread(1))
	err := fmt.Sprint(Diff(a, b))
	name, _, _ := strings.Cut(strings.TrimPrefix(err, "stat "), " ")
	sa, okA := a.StatsSnapshot().Lookup(name)
	sb, okB := b.StatsSnapshot().Lookup(name)
	if !okA || !okB || sa == sb {
		t.Fatalf("Diff = %s, want a stat that diverged", err)
	}
	wantDiff(t, a, b, fmt.Sprintf("stat %s diverged: %d vs %d", name, sa.Value, sb.Value))
}

// TestDiffNamesImageWord runs one program over two images that differ
// only in a word it never touches.
func TestDiffNamesImageWord(t *testing.T) {
	a := stepped(t, DefaultMaxCycles, 3333, busyThread(50))
	b := stepped(t, DefaultMaxCycles, 4444, busyThread(50))
	wantDiff(t, a, b, fmt.Sprintf("memory word at %d diverged: 3333 vs 4444", diffWord))
}
