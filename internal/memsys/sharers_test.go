package memsys

import (
	"reflect"
	"testing"
)

// TestSharers pins the directory accessor's semantics — and the property
// that makes the set unusable as an exact snoop filter: a write to a line
// resets the set to the writer alone even while other cores may still
// hold in-flight loads that used it.
func TestSharers(t *testing.T) {
	h := MustHierarchy(4, DefaultConfig())
	const addr = 4096

	if _, ok := h.Sharers(addr); ok {
		t.Fatalf("untouched line unexpectedly present in L2 directory")
	}

	h.Access(0, addr, false)
	h.Access(1, addr, false)
	set, ok := h.Sharers(addr)
	if !ok {
		t.Fatalf("line missing from L2 directory after reads")
	}
	if !reflect.DeepEqual(set, []int{0, 1}) {
		t.Fatalf("sharers after reads by cores 0 and 1 = %v, want [0 1]", set)
	}

	// Same line, different word: the set is per line.
	if s, _ := h.Sharers(addr + 8); !reflect.DeepEqual(s, []int{0, 1}) {
		t.Fatalf("sharers of sibling word = %v, want [0 1]", s)
	}

	// A write by core 2 invalidates the other copies and resets the set —
	// losing the fact that cores 0 and 1 ever held the line.
	h.Access(2, addr, true)
	set, ok = h.Sharers(addr)
	if !ok || !reflect.DeepEqual(set, []int{2}) {
		t.Fatalf("sharers after write by core 2 = %v (present=%v), want [2]", set, ok)
	}
}

// TestManyCoreSharers audits the uint64-mask assumptions at 65 and 256
// cores: membership past bit 63, invalidation fan-out, write reset, and
// the O(sharers) iteration order.
func TestManyCoreSharers(t *testing.T) {
	for _, cores := range []int{65, 256} {
		h := MustHierarchy(cores, DefaultConfig())
		const addr = 1 << 14

		readers := []int{0, 5, 63, 64}
		if cores-1 > 64 {
			readers = append(readers, cores-1)
		}
		for _, c := range readers {
			h.Access(c, addr, false)
		}
		set, ok := h.Sharers(addr)
		if !ok || !reflect.DeepEqual(set, readers) {
			t.Fatalf("cores=%d: sharers = %v, want %v", cores, set, readers)
		}
		// l1 returns core c's private copy of the line, nil if it has none.
		l1 := func(c int) *l1Line { return h.inner[c].find(h.lineOf(addr)) }
		for _, c := range readers {
			if l1(c) == nil {
				t.Fatalf("cores=%d: core %d lost its read copy", cores, c)
			}
		}

		// A write by the last core must invalidate every reader — including
		// the extension-word ones — and reset the set to the writer alone.
		w := cores - 1
		h.Access(w, addr, true)
		set, ok = h.Sharers(addr)
		if !ok || !reflect.DeepEqual(set, []int{w}) {
			t.Fatalf("cores=%d: post-write sharers = %v, want [%d]", cores, set, w)
		}
		for _, c := range readers[:len(readers)-1] {
			if l1(c) != nil {
				t.Fatalf("cores=%d: core %d kept a stale copy across invalidation", cores, c)
			}
			if h.Stats(c).Invalidations != 1 {
				t.Fatalf("cores=%d: core %d invalidations = %d, want 1", cores, c, h.Stats(c).Invalidations)
			}
		}
		if l := l1(w); l == nil || (l.state != l1Modified && l.state != l1Exclusive) {
			t.Fatalf("cores=%d: writer does not own the line", cores)
		}
	}
}

// TestSharerSetOps unit-tests the hybrid set directly across the
// inline/extension boundary.
func TestSharerSetOps(t *testing.T) {
	var s sharerSet
	for _, c := range []int{0, 63, 64, 127, 128, 300} {
		s.add(c)
		if !s.contains(c) {
			t.Fatalf("add(%d) not visible", c)
		}
	}
	if got := s.members(); !reflect.DeepEqual(got, []int{0, 63, 64, 127, 128, 300}) {
		t.Fatalf("members = %v", got)
	}
	if s.lone(64) {
		t.Fatalf("multi-member set misreported as lone")
	}
	s.only(64)
	if !s.lone(64) || s.contains(0) || s.contains(300) {
		t.Fatalf("only(64) = %v", s.members())
	}
	s.only(3)
	if !s.lone(3) {
		t.Fatalf("lone(3) false after only(3) with ext pages present")
	}

	var f sharerSet
	for _, n := range []int{1, 63, 64, 65, 130, 256} {
		f.fill(n)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		if got := f.members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("fill(%d): %d members, first/last %v", n, len(got), got)
		}
	}

	c := s.clone()
	c.add(200)
	if s.contains(200) {
		t.Fatalf("clone aliases the original")
	}
}
