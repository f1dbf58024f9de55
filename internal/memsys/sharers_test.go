package memsys

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
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

// smallDirectory is a two-level config small enough that a 4096-core
// hierarchy builds in well under a megabyte: 4 L1 lines per core, a
// 64-line shared level with the directory.
func smallDirectory() Config {
	return Config{
		Levels: []CacheConfig{
			{SizeBytes: 256, Ways: 2, LineBytes: 64, Latency: 2},
			{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 10, Shared: true},
		},
		MemLatency:         300,
		RemoteDirtyPenalty: 10,
	}
}

// sharerCoreCounts spans the inline word alone (8), the first extension
// word (65), whole words (128, 256) and MaxCores.
var sharerCoreCounts = []int{8, 65, 128, 256, MaxCores}

// probeCores returns 0, 63, 64, 127, 128, 300 and cores-1, those below
// cores, ascending and without repeats.
func probeCores(cores int) []int {
	var out []int
	for _, c := range []int{0, 63, 64, 127, 128, 300, cores - 1} {
		if c < cores && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// TestManyCoreSharers drives the directory through Access past bit 63:
// membership, invalidation fan-out over the extension words, write reset
// and the ascending member order.
func TestManyCoreSharers(t *testing.T) {
	for _, cores := range sharerCoreCounts[1:] {
		h := MustHierarchy(cores, smallDirectory())
		const addr = 1 << 14

		readers := probeCores(cores)
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

// TestSharerSetOps unit-tests the set operations on the directory's flat
// layout: (cores-1)/64 extension words per line, built with the
// hierarchy, and no aliasing between neighbouring lines.
func TestSharerSetOps(t *testing.T) {
	for _, cores := range sharerCoreCounts {
		h := MustHierarchy(cores, smallDirectory())
		dir := h.directory()
		if want := (cores - 1) / 64; dir.extWords != want || len(dir.ext) != want*len(dir.lines) {
			t.Fatalf("cores=%d: %d words per line, %d in all; want %d, %d",
				cores, dir.extWords, len(dir.ext), want, want*len(dir.lines))
		}
		last := len(dir.lines) - 1
		s := dir.sharers(&dir.lines[last-1])
		next := dir.sharers(&dir.lines[last])

		probes := probeCores(cores)
		for _, c := range probes {
			s.add(c)
			if !s.contains(c) {
				t.Fatalf("cores=%d: add(%d) not visible", cores, c)
			}
			if next.contains(c) {
				t.Fatalf("cores=%d: add(%d) leaked into the next line", cores, c)
			}
		}
		if got := s.members(); !reflect.DeepEqual(got, probes) {
			t.Fatalf("cores=%d: members = %v, want %v", cores, got, probes)
		}
		var walked []int
		s.forEach(func(c int) { walked = append(walked, c) })
		if !reflect.DeepEqual(walked, probes) {
			t.Fatalf("cores=%d: forEach order %v, want %v", cores, walked, probes)
		}
		for c := 0; c < cores; c++ {
			if s.contains(c) != slices.Contains(probes, c) {
				t.Fatalf("cores=%d: contains(%d) = %v", cores, c, s.contains(c))
			}
		}
		if s.lone(probes[0]) || s.lone(probes[len(probes)-1]) {
			t.Fatalf("cores=%d: multi-member set misreported as lone", cores)
		}
		for _, c := range []int{cores - 1, 3} {
			s.only(c)
			if !s.lone(c) || !reflect.DeepEqual(s.members(), []int{c}) {
				t.Fatalf("cores=%d: only(%d) = %v", cores, c, s.members())
			}
			if other := (c + 64) % cores; other != c && s.lone(other) {
				t.Fatalf("cores=%d: lone(%d) true for {%d}", cores, other, c)
			}
		}
		s.clear()
		if s.members() != nil || s.lone(0) {
			t.Fatalf("cores=%d: clear left %v", cores, s.members())
		}

		for _, n := range []int{1, 63, 64, 65, 130, cores} {
			if n > cores {
				continue
			}
			s.fill(n)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			if got := s.members(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cores=%d: fill(%d) gave %d members", cores, n, len(got))
			}
		}
		if next.members() != nil {
			t.Fatalf("cores=%d: the next line picked up %v", cores, next.members())
		}
	}
}

// TestTagLineLayout pins the outer-level line at 32 bytes with no
// pointer, so a tag array is one flat allocation the garbage collector
// never scans.
func TestTagLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(tagLine{}); n > 32 {
		t.Errorf("tagLine is %d bytes, want at most 32", n)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: tagLine must hold no pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(tagLine{}), "tagLine")
}

// TestManyCoreSharedAccessAllocs checks that directory traffic on a line
// shared by all 256 cores allocates nothing once the hierarchy is built:
// a write invalidates 255 copies through the extension words and the
// reads that follow re-add every core.
func TestManyCoreSharedAccessAllocs(t *testing.T) {
	const cores, addr = 256, 1 << 14
	h := MustHierarchy(cores, DefaultConfig())
	round := 0
	access := func() {
		h.Access(round%cores, addr, true)
		for c := 0; c < cores; c++ {
			h.Access(c, addr, false)
		}
		round++
	}
	access()
	if set, _ := h.Sharers(addr); len(set) != cores {
		t.Fatalf("%d sharers after every core read the line, want %d", len(set), cores)
	}
	if n := testing.AllocsPerRun(20, access); n != 0 {
		t.Errorf("steady-state shared-line traffic allocates %.1f times per round", n)
	}
}

// TestNewHierarchyAllocation bounds what an 8-core Table III hierarchy
// allocates: eight 32 KB L1 tag arrays (96 KiB) and the 1 MB L2's
// (512 KiB with 32-byte lines, 1 MiB with the old 64-byte ones).
func TestNewHierarchyAllocation(t *testing.T) {
	const bound = 6 << 20 / 10 // 0.6 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := MustHierarchy(8, DefaultConfig())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Errorf("NewHierarchy(8) allocated %d bytes, want at most %d", n, bound)
	}
}
