package memsys

import "math/bits"

// MaxCores bounds the hierarchy's core count. The directory's sharer
// sets, the per-core stat arrays, and the machine's broadcast paths are
// all O(sharers) or O(active cores), so the bound is a sanity rail, not
// a structural limit like the old uint64 bitmask's 64.
const MaxCores = 4096

// sharerSet is the directory's per-line sharer record: which cores'
// private levels may hold a copy. Machines with at most 64 cores live
// entirely in the inline word (the historical representation, zero
// allocations); larger machines extend into a paged bitmap with one
// word per 64 cores, allocated lazily on the first extended add and
// reused across resets so steady-state coherence traffic stays
// allocation-free. Iteration and population count are O(sharers), not
// O(cores): the common case of a line shared by a handful of cores in a
// 256-core machine touches a handful of set bits.
type sharerSet struct {
	low uint64   // cores 0..63
	ext []uint64 // cores 64..; word i covers cores 64(i+1)..64(i+2)-1
}

// add inserts core into the set.
func (s *sharerSet) add(core int) {
	if core < 64 {
		s.low |= 1 << uint(core)
		return
	}
	w := core/64 - 1
	if w >= len(s.ext) {
		ext := make([]uint64, w+1)
		copy(ext, s.ext)
		s.ext = ext
	}
	s.ext[w] |= 1 << uint(core%64)
}

// contains reports membership.
func (s *sharerSet) contains(core int) bool {
	if core < 64 {
		return s.low&(1<<uint(core)) != 0
	}
	w := core/64 - 1
	return w < len(s.ext) && s.ext[w]&(1<<uint(core%64)) != 0
}

// clear empties the set, keeping any extended pages for reuse.
func (s *sharerSet) clear() {
	s.low = 0
	for i := range s.ext {
		s.ext[i] = 0
	}
}

// only resets the set to exactly {core}.
func (s *sharerSet) only(core int) {
	s.clear()
	s.add(core)
}

// lone reports whether the set is exactly {core}.
func (s *sharerSet) lone(core int) bool {
	if core < 64 {
		if s.low != 1<<uint(core) {
			return false
		}
	} else if s.low != 0 {
		return false
	}
	for i, w := range s.ext {
		switch {
		case core >= 64 && i == core/64-1:
			if w != 1<<uint(core%64) {
				return false
			}
		case w != 0:
			return false
		}
	}
	return true
}

// fill sets cores 0..n-1 — the conservative "assume every core" mask a
// middle shared level falls back to when the directory entry is gone.
func (s *sharerSet) fill(n int) {
	s.clear()
	if n >= 64 {
		s.low = ^uint64(0)
	} else {
		s.low = 1<<uint(n) - 1
	}
	for c := 64; c < n; c += 64 {
		w := c/64 - 1
		if w >= len(s.ext) {
			ext := make([]uint64, (n+63)/64-1)
			copy(ext, s.ext)
			s.ext = ext
		}
		if rem := n - c; rem >= 64 {
			s.ext[w] = ^uint64(0)
		} else {
			s.ext[w] = 1<<uint(rem) - 1
		}
	}
}

// forEach calls f for every member in ascending core order. It walks set
// bits only (bits.TrailingZeros64 per member), so a sparsely shared line
// costs O(sharers) regardless of the machine's core count.
func (s *sharerSet) forEach(f func(core int)) {
	for w := s.low; w != 0; w &= w - 1 {
		f(bits.TrailingZeros64(w))
	}
	for i, ew := range s.ext {
		base := 64 * (i + 1)
		for w := ew; w != 0; w &= w - 1 {
			f(base + bits.TrailingZeros64(w))
		}
	}
}

// members returns the set as a sorted core-index slice.
func (s *sharerSet) members() []int {
	var out []int
	s.forEach(func(c int) { out = append(out, c) })
	return out
}

// clone returns an independent copy (directory snapshots for tests).
func (s *sharerSet) clone() sharerSet {
	c := sharerSet{low: s.low}
	if len(s.ext) > 0 {
		c.ext = append([]uint64(nil), s.ext...)
	}
	return c
}
