package memsys

import "math/bits"

// MaxCores bounds the hierarchy's core count. The directory's sharer
// sets, the per-core stat arrays, and the machine's broadcast paths are
// all O(sharers) or O(active cores), so the bound is a sanity rail, not
// a structural limit like the old uint64 bitmask's 64.
const MaxCores = 4096

// sharerSet is a view of one directory line's sharer record: which
// cores' private levels may hold a copy. Cores 0..63 live in the line's
// inline word (tagLine.low); cores 64 and up in the line's run of words
// in the directory's flat extension array (tagStore.ext), one word per
// 64 cores, sized for the machine when the hierarchy is built. A machine
// with at most 64 cores has no extension words at all, and no set ever
// allocates. Iteration and population count are O(sharers), not
// O(cores): the common case of a line shared by a handful of cores in a
// 256-core machine touches a handful of set bits.
type sharerSet struct {
	low *uint64  // cores 0..63
	ext []uint64 // cores 64..; word i covers cores 64(i+1)..64(i+2)-1
}

// extWords returns the extension words a sharer set needs for cores
// 64..cores-1.
func extWords(cores int) int { return (cores - 1) / 64 }

// newSharerSet returns an empty set with its own storage for cores
// 0..cores-1.
func newSharerSet(cores int) sharerSet {
	return sharerSet{low: new(uint64), ext: make([]uint64, extWords(cores))}
}

// add inserts core into the set.
func (s sharerSet) add(core int) {
	if core < 64 {
		*s.low |= 1 << uint(core)
		return
	}
	s.ext[core/64-1] |= 1 << uint(core%64)
}

// contains reports membership.
func (s sharerSet) contains(core int) bool {
	if core < 64 {
		return *s.low&(1<<uint(core)) != 0
	}
	w := core/64 - 1
	return w < len(s.ext) && s.ext[w]&(1<<uint(core%64)) != 0
}

// clear empties the set.
func (s sharerSet) clear() {
	*s.low = 0
	clear(s.ext)
}

// only resets the set to exactly {core}.
func (s sharerSet) only(core int) {
	s.clear()
	s.add(core)
}

// lone reports whether the set is exactly {core}.
func (s sharerSet) lone(core int) bool {
	if *s.low != bitOf(core, 0) {
		return false
	}
	for i, w := range s.ext {
		if w != bitOf(core, 64*(i+1)) {
			return false
		}
	}
	return true
}

// bitOf returns core's bit in the word covering cores base..base+63, or 0
// when core lies outside it.
func bitOf(core, base int) uint64 {
	if core < base || core >= base+64 {
		return 0
	}
	return 1 << uint(core-base)
}

// fill sets cores 0..n-1 — the conservative "assume every core" mask a
// middle shared level falls back to when the directory entry is gone.
func (s sharerSet) fill(n int) {
	*s.low = lowBits(n)
	for i := range s.ext {
		s.ext[i] = lowBits(n - 64*(i+1))
	}
}

// lowBits returns a word with its n lowest bits set, n clamped to [0,64].
func lowBits(n int) uint64 {
	switch {
	case n <= 0:
		return 0
	case n >= 64:
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// forEach calls f for every member in ascending core order. It walks set
// bits only (bits.TrailingZeros64 per member), so a sparsely shared line
// costs O(sharers) regardless of the machine's core count.
func (s sharerSet) forEach(f func(core int)) {
	for w := *s.low; w != 0; w &= w - 1 {
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
func (s sharerSet) members() []int {
	var out []int
	s.forEach(func(c int) { out = append(out, c) })
	return out
}
