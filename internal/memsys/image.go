package memsys

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// WordBytes is the size of every memory access.
const WordBytes = 8

// An Image page is 4 KiB, so the page table of the default 64 MiB image
// is 16384 entries (128 KiB). Kernels lay their data out contiguously, so
// the page size barely moves what a run allocates: with 4, 8 or 32 KiB
// pages, a T+S pair of each Table IV kernel allocated within 0.25 MiB of
// the same total.
const (
	pageShift = 9
	pageWords = 1 << pageShift
)

// page is one lazily allocated block of an Image.
type page [pageWords]int64

// Image is the word-addressable backing store shared by all cores.
// Addresses are byte addresses and must be WordBytes-aligned for
// architectural accesses. The image size is a power of two; Norm wraps any
// address into range, which the core model uses to keep speculative
// wrong-path accesses harmless.
//
// The address space is fixed at construction, but storage is paged and
// filled lazily: a page is allocated by the first store to it, and every
// word of a page never stored to reads as zero. Building an image thus
// costs its page table, not its size, and loads (wrong-path ones
// included) never allocate. Stores to distinct words may run
// concurrently: a missing page is installed with a compare-and-swap so
// racing first stores agree on one page.
//
// An image can also start from a base image of the same size (Share): it
// installs the base's pages and shares them copy-on-write. Loads and
// failing CASes read a shared page in place; the first Store or
// successful CAS to a shared page copies it, and installs the copy with
// the same compare-and-swap, so racing first stores to one shared page
// still all land in one copy. Any number of images may share one base,
// concurrently, but the base itself must never be written once shared:
// build it, then only share, load and compare it.
type Image struct {
	pages []atomic.Pointer[page]
	mask  int64 // byte-address mask (size-1, with low 3 bits cleared by Norm)

	base *Image // image whose pages im shares copy-on-write, or nil

	// span is [lo, hi), the page range a base holds, found once when
	// the image is first shared.
	span   sync.Once
	lo, hi int
}

// NewImage returns an image of the given size in bytes, rounded up to the
// next power of two (minimum 1 KiB).
func NewImage(sizeBytes int64) *Image {
	size := int64(1024)
	for size < sizeBytes {
		size <<= 1
	}
	return &Image{
		pages: make([]atomic.Pointer[page], (size/WordBytes+pageWords-1)/pageWords),
		mask:  size - 1,
	}
}

// Size returns the image size in bytes.
func (im *Image) Size() int64 { return im.mask + 1 }

// Norm wraps an arbitrary (possibly wrong-path) byte address into a valid
// aligned address.
func (im *Image) Norm(addr int64) int64 {
	return addr & im.mask &^ (WordBytes - 1)
}

// Valid reports whether addr is an in-range, aligned architectural address.
func (im *Image) Valid(addr int64) bool {
	return addr >= 0 && addr <= im.mask && addr%WordBytes == 0
}

// locate returns the page index and in-page word index of addr
// (normalized).
func (im *Image) locate(addr int64) (int64, int64) {
	w := im.Norm(addr) / WordBytes
	return w >> pageShift, w & (pageWords - 1)
}

// Load returns the word at addr (normalized); a never-written word is 0.
func (im *Image) Load(addr int64) int64 {
	pi, i := im.locate(addr)
	if p := im.pages[pi].Load(); p != nil {
		return p[i]
	}
	return 0
}

// Store writes the word at addr (normalized), allocating its page on the
// first store to it, or copying it on the first store to a shared page.
func (im *Image) Store(addr, val int64) {
	pi, i := im.locate(addr)
	p := im.pages[pi].Load()
	if p == nil || im.shared(pi, p) {
		p = im.install(pi, p)
	}
	p[i] = val
}

// shared reports whether p, the page in slot pi, is the base's.
func (im *Image) shared(pi int64, p *page) bool {
	return im.base != nil && p == im.base.pages[pi].Load()
}

// install replaces page pi's slot, missing or shared (old), with a page of
// im's own: a new one, or a copy of the shared one. It returns the page a
// concurrent Store installed first, if any, so racing first stores agree
// on one page.
func (im *Image) install(pi int64, old *page) *page {
	p := new(page)
	if old != nil {
		*p = *old
	}
	if im.pages[pi].CompareAndSwap(old, p) {
		return p
	}
	return im.pages[pi].Load()
}

// CompareAndSwap replaces the word at addr with new if it currently
// equals old, and reports whether it did. It is atomic with respect to
// the simulation loop, which never runs two accesses to one word at
// once; it is not a host-level atomic. A failing CAS writes nothing, so
// it neither allocates a missing page (whose words hold 0) nor copies a
// shared one.
func (im *Image) CompareAndSwap(addr, old, new int64) bool {
	pi, i := im.locate(addr)
	p := im.pages[pi].Load()
	var cur int64
	if p != nil {
		cur = p[i]
	}
	if cur != old {
		return false
	}
	if p == nil || im.shared(pi, p) {
		p = im.install(pi, p)
	}
	p[i] = new
	return true
}

// Share makes im start from base's contents: it installs every page base
// holds into the same slot of im, to be copied on im's first write to it.
// It walks only the page range base holds. base must have im's size, and
// im must hold no page where base holds one and share no other base;
// Share panics otherwise. base must never be written afterwards.
func (im *Image) Share(base *Image) {
	if base.Size() != im.Size() {
		panic(fmt.Sprintf("memsys: sharing a %d-byte base into a %d-byte image", base.Size(), im.Size()))
	}
	if im.base != nil {
		panic("memsys: image already shares a base")
	}
	base.span.Do(func() {
		base.lo, base.hi = len(base.pages), 0
		for pi := range base.pages {
			if base.pages[pi].Load() != nil {
				base.lo, base.hi = min(base.lo, pi), pi+1
			}
		}
	})
	im.base = base
	for pi := base.lo; pi < base.hi; pi++ {
		if p := base.pages[pi].Load(); p != nil && !im.pages[pi].CompareAndSwap(nil, p) {
			panic(fmt.Sprintf("memsys: sharing a base into an image that already holds page %d", pi))
		}
	}
}

// FirstDiff reports the lowest byte address at which im and other hold
// different words, with differ false when every word is equal. A page
// never written on one side compares as zeros. Images of different sizes
// first differ at the smaller size, the first address only one of them
// has.
func (im *Image) FirstDiff(other *Image) (addr int64, differ bool) {
	size := min(im.Size(), other.Size())
	words := size / WordBytes
	var zero page
	for pi := range (words + pageWords - 1) / pageWords {
		a, b := im.pages[pi].Load(), other.pages[pi].Load()
		if a == b {
			continue
		}
		if a == nil {
			a = &zero
		}
		if b == nil {
			b = &zero
		}
		n := min(int64(pageWords), words-pi*pageWords)
		for i := range n {
			if a[i] != b[i] {
				return (pi*pageWords + i) * WordBytes, true
			}
		}
	}
	if im.Size() != other.Size() {
		return size, true
	}
	return 0, false
}

// Layout is a simple bump allocator over an Image's address space, used by
// kernels to place named globals and arrays. It has no free operation: a
// kernel builds its whole data layout once.
type Layout struct {
	next  int64
	limit int64
	names map[string]int64
	order []NamedRegion
}

// NamedRegion records one named allocation of a Layout: base byte
// address and length in words. The static scope analyzer consumes these
// as its region declarations.
type NamedRegion struct {
	Name  string
	Base  int64
	Words int64
}

// NewLayout returns a Layout allocating from [base, limit).
func NewLayout(base, limit int64) *Layout {
	if base%WordBytes != 0 {
		base += WordBytes - base%WordBytes
	}
	return &Layout{next: base, limit: limit, names: make(map[string]int64)}
}

// Word allocates one named word and returns its byte address.
func (l *Layout) Word(name string) int64 { return l.Array(name, 1) }

// Array allocates n contiguous named words and returns the base byte
// address. It panics if the region is exhausted or the name reused, since
// kernel layouts are static.
func (l *Layout) Array(name string, n int64) int64 {
	if _, dup := l.names[name]; dup {
		panic(fmt.Sprintf("memsys: duplicate layout name %q", name))
	}
	addr := l.next
	l.next += n * WordBytes
	if l.next > l.limit {
		panic(fmt.Sprintf("memsys: layout overflow allocating %q (%d words)", name, n))
	}
	l.names[name] = addr
	l.order = append(l.order, NamedRegion{Name: name, Base: addr, Words: n})
	return addr
}

// AlignTo advances the allocation pointer to the next multiple of align
// bytes (e.g. a cache-line boundary to avoid false sharing).
func (l *Layout) AlignTo(align int64) {
	if align <= 0 || align%WordBytes != 0 {
		panic(fmt.Sprintf("memsys: bad alignment %d", align))
	}
	if rem := l.next % align; rem != 0 {
		l.next += align - rem
	}
}

// Addr returns the address previously allocated under name.
func (l *Layout) Addr(name string) int64 {
	addr, ok := l.names[name]
	if !ok {
		panic(fmt.Sprintf("memsys: unknown layout name %q", name))
	}
	return addr
}

// End returns the first unallocated byte address.
func (l *Layout) End() int64 { return l.next }

// Regions returns every named allocation in allocation order.
func (l *Layout) Regions() []NamedRegion {
	return append([]NamedRegion(nil), l.order...)
}
