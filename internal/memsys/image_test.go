package memsys

import (
	"sync"
	"testing"
)

// pagesInUse counts the materialized pages of im.
func pagesInUse(im *Image) int {
	n := 0
	for i := range im.pages {
		if im.pages[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestImageUnwrittenWordsReadZero(t *testing.T) {
	im := NewImage(64 << 20)
	for _, addr := range []int64{0, 8, 4096, 1 << 20, 64<<20 - 8} {
		if got := im.Load(addr); got != 0 {
			t.Errorf("Load(%d) = %d on a fresh image, want 0", addr, got)
		}
	}
}

func TestImageReadsDoNotMaterializePages(t *testing.T) {
	im := NewImage(1 << 20)
	for addr := int64(-64 << 10); addr < 2<<20; addr += 4096 + 8 {
		im.Load(addr)
	}
	if im.CompareAndSwap(8192, 7, 9) {
		t.Fatal("CAS expecting 7 succeeded on a never-written word")
	}
	if n := pagesInUse(im); n != 0 {
		t.Fatalf("%d pages materialized by loads and a failing CAS; want 0", n)
	}
	if !im.CompareAndSwap(8192, 0, 5) || im.Load(8192) != 5 {
		t.Fatal("CAS 0->5 on a never-written word did not take effect")
	}
	if n := pagesInUse(im); n != 1 {
		t.Fatalf("%d pages after one successful CAS, want 1", n)
	}
}

func TestImagePageBoundary(t *testing.T) {
	im := NewImage(1 << 20)
	const edge = pageWords * WordBytes // first byte of the second page
	for i := int64(-4); i < 4; i++ {
		im.Store(edge+i*WordBytes, 100+i)
	}
	for i := int64(-4); i < 4; i++ {
		if got := im.Load(edge + i*WordBytes); got != 100+i {
			t.Errorf("Load(%d) = %d, want %d", edge+i*WordBytes, got, 100+i)
		}
	}
	if n := pagesInUse(im); n != 2 {
		t.Errorf("%d pages in use after straddling one boundary, want 2", n)
	}
	if got := im.Load(edge - 5*WordBytes); got != 0 {
		t.Errorf("word before the stores = %d, want 0", got)
	}
}

func TestImageNormWrapsAtTop(t *testing.T) {
	const size = 1 << 16
	im := NewImage(size)
	im.Store(size-WordBytes, 11)
	if got := im.Load(-WordBytes); got != 11 {
		t.Errorf("Load(-8) = %d, want the top word 11", got)
	}
	im.Store(size, 22) // wraps to address 0
	if got := im.Load(0); got != 22 {
		t.Errorf("Load(0) = %d after Store(size), want 22", got)
	}
	if got := im.Load(3*size + 4); got != 22 {
		t.Errorf("Load(3*size+4) = %d, want 22 (wrapped and aligned)", got)
	}
	if n := pagesInUse(im); n != 2 {
		t.Errorf("%d pages in use, want the first and last page", n)
	}
}

func TestImageSmallerThanPage(t *testing.T) {
	im := NewImage(1024)
	if im.Size() != 1024 || len(im.pages) != 1 {
		t.Fatalf("1 KiB image: size %d with %d pages, want 1024 with 1", im.Size(), len(im.pages))
	}
	im.Store(1016, 3)
	im.Store(1024, 4) // wraps to 0
	if im.Load(1016) != 3 || im.Load(0) != 4 || im.Load(-8) != 3 {
		t.Errorf("1 KiB image loads: %d %d %d, want 3 4 3", im.Load(1016), im.Load(0), im.Load(-8))
	}
	other := NewImage(1024)
	other.Store(0, 4)
	other.Store(1016, 3)
	if addr, differ := im.FirstDiff(other); differ {
		t.Errorf("equal 1 KiB images differ at %d", addr)
	}
}

func TestImageFirstDiff(t *testing.T) {
	a, b := NewImage(1<<20), NewImage(1<<20)
	if addr, differ := a.FirstDiff(b); differ {
		t.Fatalf("fresh images differ at %d", addr)
	}
	// A page materialized on one side only, holding zeros, is equal.
	a.Store(3*pageWords*WordBytes, 1)
	a.Store(3*pageWords*WordBytes, 0)
	if addr, differ := a.FirstDiff(b); differ {
		t.Fatalf("zeroed one-sided page differs at %d", addr)
	}
	// A one-sided page holding a nonzero word differs at that word.
	const want = 5*pageWords*WordBytes + 40
	a.Store(want, -1)
	for _, pair := range [][2]*Image{{a, b}, {b, a}} {
		if addr, differ := pair[0].FirstDiff(pair[1]); !differ || addr != want {
			t.Errorf("FirstDiff = %d, %v; want %d, true", addr, differ, want)
		}
	}
	// The lowest differing word wins across pages.
	b.Store(want+WordBytes, 2)
	b.Store(64, 9)
	if addr, differ := a.FirstDiff(b); !differ || addr != 64 {
		t.Errorf("FirstDiff = %d, %v; want 64, true", addr, differ)
	}
	a.Store(64, 9)
	a.Store(want+WordBytes, 2)
	b.Store(want, -1)
	if addr, differ := a.FirstDiff(b); differ {
		t.Errorf("equalized images differ at %d", addr)
	}
	if addr, differ := a.FirstDiff(NewImage(1 << 21)); !differ || addr != 64 {
		t.Errorf("FirstDiff against a larger fresh image = %d, %v; want 64, true", addr, differ)
	}
	if addr, differ := NewImage(1 << 10).FirstDiff(NewImage(1 << 11)); !differ || addr != 1<<10 {
		t.Errorf("FirstDiff of fresh images of different sizes = %d, %v; want 1024, true", addr, differ)
	}
}

// TestImageConcurrentFirstStores has several goroutines store to
// distinct words of one page at once, either a fresh page or one shared
// with a base; every store must survive the racing page installs, and
// the base must stay unchanged.
func TestImageConcurrentFirstStores(t *testing.T) {
	const workers, perWorker = 8, pageWords / 8
	for _, shared := range []bool{false, true} {
		for round := 0; round < 100; round++ {
			im := NewImage(1 << 20)
			base := int64(round%4) * pageWords * WordBytes
			var src *Image
			if shared {
				src = sharedBase(1<<20, base, 1)
				im.Share(src)
			}
			var start, done sync.WaitGroup
			start.Add(1)
			for w := 0; w < workers; w++ {
				done.Add(1)
				go func(w int) {
					defer done.Done()
					start.Wait()
					for i := 0; i < perWorker; i++ {
						word := int64(i*workers + w)
						im.Store(base+word*WordBytes, word+1)
					}
				}(w)
			}
			start.Done()
			done.Wait()
			if n := pagesInUse(im); n != 1 {
				t.Fatalf("shared=%v round %d: %d pages in use, want 1", shared, round, n)
			}
			for word := int64(0); word < pageWords; word++ {
				if got := im.Load(base + word*WordBytes); got != word+1 {
					t.Fatalf("shared=%v round %d: word %d = %d, want %d", shared, round, word, got, word+1)
				}
			}
			if shared {
				if addr, differ := src.FirstDiff(sharedBase(1<<20, base, 1)); differ {
					t.Fatalf("round %d: stores into the sharer changed the base at %d", round, addr)
				}
			}
		}
	}
}

// sharedBase returns an image of size bytes whose page at byte address
// at holds -(w+1) in word w, for pages pages.
func sharedBase(size, at int64, pages int) *Image {
	b := NewImage(size)
	for w := range int64(pages) * pageWords {
		b.Store(at+w*WordBytes, -(w + 1))
	}
	return b
}

// pageOf returns the page im has installed for byte address addr.
func pageOf(im *Image, addr int64) *page {
	pi, _ := im.locate(addr)
	return im.pages[pi].Load()
}

func TestImageShareCopiesOnFirstWrite(t *testing.T) {
	const size, at int64 = 1 << 20, 4 * pageWords * WordBytes
	base := sharedBase(size, at, 3)
	for _, write := range []struct {
		name string
		do   func(im *Image, addr int64)
	}{
		{"store", func(im *Image, addr int64) { im.Store(addr, 42) }},
		{"cas", func(im *Image, addr int64) {
			if !im.CompareAndSwap(addr, im.Load(addr), 42) {
				t.Fatal("CAS expecting the shared word failed")
			}
		}},
	} {
		im := NewImage(size)
		im.Share(base)
		if n := pagesInUse(im); n != 3 {
			t.Fatalf("%s: %d pages after Share, want the base's 3", write.name, n)
		}
		addr := at + pageWords*WordBytes + 16 // middle page, word 2
		shared := pageOf(base, addr)
		write.do(im, addr)
		copied := pageOf(im, addr)
		if copied == shared {
			t.Fatalf("%s: the write went into the base's page", write.name)
		}
		write.do(im, addr+WordBytes)
		if pageOf(im, addr) != copied {
			t.Fatalf("%s: a second write to an owned page copied it again", write.name)
		}
		for _, other := range []int64{at, at + 2*pageWords*WordBytes} {
			if pageOf(im, other) != pageOf(base, other) {
				t.Fatalf("%s: writing one page unshared page %d", write.name, other)
			}
		}
		if got := im.Load(addr); got != 42 {
			t.Errorf("%s: Load = %d after the write, want 42", write.name, got)
		}
		if got := im.Load(addr + 2*WordBytes); got != -(pageWords + 5) {
			t.Errorf("%s: the copy lost the base's word: %d", write.name, got)
		}
		if addr, differ := base.FirstDiff(sharedBase(size, at, 3)); differ {
			t.Fatalf("%s: the base changed at %d", write.name, addr)
		}
	}
}

func TestImageShareReadsDoNotCopy(t *testing.T) {
	const size, at int64 = 1 << 20, 8 * pageWords * WordBytes
	base := sharedBase(size, at, 2)
	im := NewImage(size)
	im.Share(base)
	for addr := at; addr < at+2*pageWords*WordBytes; addr += 56 {
		im.Load(addr)
	}
	if im.CompareAndSwap(at+8, 7, 9) || im.CompareAndSwap(at+pageWords*WordBytes, 0, 9) {
		t.Fatal("a CAS expecting the wrong value succeeded on a shared page")
	}
	for _, addr := range []int64{at, at + pageWords*WordBytes} {
		if pageOf(im, addr) != pageOf(base, addr) {
			t.Fatalf("loads or a failing CAS copied the shared page at %d", addr)
		}
	}
	if n := pagesInUse(im); n != 2 {
		t.Fatalf("%d pages in use, want the base's 2", n)
	}
}

func TestImageShareWrapsAtTop(t *testing.T) {
	const size = 1 << 20
	top := int64(size - pageWords*WordBytes) // the last page
	base := sharedBase(size, top, 1)
	im := NewImage(size)
	im.Share(base)
	// size-8 and -8 both name the last word of the last, shared page.
	if got := im.Load(-8); got != -pageWords {
		t.Fatalf("Load(-8) = %d, want the base's last word %d", got, -pageWords)
	}
	im.Store(-8, 1)
	im.Store(size+top, 2) // wraps to the first word of the last page
	if got := im.Load(size - 8); got != 1 {
		t.Errorf("Load(size-8) = %d after Store(-8), want 1", got)
	}
	if got := im.Load(top); got != 2 {
		t.Errorf("Load(top) = %d after a wrapped store, want 2", got)
	}
	if got := im.Load(top + 8); got != -2 {
		t.Errorf("Load(top+8) = %d, want the base's -2", got)
	}
	if pageOf(im, top) == pageOf(base, top) {
		t.Fatal("wrapped stores wrote into the base's page")
	}
	if got := base.Load(size - 8); got != -pageWords {
		t.Fatalf("the base's last word changed to %d", got)
	}
}

func TestImageShareFirstDiff(t *testing.T) {
	const size, at int64 = 1 << 20, 2 * pageWords * WordBytes
	base := sharedBase(size, at, 4)
	a, b := NewImage(size), NewImage(size)
	a.Share(base)
	b.Share(base)
	if addr, differ := a.FirstDiff(b); differ {
		t.Fatalf("two sharers of one base differ at %d", addr)
	}
	if addr, differ := a.FirstDiff(base); differ {
		t.Fatalf("a sharer differs from its base at %d", addr)
	}
	const want = at + 3*pageWords*WordBytes + 80
	a.Store(want, 0)
	for _, pair := range [][2]*Image{{a, b}, {b, a}, {a, base}} {
		if addr, differ := pair[0].FirstDiff(pair[1]); !differ || addr != want {
			t.Errorf("FirstDiff = %d, %v; want %d, true", addr, differ, want)
		}
	}
	// Writing the base's own value back leaves a copy equal to the base.
	a.Store(want, base.Load(want))
	if addr, differ := a.FirstDiff(b); differ {
		t.Errorf("a sharer that restored the base's word differs at %d", addr)
	}
}

func TestImageShareRejectsMisuse(t *testing.T) {
	base := sharedBase(1<<20, 0, 1)
	for _, tc := range []struct {
		name string
		im   func() *Image
	}{
		{"size mismatch", func() *Image { return NewImage(1 << 21) }},
		{"page already held", func() *Image {
			im := NewImage(1 << 20)
			im.Store(64, 1)
			return im
		}},
		{"second base", func() *Image {
			im := NewImage(1 << 20)
			im.Share(sharedBase(1<<20, 1<<19, 1))
			return im
		}},
	} {
		im := tc.im()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Share did not panic", tc.name)
				}
			}()
			im.Share(base)
		}()
	}
}
