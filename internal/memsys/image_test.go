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
// distinct words of one fresh page at once; every store must survive the
// racing page installs.
func TestImageConcurrentFirstStores(t *testing.T) {
	const workers, perWorker = 8, pageWords / 8
	for round := 0; round < 20; round++ {
		im := NewImage(1 << 20)
		base := int64(round%4) * pageWords * WordBytes
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
			t.Fatalf("round %d: %d pages in use, want 1", round, n)
		}
		for word := int64(0); word < pageWords; word++ {
			if got := im.Load(base + word*WordBytes); got != word+1 {
				t.Fatalf("round %d: word %d = %d, want %d", round, word, got, word+1)
			}
		}
	}
}
